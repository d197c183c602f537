"""Soil organic carbon stocks and the CO2 credit of a stock change.

Stocks are computed on the fine-earth mass of the sampled layer, so the
volumetric coarse fragment share is excluded before applying the organic
carbon concentration. A rising stock between two analyses becomes an annual
fixation rate and, times 44/12, an annual CO2 removal.
"""

from __future__ import annotations

from typing import NamedTuple

from .farmspec import SoilSample

__all__ = ["SocStock", "soc_stock", "soc_annual_change", "soc_co2_credit",
           "CO2_PER_C"]

CO2_PER_C = 44.0 / 12.0  # molar mass ratio, exact by definition

_M2_PER_HA = 10000.0


class SocStock(NamedTuple):
    land_class: str
    year: int
    mg_c_per_ha: float


def soc_stock(sample: SoilSample) -> SocStock:
    """Organic carbon stock of the sampled layer in Mg C/ha.

    stock = depth * bulk density * 10000 m2/ha * (1 - coarse share) * OC
    """
    mass_fine_earth = (sample.depth_m * sample.bulk_density_mg_m3 * _M2_PER_HA
                       * (1.0 - sample.coarse_fraction))
    return SocStock(land_class=sample.land_class.value, year=sample.year,
                    mg_c_per_ha=mass_fine_earth * sample.organic_carbon)


def soc_annual_change(before: SocStock, after: SocStock, years: float) -> float:
    """Annual stock change in Mg C/ha/y between two analyses."""
    if years <= 0:
        raise ValueError("the period between analyses must be positive")
    return (after.mg_c_per_ha - before.mg_c_per_ha) / years


def soc_co2_credit(delta_c_mg_ha: float) -> float:
    """CO2 equivalent of an annual carbon stock change, in Mg CO2/ha/y.

    Positive input (carbon gained) gives a positive credit; the inventory
    turns a credit into a negative CO2 flow.
    """
    return delta_c_mg_ha * CO2_PER_C
