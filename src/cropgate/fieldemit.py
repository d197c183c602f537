"""Field-level gas emissions: fertilization N2O and engine exhaust.

Two separate things happen on the field. Nitrogen applied to the soil drives
N2O release (directly and through re-deposited ammonia), and diesel engines
emit combustion gases. They are kept apart because the assessment assigns
them to different life-cycle phases.
"""

from __future__ import annotations

from typing import NamedTuple

from .factors import ExhaustFactors, N2OParams

__all__ = ["ExhaustGases", "n2o_field_emissions", "exhaust_emissions"]

# molar mass ratio N2O / N2: converts kg of N2O-N into kg of N2O
_N2O_PER_N = 44.0 / 28.0


def n2o_field_emissions(n_applied_kg_ha: float, params: N2OParams) -> float:
    """Annual field N2O in Mg per hectare.

    A measured override wins outright. Otherwise the direct emission factor
    applies to applied plus residue nitrogen, and the indirect factor to the
    ammonia-volatilized share of applied nitrogen:

        N2O = 44/28 * [ef_direct * (N_applied + N_residue)
                       + ef_indirect_nh3 * nh3_loss_fraction * N_applied]

    Args:
        n_applied_kg_ha: mineral nitrogen reaching the field, kg N/ha.
        params: per-crop parameters or measured override.
    """
    if params.override_mg_ha is not None:
        return params.override_mg_ha
    if n_applied_kg_ha < 0:
        raise ValueError("applied nitrogen cannot be negative")
    n2o_n = (params.ef_direct * (n_applied_kg_ha + params.residue_n_kg_ha)
             + params.ef_indirect_nh3 * params.nh3_loss_fraction * n_applied_kg_ha)
    return _N2O_PER_N * n2o_n / 1000.0  # kg -> Mg


class ExhaustGases(NamedTuple):
    """Combustion gas masses in kg (per the diesel amount they came from)."""
    co2_kg: float
    ch4_kg: float
    n2o_kg: float


def exhaust_emissions(diesel_l: float, factors: ExhaustFactors) -> ExhaustGases:
    """Componentwise exhaust masses for a diesel amount in litres."""
    return ExhaustGases(co2_kg=diesel_l * factors.co2_kg_l,
                        ch4_kg=diesel_l * factors.ch4_kg_l,
                        n2o_kg=diesel_l * factors.n2o_kg_l)
