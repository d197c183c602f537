"""Life-cycle inventory assembly for one crop on one hectare and year.

The functional unit is 1 ha cultivated for 1 year. Establishment-only
inputs of perennial crops are spread over the amortization horizon first,
then every input becomes a flow tagged with the life-cycle phase it belongs
to. Flow amounts are quantities in canonical Mg or L, understood per
hectare and year; characterization converts each to the basis unit of its
factor record. The seed chain below sums the production flows by flow id in
one pass of plain floats and makes one quantity per seed flow at the end.

Seed is special. Farm-multiplied seed ("own") is produced with the same
cultivation inputs as the crop itself plus processing and transport, which
makes the seed demand self-referential: growing seed consumes seed. The
vector of flows behind 1 Mg of seed solves

    x = (c + dose * x) / seed_yield + p

where c are the per-hectare cultivation flows (production-side flows and
field works; field emissions and soil carbon stay attributed to the parcel
that farms, not to the seed supply chain) and p the per-Mg processing,
transport, and intrinsic calorific content flows. With r = dose / seed_yield
the solution is x = (c / seed_yield + p) / (1 - r), the one-product case of
the (I - A)^-1 matrix inversion of Heijungs & Suh (2002). It exists exactly
when r < 1.

Two field sub-models make the rest of the flows. Nitrogen applied to the
soil drives N2O release and diesel engines emit combustion gases; the two
belong to different phases. A soil organic carbon stock that rises between
two analyses becomes an annual fixation rate and, times 44/12, a CO2
removal.
"""

import enum
from collections.abc import Mapping
from functools import partial
from types import MappingProxyType
from typing import NamedTuple

from . import GASES, CropgateError, horizon_problem
from .factors import ExhaustFactors, FactorDB, N2OParams
from .farmspec import (MACHINERY_FLOWS, SEED_CHAIN_FLOWS, CropPlan, FarmModel,
                       SoilSample)
from .units import Quantity, UnitError, parse_unit

__all__ = [
    "Phase", "PHASES", "PHASE_NAMES", "Flow", "Inventory", "AnnualizedPlan",
    "InventoryError", "SeedRecursionError", "annualize_schedule",
    "build_lci", "CO2_PER_C", "soc_stock", "soc_annual_change",
    "soc_co2_credit", "n2o_field_emissions", "exhaust_emissions",
]


class InventoryError(CropgateError):
    pass


class SeedRecursionError(InventoryError):
    pass


class Phase(enum.Enum):
    # declaration order is the row order of every report
    SEED = "seed_pt"
    FERTILIZER = "fertilizer_pt"
    PESTICIDE = "pesticide_pt"
    FIELD_WORKS = "field_works"
    FIELD_EMISSIONS = "field_emissions"
    SOC = "soc_change"

    __hash__ = object.__hash__  # members are singletons; Enum's is Python


PHASES = tuple(Phase)
# read once: on Python 3.10 and 3.11 each Phase.X runs EnumType.__getattr__
_SEED, _FERTILIZER, _PESTICIDE, _FIELD_WORKS, _FIELD_EMISSIONS, _SOC = (
    Phase.SEED, Phase.FERTILIZER, Phase.PESTICIDE, Phase.FIELD_WORKS,
    Phase.FIELD_EMISSIONS, Phase.SOC)
# report names, read once: Enum's .value is a Python-level descriptor
PHASE_NAMES = {phase: phase.value for phase in PHASES}


_CO2, _, _N2O = GASES  # the soil-carbon and field-emission flows

CO2_PER_C = 44.0 / 12.0  # molar mass ratio, exact by definition
# molar mass ratio N2O / N2: converts kg of N2O-N into kg of N2O
_N2O_PER_N = 44.0 / 28.0
_M2_PER_HA = 10000.0

_MG, _L = (parse_unit(text)[0] for text in ("Mg", "L"))
_KG_VALUE = 0.001  # one kg in canonical mass units


class Flow(NamedTuple):
    flow_id: str
    amount: Quantity  # per ha and year; negative only in the SOC phase
    phase: Phase


# the tuples of the engine path skip the Python-level __new__ of a NamedTuple:
# for flows that is one C call per flow
_flow = partial(tuple.__new__, Flow)


class Inventory(NamedTuple):
    crop_name: str
    flows: tuple[Flow, ...]
    notes: tuple[str, ...] = ()


class AnnualizedPlan(NamedTuple):
    """Per-year input rates after spreading establishment-only entries."""
    sowing_dose_mg_ha: float
    fertilizations: tuple  # (product_id, dose_mg_ha) pairs
    herbicides: tuple      # (product_id, dose, liquid) triples, as farmspec
    diesel_l_ha: float
    machinery_mg_ha: Mapping[str, float] = MappingProxyType({})  # by key


def _spread(value, timing: str, horizon: float):
    return value / horizon if timing == "establishment" else value


def annualize_schedule(crop: CropPlan, horizon_years: float) -> AnnualizedPlan:
    """Representative annual input rates for one crop.

    Establishment-only entries are divided by the amortization horizon;
    recurrent entries pass through unchanged. Nothing is lost: annualized
    establishment rates times the horizon give back the one-off totals.
    """
    if problem := horizon_problem(horizon_years):
        raise InventoryError(f"amortization horizon {problem}")
    machinery: dict[str, float] = {}
    diesel = 0.0
    for op in crop.operations:
        diesel += _spread(op.diesel_l_ha, op.timing, horizon_years)
        for key, mass in op.machinery_mg_ha.items():
            machinery[key] = machinery.get(key, 0.0) + _spread(
                mass, op.timing, horizon_years)
    return tuple.__new__(AnnualizedPlan, (
        _spread(crop.sowing_dose_mg_ha, crop.sowing_timing, horizon_years),
        tuple([(f.product_id, _spread(f.dose_mg_ha, f.timing, horizon_years))
               for f in crop.fertilizations]),
        tuple([(h.product_id, _spread(h.dose, h.timing, horizon_years),
                h.liquid) for h in crop.herbicides]),
        diesel, machinery))


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


def exhaust_emissions(diesel_l: float,
                      factors: ExhaustFactors) -> tuple[float, ...]:
    """Exhaust gas masses in kg for a diesel amount in litres, in ``GASES``
    order."""
    return tuple([diesel_l * kg_l for kg_l in factors])


def _production_flows(model: FarmModel, ann: AnnualizedPlan,
                      exhaust: ExhaustFactors) -> list[Flow]:
    """Fertilizer, pesticide and field-work flows per ha*y, in report order.

    The order fixes the order of the per-phase float sums downstream.
    """
    flows = [_flow((product_id, Quantity(dose, _MG), _FERTILIZER))
             for product_id, dose in ann.fertilizations]
    for product_id, dose, liquid in ann.herbicides:
        # the active fraction is kg a.i. per L of a liquid, per kg of a solid
        ai_kg = ((dose if liquid else dose / _KG_VALUE)
                 * model.products[product_id].active_fraction)
        flows.append(_flow((product_id, Quantity(ai_kg * _KG_VALUE, _MG),
                            _PESTICIDE)))
    if ann.diesel_l_ha:
        flows.append(_flow(("diesel", Quantity(ann.diesel_l_ha, _L),
                            _FIELD_WORKS)))
        for gas, kg in zip(GASES, exhaust_emissions(ann.diesel_l_ha, exhaust)):
            if kg:
                flows.append(_flow((gas, Quantity(kg * _KG_VALUE, _MG),
                                    _FIELD_WORKS)))
    for key, flow_id in MACHINERY_FLOWS.items():
        mass = ann.machinery_mg_ha.get(key)
        if mass:
            flows.append(_flow((flow_id, Quantity(mass, _MG), _FIELD_WORKS)))
    return flows


def _seed_vector(crop: CropPlan, ann: AnnualizedPlan,
                 production: list[Flow], one_level: bool,
                 seed_mg: float = 1.0) -> dict[str, Quantity]:
    """x = (c/Y + p) / (1 - r) * seed_mg per flow id, summed in floats in
    that order; one quantity per flow. The seed-chain flows p are masses:
    :func:`_production_flows` makes every flow a mass but ``diesel``."""
    yield_mg = crop.seed_yield_mg_ha
    if yield_mg is None or yield_mg <= 0:
        raise SeedRecursionError(f"crop {crop.name!r} has no seed yield")
    dose = ann.sowing_dose_mg_ha
    if dose >= yield_mg:
        raise SeedRecursionError(
            f"seed dose {dose!r} Mg/ha meets or exceeds seed yield "
            f"{yield_mg!r} Mg/ha; the seed chain diverges")
    totals, units = {}, {}  # flow id -> c in floats, and its unit
    for flow_id, amount, _ in production:
        total = totals.get(flow_id)
        if total is None:
            totals[flow_id], units[flow_id] = amount.value, amount.unit
        elif amount.unit != units[flow_id]:
            raise UnitError(f"cannot add {units[flow_id]} and {amount.unit}")
        else:
            totals[flow_id] = total + amount.value
    one_minus_r = 1.0 if one_level else 1.0 - dose / yield_mg
    seed = {flow_id: Quantity(total / yield_mg / one_minus_r * seed_mg,
                              units[flow_id])
            for flow_id, total in totals.items()}
    for flow_id in SEED_CHAIN_FLOWS:  # + p, after c/Y where an id has both
        total = totals.get(flow_id)
        per_mg = 1.0 if total is None else total / yield_mg + 1.0
        seed[flow_id] = Quantity(per_mg / one_minus_r * seed_mg,
                                 units.get(flow_id, _MG))
    return seed


def soc_stock(sample: SoilSample) -> float:
    """Organic carbon stock of the sampled layer in Mg C/ha, on the
    fine-earth mass: the coarse fragment share is excluded first.

    stock = depth * bulk density * 10000 m2/ha * (1 - coarse share) * OC
    """
    mass_fine_earth = (sample.depth_m * sample.bulk_density_mg_m3 * _M2_PER_HA
                       * (1.0 - sample.coarse_fraction))
    return mass_fine_earth * sample.organic_carbon


def soc_annual_change(before: float, after: float, years: float) -> float:
    """Annual stock change in Mg C/ha/y between two stocks in Mg C/ha."""
    if years <= 0:
        raise ValueError("the period between analyses must be positive")
    return (after - before) / years


def soc_co2_credit(delta_c_mg_ha: float) -> float:
    """CO2 equivalent of an annual carbon stock change, in Mg CO2/ha/y.

    Positive input (carbon gained) gives a positive credit; the inventory
    turns a credit into a negative CO2 flow.
    """
    return delta_c_mg_ha * CO2_PER_C


def _soc_flow(crop: CropPlan, model: FarmModel) -> tuple[Flow | None, str | None]:
    if crop.soc_equilibrium:
        return None, None
    if crop.soc_fixation_mg_c_ha is not None:
        credit = soc_co2_credit(crop.soc_fixation_mg_c_ha)
        return _flow((_CO2, Quantity(-credit, _MG), _SOC)), None
    series = model.soil_series(crop.land_class)
    if len(series) < 2:
        return None, (f"no soil analysis pair for {crop.land_class} "
                      "land; soil carbon change taken as zero")
    first, last = series[0], series[-1]
    years = last.year - first.year
    change = soc_annual_change(soc_stock(first), soc_stock(last), years)
    return _flow((_CO2, Quantity(-soc_co2_credit(change), _MG), _SOC)), None


def build_lci(crop: CropPlan, model: FarmModel, db: FactorDB,
              seed_one_level: bool = False) -> Inventory:
    """Full per-ha*y inventory of one crop, all flows tagged by phase."""
    ann = annualize_schedule(crop, model.amortization_horizon_years)
    production = _production_flows(model, ann, db.exhaust)
    flows: list[Flow] = []

    if ann.sowing_dose_mg_ha and crop.seed_source == "own":
        vector = _seed_vector(crop, ann, production, seed_one_level,
                              ann.sowing_dose_mg_ha)
        flows = [_flow((flow_id, vector[flow_id], _SEED))
                 for flow_id in sorted(vector)]
    elif ann.sowing_dose_mg_ha and crop.seed_source == "external":
        flows.append(_flow((crop.seed_flow,
                            Quantity(ann.sowing_dose_mg_ha, _MG), _SEED)))
    flows.extend(production)

    n_applied_kg = 0.0  # a left fold, as in impact.characterize
    for product_id, dose in ann.fertilizations:
        if product_id in model.products:
            n_applied_kg += (dose * model.products[product_id].composition.n
                             * 1000.0)
    n2o_mg = n2o_field_emissions(n_applied_kg, db.n2o_params(crop.name))
    if n2o_mg:
        flows.append(_flow((_N2O, Quantity(n2o_mg, _MG), _FIELD_EMISSIONS)))

    soc_flow, note = _soc_flow(crop, model)
    if soc_flow is not None:
        flows.append(soc_flow)

    for flow_id, amount, phase in flows:
        if amount.value < 0 and phase is not _SOC:
            raise InventoryError(f"negative amount for flow {flow_id!r} in "
                                 f"phase {phase.value}")
    return tuple.__new__(Inventory, (crop.name, tuple(flows),
                                     (note,) if note else ()))
