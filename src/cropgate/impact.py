"""Impact characterization: GWP100 and cumulative primary energy.

Both are linear maps over the same inventory, so one pass over its flows
gives both (g = QBs of Heijungs & Suh, 2002, one product at a time). Every
flow takes one unit step: it is divided into its basis unit by the scale
``parse_unit`` memoized for that unit text, after ``Quantity.to``'s unit
check and with its error text. The basis is Mg for the soil-carbon CO2 flow,
which enters GWP as it is; kg for a gas flow, weighed by its GWP in
``FactorDB.gases``; and the record's unit for every other flow, which
resolves its factor record once and feeds the kg CO2e, renewable MJ and
non-renewable MJ sums, kept per phase by index.

Conventions carried through all reporting:

* GWP phase shares are computed over the positive phases only; the soil
  carbon phase is the only one allowed to be negative and is excluded.
* Field emissions and soil carbon contribute no primary energy.
* Energy is reported in GJ, split renewable / non-renewable.
"""

from dataclasses import dataclass
from functools import reduce
from operator import add

from . import GASES, units
from .factors import FactorDB, MissingFlowError
from .inventory import PHASES, Inventory, Phase

__all__ = ["GwpBreakdown", "EnergyBreakdown", "characterize", "phase_shares",
           "POSITIVE_PHASES"]

POSITIVE_PHASES = (Phase.SEED, Phase.FERTILIZER, Phase.PESTICIDE,
                   Phase.FIELD_WORKS, Phase.FIELD_EMISSIONS)

ENERGY_PHASES = POSITIVE_PHASES[:4]  # field emissions carry no energy

_INDEX = {phase: i for i, phase in enumerate(PHASES)}


@dataclass(frozen=True)
class GwpBreakdown:
    crop_name: str
    by_phase: dict[Phase, float]  # Mg CO2e per ha*y
    positive_total: float
    net_total: float
    missing: tuple[str, ...] = ()


@dataclass(frozen=True)
class EnergyBreakdown:
    crop_name: str
    renewable_by_phase: dict[Phase, float]  # GJ per ha*y
    nonrenewable_by_phase: dict[Phase, float]
    renewable_total: float
    nonrenewable_total: float
    total: float
    missing: tuple[str, ...] = ()


def characterize(inventory: Inventory, db: FactorDB,
                 cutoff_missing: bool = False,
                 ) -> tuple[GwpBreakdown, EnergyBreakdown]:
    """GWP100 in Mg CO2e and primary energy in GJ, per phase and ha*y.

    The GWP net total adds the (possibly negative) soil carbon phase to the
    positive phases, so net = positive + soc holds exactly. A flow without
    a factor record raises, or in cut-off mode adds zero burden and is named
    in the ``missing`` tuple that both breakdowns share.
    """
    kg = [0.0] * len(PHASES)
    ren, non = kg[:], kg[:]
    soc_mg = 0.0
    missing: set[str] = set()
    # on Python 3.10-3.11 each Phase.SOC read runs EnumType.__getattr__
    soc, resolve, gwp = Phase.SOC, db.records.get, db.gases
    # parse_unit's memo: a record's unit enters it when its file loads, and
    # the Mg and kg of the soil-carbon and gas flows on their first parse
    memo = units._UNIT_CACHE.get
    for flow_id, amount, phase in inventory.flows:
        record = None
        if phase is soc:
            text = "Mg"
        elif flow_id in GASES:
            text = "kg"
        else:
            record = resolve(flow_id)
            if record is None:
                if not cutoff_missing:
                    raise MissingFlowError(flow_id)
                missing.add(flow_id)
                continue
            text = record.unit
        # Quantity.to inline: its unit check, its error text, its division
        unit, scale = memo(text) or units.parse_unit(text)
        if amount.unit is not unit and amount.unit != unit:
            raise units.UnitError(f"cannot express {amount.unit} in {text!r}")
        basis = amount.value / scale
        if record is not None:
            i = _INDEX[phase]
            kg[i] += basis * record.gwp100
            ren[i] += basis * record.pe_renewable / 1000.0
            non[i] += basis * record.pe_nonrenewable / 1000.0
        elif phase is soc:
            soc_mg += basis
        else:
            kg[_INDEX[phase]] += basis * gwp[flow_id]
    by_phase = {phase: total / 1000.0 for phase, total in zip(PHASES, kg)}
    by_phase[soc] = soc_mg
    # plain left folds: sum() of floats is compensated since Python 3.12
    positive = reduce(add, [by_phase[phase] for phase in POSITIVE_PHASES], 0.0)
    ren_total, non_total = reduce(add, ren, 0.0), reduce(add, non, 0.0)
    cut = tuple(sorted(missing))
    return (GwpBreakdown(inventory.crop_name, by_phase, positive,
                         positive + soc_mg, cut),
            EnergyBreakdown(inventory.crop_name, dict(zip(PHASES, ren)),
                            dict(zip(PHASES, non)), ren_total, non_total,
                            ren_total + non_total, cut))


def phase_shares(breakdown: GwpBreakdown | EnergyBreakdown,
                 ) -> dict[Phase, float]:
    """Phase contributions in percent.

    GWP shares are taken over the positive phases; energy shares over the
    total. Raises if the denominator is zero.
    """
    if isinstance(breakdown, GwpBreakdown):
        if breakdown.positive_total == 0.0:
            raise ValueError("no positive GWP to take shares of")
        return {phase: breakdown.by_phase[phase] / breakdown.positive_total
                * 100.0 for phase in POSITIVE_PHASES}
    if breakdown.total == 0.0:
        raise ValueError("no primary energy to take shares of")
    return {phase: (breakdown.renewable_by_phase[phase]
                    + breakdown.nonrenewable_by_phase[phase])
            / breakdown.total * 100.0 for phase in ENERGY_PHASES}
