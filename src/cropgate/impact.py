"""Impact characterization: GWP100 and cumulative primary energy.

Both characterizations are linear maps over the inventory. Gas flows go
through the gas table, the soil-carbon CO2 flow passes through unchanged
(it is already a CO2 mass), and every other flow is multiplied by its
factor record after converting the amount to the record's basis unit.

Conventions carried through all reporting:

* GWP phase shares are computed over the positive phases only; the soil
  carbon phase is the only one allowed to be negative and is excluded.
* Field emissions and soil carbon contribute no primary energy.
* Energy is reported in GJ, split renewable / non-renewable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .factors import FactorDB, FactorRecord
from .inventory import GAS_FLOWS, Inventory, Phase

__all__ = ["GwpBreakdown", "EnergyBreakdown", "characterize_gwp",
           "characterize_energy", "phase_shares", "POSITIVE_PHASES"]

POSITIVE_PHASES = (Phase.SEED, Phase.FERTILIZER, Phase.PESTICIDE,
                   Phase.FIELD_WORKS, Phase.FIELD_EMISSIONS)

ENERGY_PHASES = (Phase.SEED, Phase.FERTILIZER, Phase.PESTICIDE,
                 Phase.FIELD_WORKS)


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


def _resolve(db: FactorDB, flow_id: str, cutoff_missing: bool,
             missing: set[str]) -> FactorRecord | None:
    """Factor record of a flow. In cut-off mode a flow without one is added
    to ``missing`` and resolves to None: it adds zero burden, whatever its
    unit."""
    record = db.records.get(flow_id) if cutoff_missing else db.lookup(flow_id)
    if record is None:
        missing.add(flow_id)
    return record


def characterize_gwp(inventory: Inventory, db: FactorDB,
                     cutoff_missing: bool = False) -> GwpBreakdown:
    """GWP100 per phase in Mg CO2e per ha*y.

    The net total adds the (possibly negative) soil carbon phase to the
    positive phases, so net = positive + soc holds exactly.
    """
    kg_by_phase = {phase: 0.0 for phase in Phase}
    soc_mg = 0.0
    missing: set[str] = set()
    for flow in inventory.flows:
        if flow.phase is Phase.SOC:
            soc_mg += flow.amount.to("Mg")
        elif flow.flow_id in GAS_FLOWS:
            kg_by_phase[flow.phase] += (flow.amount.to("kg")
                                        * db.gas_gwp(flow.flow_id))
        else:
            record = _resolve(db, flow.flow_id, cutoff_missing, missing)
            if record is not None:
                kg_by_phase[flow.phase] += (flow.amount.to(record.unit)
                                            * record.gwp100)
    by_phase = {phase: kg_by_phase[phase] / 1000.0 for phase in Phase}
    by_phase[Phase.SOC] = soc_mg
    positive = sum(by_phase[phase] for phase in POSITIVE_PHASES)
    return GwpBreakdown(crop_name=inventory.crop_name, by_phase=by_phase,
                        positive_total=positive,
                        net_total=positive + by_phase[Phase.SOC],
                        missing=tuple(sorted(missing)))


def characterize_energy(inventory: Inventory, db: FactorDB,
                        cutoff_missing: bool = False) -> EnergyBreakdown:
    """Cumulative primary energy per phase in GJ per ha*y, split by origin."""
    ren = {phase: 0.0 for phase in Phase}
    non = {phase: 0.0 for phase in Phase}
    missing: set[str] = set()
    for flow in inventory.flows:
        # gases and the soil carbon flow carry no embodied energy
        if flow.phase is Phase.SOC or flow.flow_id in GAS_FLOWS:
            continue
        record = _resolve(db, flow.flow_id, cutoff_missing, missing)
        if record is None:
            continue
        basis = flow.amount.to(record.unit)
        ren[flow.phase] += basis * record.pe_renewable / 1000.0
        non[flow.phase] += basis * record.pe_nonrenewable / 1000.0
    renewable_total = sum(ren.values())
    nonrenewable_total = sum(non.values())
    return EnergyBreakdown(
        crop_name=inventory.crop_name, renewable_by_phase=ren,
        nonrenewable_by_phase=non, renewable_total=renewable_total,
        nonrenewable_total=nonrenewable_total,
        total=renewable_total + nonrenewable_total,
        missing=tuple(sorted(missing)))


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
