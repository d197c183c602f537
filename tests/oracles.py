"""Reference code the tests compare the package against.

No command and no demo runs these, so they live here rather than in the
package: the seed vector behind 1 Mg of own seed, inventory queries by flow
and phase, the GWP and energy halves of ``impact.characterize``, and a
serializer for the section grammar, which is the oracle of the parser's
round-trip property.
"""

from __future__ import annotations

from cropgate.factors import DEFAULT_EXHAUST, ExhaustFactors, FactorDB
from cropgate.farmspec import CropPlan, FarmModel
from cropgate.impact import EnergyBreakdown, GwpBreakdown, characterize
from cropgate.inventory import (AnnualizedPlan, Flow, Inventory, Phase,
                                _production_flows, _seed_vector,
                                annualize_schedule)
from cropgate.sections import Document, Scalar
from cropgate.units import Quantity


# ---------------------------------------------------------------------- #
#  inventory
# ---------------------------------------------------------------------- #

def _by_flow_id(flows: list[Flow]) -> dict[str, Quantity]:
    totals: dict[str, Quantity] = {}
    for flow in flows:
        previous = totals.get(flow.flow_id)
        totals[flow.flow_id] = (flow.amount if previous is None
                                else previous + flow.amount)
    return totals


def _cultivation_flows(crop: CropPlan, model: FarmModel, ann: AnnualizedPlan,
                       exhaust: ExhaustFactors) -> dict[str, Quantity]:
    """The seed chain's cultivation vector c: production flows by flow id."""
    return _by_flow_id(_production_flows(model, ann, exhaust))


def seed_inventory(crop: CropPlan, model: FarmModel,
                   exhaust: ExhaustFactors = DEFAULT_EXHAUST,
                   one_level: bool = False) -> dict[str, Quantity]:
    """Flow vector behind 1 Mg of farm-multiplied seed.

    Solves the self-referential seed demand in closed form: with ratio
    r = sowing dose / seed yield, x = (c/Y + p) / (1 - r), the sum of the
    geometric series of seed used to grow seed. The series converges, and
    the solution exists, exactly when r < 1.

    Args:
        one_level: truncate after the first level instead, x = c/Y + p (the
            seed used to grow seed is left out), for sensitivity runs.

    Raises:
        SeedRecursionError: no seed yield, or r >= 1 (the series diverges).
    """
    ann = annualize_schedule(crop, model.amortization_horizon_years)
    return _seed_vector(crop, ann, _production_flows(model, ann, exhaust),
                        one_level)


def by_phase(inventory: Inventory, phase: Phase) -> list[Flow]:
    return [f for f in inventory.flows if f.phase is phase]


def amount(inventory: Inventory, flow_id: str,
           phase: Phase | None = None) -> Quantity | None:
    total = None
    for flow in inventory.flows:
        if flow.flow_id == flow_id and phase in (None, flow.phase):
            total = flow.amount if total is None else total + flow.amount
    return total


# ---------------------------------------------------------------------- #
#  impact
# ---------------------------------------------------------------------- #

def characterize_gwp(inventory: Inventory, db: FactorDB,
                     cutoff_missing: bool = False) -> GwpBreakdown:
    """The GWP half of :func:`characterize`."""
    return characterize(inventory, db, cutoff_missing)[0]


def characterize_energy(inventory: Inventory, db: FactorDB,
                        cutoff_missing: bool = False) -> EnergyBreakdown:
    """The primary energy half of :func:`characterize`."""
    return characterize(inventory, db, cutoff_missing)[1]


# ---------------------------------------------------------------------- #
#  sections and units
# ---------------------------------------------------------------------- #

def format_quantity(q: Quantity) -> str:
    """Shortest round-trip text for a quantity, in canonical units."""
    if q.unit.dimensionless:
        return repr(q.value)
    return f"{q.value!r} {q.unit}"


def _serialize_scalar(value: Scalar) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Quantity):
        return format_quantity(value)
    # plain text: emit bare identifiers unquoted so they read back identically
    if value.isidentifier() and value.isascii() and value not in ("true", "false"):
        return value
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def serialize_document(doc: Document) -> str:
    """Render a document back to text; parsing the result gives equal values.
    A line break in a text value has no syntax and raises ValueError."""
    lines: list[str] = []
    for path, entries in doc.items():
        name = ".".join(path)
        lines.append(f"[{name}]")
        for key, value in entries.items():
            if isinstance(value, list):
                rendered = ", ".join(_serialize_scalar(v) for v in value)
            else:
                rendered = _serialize_scalar(value)
            if "\n" in rendered or "\r" in rendered:  # only text can hold one
                raise ValueError(f"[{name}].{key}: text with a "
                                 "line break cannot be written")
            lines.append(f"{key} = {rendered}")
        lines.append("")
    return "\n".join(lines)
