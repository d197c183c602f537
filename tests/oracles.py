"""Reference code the tests compare the package against.

No command and no demo runs these, so they live here rather than in the
package: the seed vector behind 1 Mg of own seed, inventory queries by flow
and phase, the GWP and energy halves of ``impact.characterize``, a
serializer for the section grammar, which is the oracle of the parser's
round-trip property, and the ``argparse`` parser the command line used to
build, which is the oracle of its flag grammar.
"""

from __future__ import annotations

import argparse

from cropgate import MAX_HORIZON_YEARS, __version__
from cropgate.factors import DEFAULT_EXHAUST, FactorDB
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
                       exhaust: dict[str, float]) -> dict[str, Quantity]:
    """The seed chain's cultivation vector c: production flows by flow id."""
    return _by_flow_id(_production_flows(model, ann, exhaust))


def seed_inventory(crop: CropPlan, model: FarmModel,
                   exhaust: dict[str, float] = DEFAULT_EXHAUST,
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

def format_quantity(q: float | Quantity) -> str:
    """Shortest round-trip text for a parsed number: a float bare, a
    quantity in canonical units (``1`` when dimensionless)."""
    if q.__class__ is float:
        return repr(q)
    return f"{q.value!r} {q.unit}"


def _serialize_scalar(value: Scalar) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, Quantity)):
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


# ---------------------------------------------------------------------- #
#  command line
# ---------------------------------------------------------------------- #

def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of the command line: the same grammar and the
    same fields per command as ``cli._parse_args``."""
    parser = argparse.ArgumentParser(
        prog="cropgate",
        description="Cradle-to-farm-gate economics, carbon footprint and "
                    "primary energy accounting for crop alternatives.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(cmd, factors=True):
        cmd.add_argument("--farm", required=True, help="farm description file")
        if factors:
            cmd.add_argument("--factors",
                             help="characterization factor file (default: the "
                                  "farm's own 'factors' reference)")
            cmd.add_argument("--crop", action="append",
                             help="crop name (repeatable where two are valid)")
            cmd.add_argument("--cutoff-missing", action="store_true",
                             dest="cutoff_missing",
                             help="missing factor records count zero instead "
                                  "of failing")
            cmd.add_argument("--horizon", type=int,
                             help="amortization horizon in whole years, at "
                                  f"most {MAX_HORIZON_YEARS}")
        cmd.add_argument("--out", default=".", help="output directory")
        cmd.add_argument("--format", choices=("csv", "json"), default="csv",
                         help="csv writes tables plus JSON; json only JSON")

    validate = sub.add_parser("validate", help="parse and validate a farm file")
    validate.add_argument("--farm", required=True)

    assess = sub.add_parser("assess", help="full report for one crop")
    common(assess)

    compare = sub.add_parser("compare",
                             help="side-by-side report for two crops")
    common(compare)

    sweep = sub.add_parser("sweep",
                           help="farm income difference vs marginal share")
    sweep_shares_group = sweep.add_mutually_exclusive_group(required=True)
    sweep_shares_group.add_argument("--shares",
                                    help="comma-separated marginal shares "
                                         "(plain numbers or a/b fractions)")
    sweep_shares_group.add_argument("--range",
                                    help="start:stop:step share range")
    common(sweep, factors=False)

    return parser
