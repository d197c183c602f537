"""One-call crop assessments: economics, inventory, and both impact views.

This is the layer the command line, the demo scripts, and most tests talk
to. It loads the two input files, wires the farm model to the factor
database, and bundles everything a report needs into plain result objects.
"""

import os
from dataclasses import dataclass
from typing import NamedTuple

from . import CropgateError
from .economics import (EconomicBalance, FarmIncome, crop_balance,
                        farm_incomes)
from .factors import FactorDB, load_factor_db
from .farmspec import FarmModel, parse_farm_document
from .impact import (EnergyBreakdown, GwpBreakdown, characterize,
                     phase_shares)
from .inventory import Inventory, Phase, build_lci
from .sections import read_text

__all__ = [
    "CropAssessment", "PairComparison", "assess_crop", "compare_pair",
    "load_farm", "load_factors", "resolve_factors_path", "bundled_data_path",
]

@dataclass(frozen=True)
class CropAssessment:
    crop_name: str
    economics: EconomicBalance
    inventory: Inventory
    gwp: GwpBreakdown
    energy: EnergyBreakdown
    gwp_shares: dict[Phase, float]     # % of the positive total
    energy_shares: dict[Phase, float]  # % of total primary energy
    notes: tuple[str, ...]


class PairComparison(NamedTuple):
    """Side-by-side view of the two marginal-land alternatives."""
    first: CropAssessment
    second: CropAssessment
    income_first: FarmIncome
    income_second: FarmIncome
    margin_difference_eur_ha: float  # with-aid balances, first minus second
    verdicts: dict[str, str]  # metric -> winning crop name (or "tie")


def assess_crop(model: FarmModel, db: FactorDB, crop_name: str, *,
                cutoff_missing: bool = False) -> CropAssessment:
    """Everything about one crop, per hectare and year."""
    crop = model.crop(crop_name)
    economics = crop_balance(crop, model.cap_aid_eur_ha,
                             model.amortization_horizon_years)
    inventory = build_lci(crop, model, db)
    gwp, energy = characterize(inventory, db, cutoff_missing=cutoff_missing)
    notes = inventory.notes + tuple([
        f"flow {flow_id!r} has no factor record; cut off at zero burden"
        for flow_id in gwp.missing])
    return CropAssessment(
        crop_name=crop_name, economics=economics, inventory=inventory,
        gwp=gwp, energy=energy,
        gwp_shares=phase_shares(gwp) if gwp.positive_total else {},
        energy_shares=phase_shares(energy) if energy.total else {},
        notes=notes)


def _verdicts(first: CropAssessment, second: CropAssessment) -> dict[str, str]:
    def best(metric: str, value_first: float, value_second: float,
             lower_wins: bool) -> tuple[str, str]:
        if value_first == value_second:
            return metric, "tie"
        better_first = (value_first < value_second) == lower_wins
        return metric, first.crop_name if better_first else second.crop_name

    return dict([
        best("profit_margin", first.economics.balance_with_cap,
             second.economics.balance_with_cap, lower_wins=False),
        best("net_gwp", first.gwp.net_total, second.gwp.net_total,
             lower_wins=True),
        best("primary_energy", first.energy.total, second.energy.total,
             lower_wins=True),
    ])


def compare_pair(model: FarmModel, db: FactorDB,
                 first_name: str | None = None,
                 second_name: str | None = None, *,
                 cutoff_missing: bool = False) -> PairComparison:
    """Compare two marginal-land alternatives; defaults to the farm's pair."""
    if first_name is None and second_name is None:
        first_name, second_name = model.marginal_pair
    if first_name is None or second_name is None:
        raise CropgateError("compare needs either no crop names or both")
    if first_name == second_name:
        raise CropgateError(f"cannot compare crop {first_name!r} with itself")
    first = assess_crop(model, db, first_name, cutoff_missing=cutoff_missing)
    second = assess_crop(model, db, second_name, cutoff_missing=cutoff_missing)
    income_first, income_second = farm_incomes(model, (first_name, second_name))
    return PairComparison(
        first=first, second=second,
        income_first=income_first, income_second=income_second,
        margin_difference_eur_ha=(first.economics.balance_with_cap
                                  - second.economics.balance_with_cap),
        verdicts=_verdicts(first, second))


# ---------------------------------------------------------------------- #
#  input loading
# ---------------------------------------------------------------------- #

def load_farm(path: str | os.PathLike, inputs: dict | None = None) -> FarmModel:
    return parse_farm_document(read_text(path, inputs))


def load_factors(path: str | os.PathLike, inputs: dict | None = None) -> FactorDB:
    return load_factor_db(read_text(path, inputs))


def resolve_factors_path(farm_path: str | os.PathLike, model: FarmModel,
                         explicit: str | None = None) -> str:
    """Factor file to use: an explicit path wins, then the farm's own
    ``factors`` reference resolved next to the farm file."""
    if explicit:
        return explicit
    if model.factors_ref:
        return os.path.join(os.path.dirname(os.fspath(farm_path)),
                            model.factors_ref)
    raise FileNotFoundError(
        "no factor file: pass one explicitly or set farm.factors")


def bundled_data_path(name: str) -> str:
    """Filesystem path of a data file shipped with the package."""
    return os.path.join(os.path.dirname(__file__), "data", name)
