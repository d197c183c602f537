"""Gross margins per crop and income for the whole holding.

All money stays in EUR at full double precision; reports round when they
print, never earlier. Sales come from yields times selling prices unless the
crop carries an invoice-averaged total (multi-year averages of separately
rounded yields and prices do not multiply back to the invoiced turnover).
"""

from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import NamedTuple

from . import CropgateError, horizon_problem
from .farmspec import CropPlan, FarmModel

__all__ = ["EconomicBalance", "FarmIncome", "SweepPoint", "crop_balance",
           "farm_income", "farm_incomes", "marginal_share_sweep"]


@dataclass(frozen=True)
class EconomicBalance:
    """Annual gross margin of one crop, every amount in EUR/ha."""
    crop_name: str
    seed_cost: float
    herbicide_cost: float
    fertilizer_cost: float
    machinery_labor_cost: float
    total_cost: float
    grain_sales: float
    straw_sales: float
    total_sales: float
    balance_without_cap: float
    balance_with_cap: float


def crop_balance(crop: CropPlan, cap_aid_eur_ha: float,
                 horizon_years: float) -> EconomicBalance:
    """Annual gross margin of one crop in EUR/ha.

    One-off establishment costs are spread over the amortization horizon.
    The balance identities hold exactly: total cost is the sum of the four
    components, and the with-aid balance is the without-aid balance plus aid.
    """
    if problem := horizon_problem(horizon_years):
        raise CropgateError(f"amortization horizon {problem}")
    costs = crop.costs
    seed = costs.seed + costs.seed_establishment / horizon_years
    herbicide = costs.herbicide + costs.herbicide_establishment / horizon_years
    fertilizer = costs.fertilizer + costs.fertilizer_establishment / horizon_years
    machinery = (costs.machinery_labor
                 + costs.machinery_labor_establishment / horizon_years)
    total_cost = seed + herbicide + fertilizer + machinery

    grain_sales = (crop.grain_yield_mg_ha * crop.grain_price
                   if crop.grain_yield_mg_ha and crop.grain_price is not None
                   else 0.0)
    straw_sales = (crop.straw_yield_mg_ha * crop.straw_price
                   if crop.straw_yield_mg_ha and crop.straw_price is not None
                   else 0.0)
    total_sales = (crop.sales_override if crop.sales_override is not None
                   else grain_sales + straw_sales)

    without_cap = total_sales - total_cost
    return EconomicBalance(
        crop_name=crop.name, seed_cost=seed, herbicide_cost=herbicide,
        fertilizer_cost=fertilizer, machinery_labor_cost=machinery,
        total_cost=total_cost, grain_sales=grain_sales,
        straw_sales=straw_sales, total_sales=total_sales,
        balance_without_cap=without_cap,
        balance_with_cap=without_cap + cap_aid_eur_ha)


class FarmIncome(NamedTuple):
    marginal_choice: str
    total_eur: float
    by_crop: dict[str, tuple[float, float]]  # name -> (area ha, balance w/ aid)


def _covered(model: FarmModel, choices: tuple[str, ...] = (),
             ) -> dict[str, tuple[float, float]]:
    """Name -> (area ha, balance with aid) in model order for the crops a
    whole-farm total covers: the non-marginal ones, plus the marginal
    choices given."""
    return {crop.name: (crop.area_ha, crop_balance(
                crop, model.cap_aid_eur_ha,
                model.amortization_horizon_years).balance_with_cap)
            for crop in model.crops.values()
            if crop.land_class != "marginal" or crop.name in choices}


def farm_incomes(model: FarmModel, choices: tuple[str, ...],
                 ) -> tuple[FarmIncome, ...]:
    """Whole-farm income with the marginal land planted to each choice in
    turn, from one balance per crop."""
    for choice in choices:
        if model.crop(choice).land_class != "marginal":
            raise CropgateError(f"{choice!r} is not a marginal-land crop")
    covered = _covered(model, choices)
    incomes = []
    for choice in choices:
        by_crop = {name: entry for name, entry in covered.items()
                   if name == choice or name not in choices}
        # a left fold in model order, as in impact.characterize
        total = reduce(add, (ha * eur for ha, eur in by_crop.values()), 0.0)
        incomes.append(FarmIncome(choice, total, by_crop))
    return tuple(incomes)


def farm_income(model: FarmModel, marginal_choice: str) -> FarmIncome:
    """Whole-farm income with the marginal land planted to one alternative."""
    return farm_incomes(model, (marginal_choice,))[0]


class SweepPoint(NamedTuple):
    share: float
    income_first: float   # marginal pair, first crop
    income_second: float  # marginal pair, second crop
    relative_difference: float  # (first - second) / second


def marginal_share_sweep(model: FarmModel,
                         shares: list[float]) -> list[SweepPoint]:
    """Farm income difference between the two alternatives as the marginal
    share of the holding grows.

    For a share s the marginal area becomes s times the total and the rest
    of the crop mix (fallow included) is scaled proportionally to fill the
    remainder; per-hectare balances stay as they are.
    """
    if not shares:
        raise CropgateError("sweep needs at least one marginal share")
    first_name, second_name = model.marginal_pair
    fixed = _covered(model).values()
    fixed_area = reduce(add, (area for area, _ in fixed), 0.0)
    if fixed_area <= 0:
        raise CropgateError("no non-marginal crop mix to scale")
    base = reduce(add, (area * balance for area, balance in fixed), 0.0)
    balances = {
        name: crop_balance(model.crop(name), model.cap_aid_eur_ha,
                           model.amortization_horizon_years).balance_with_cap
        for name in (first_name, second_name)}

    points = []
    for share in shares:
        if not 0.0 <= share <= 1.0:
            raise CropgateError(f"marginal share {share!r} outside [0, 1]")
        marginal_area = share * model.total_area_ha
        scale = (model.total_area_ha - marginal_area) / fixed_area
        income_first = base * scale + marginal_area * balances[first_name]
        income_second = base * scale + marginal_area * balances[second_name]
        if income_second == 0.0:
            raise CropgateError(
                f"farm income with {second_name!r} is zero at marginal share "
                f"{share!r}; the relative difference is undefined")
        points.append(SweepPoint(
            share=share, income_first=income_first,
            income_second=income_second,
            relative_difference=(income_first - income_second) / income_second))
    return points
