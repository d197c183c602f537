"""Gross margins, whole-farm income, and the marginal-share sweep."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cropgate import CropgateError
from cropgate.economics import crop_balance, farm_income, marginal_share_sweep
from cropgate.farmspec import parse_farm_document

money = st.floats(0, 1e6, allow_nan=False)


class TestCropBalance:
    def test_rye_margin(self, farm_model):
        bal = crop_balance(farm_model.crop("rye"), 165.0, 4)
        assert bal.seed_cost == pytest.approx(31.00)
        assert bal.herbicide_cost == pytest.approx(5.50)
        assert bal.fertilizer_cost == pytest.approx(103.80)
        assert bal.machinery_labor_cost == pytest.approx(164.50)
        assert bal.total_cost == pytest.approx(304.80)
        assert bal.grain_sales == pytest.approx(1.50 * 158.69)
        assert bal.straw_sales == pytest.approx(1.07 * 43.83)
        assert bal.total_sales == pytest.approx(284.9331)
        assert bal.balance_without_cap == pytest.approx(-19.8669)
        assert bal.balance_with_cap == pytest.approx(145.1331)

    def test_tall_wheatgrass_margin(self, farm_model):
        bal = crop_balance(farm_model.crop("tall_wheatgrass"), 165.0, 4)
        assert bal.total_cost == pytest.approx(249.88)
        assert bal.grain_sales == 0.0
        assert bal.straw_sales == pytest.approx(5.50 * 43.83)
        assert bal.balance_without_cap == pytest.approx(-8.815)
        assert bal.balance_with_cap == pytest.approx(156.185)

    def test_invoice_averaged_sales_override(self, farm_model):
        bal = crop_balance(farm_model.crop("barley"), 165.0, 4)
        # yields times prices would give 583.851; the invoiced average wins
        assert bal.total_sales == pytest.approx(583.69)
        assert bal.grain_sales == pytest.approx(3.11 * 161.52)
        assert bal.straw_sales == pytest.approx(1.86 * 43.83)

    def test_establishment_costs_spread_over_horizon(self, farm_model):
        rye = farm_model.crop("rye")
        crop = rye._replace(costs=rye.costs._replace(
            seed_establishment=40.0, machinery_labor_establishment=8.0))
        bal = crop_balance(crop, 0.0, 4)
        assert bal.seed_cost == pytest.approx(31.00 + 10.0)
        assert bal.machinery_labor_cost == pytest.approx(164.50 + 2.0)
        assert crop_balance(crop, 0.0, 8).seed_cost == pytest.approx(36.00)

    def test_horizon_below_one_rejected(self, farm_model):
        with pytest.raises(ValueError):
            crop_balance(farm_model.crop("rye"), 165.0, 0)

    @pytest.mark.parametrize("horizon", [10**400, math.inf, math.nan],
                             ids=["int_beyond_float", "inf", "nan"])
    def test_horizon_not_finite_rejected(self, farm_model, horizon):
        bound = ("at least 1 year" if horizon is math.nan
                 else "at most 1000 years")
        with pytest.raises(CropgateError,
                           match=f"^amortization horizon must be {bound}$"):
            crop_balance(farm_model.crop("rye"), 165.0, horizon)

    @given(seed=money, herbicide=money, fertilizer=money, machinery=money,
           aid=money)
    def test_identities_hold_exactly(self, seed, herbicide, fertilizer,
                                     machinery, aid, farm_model):
        rye = farm_model.crop("rye")
        crop = rye._replace(costs=rye.costs._replace(
            seed=seed, herbicide=herbicide, fertilizer=fertilizer,
            machinery_labor=machinery, seed_establishment=0.0,
            herbicide_establishment=0.0, fertilizer_establishment=0.0,
            machinery_labor_establishment=0.0))
        bal = crop_balance(crop, aid, 4)
        assert bal.total_cost == seed + herbicide + fertilizer + machinery
        assert bal.balance_with_cap == bal.balance_without_cap + aid
        assert bal.balance_without_cap == bal.total_sales - bal.total_cost


class TestFarmIncome:
    def test_income_with_tall_wheatgrass(self, farm_model):
        income = farm_income(farm_model, "tall_wheatgrass")
        assert income.total_eur == pytest.approx(94778.03, abs=0.01)
        assert "rye" not in income.by_crop
        assert set(income.by_crop) == {"wheat", "barley", "triticale",
                                       "sunflower", "fallow",
                                       "tall_wheatgrass"}
        area, balance = income.by_crop["tall_wheatgrass"]
        assert area == pytest.approx(40.0)
        assert balance == pytest.approx(156.185)

    def test_income_with_rye(self, farm_model):
        income = farm_income(farm_model, "rye")
        assert income.total_eur == pytest.approx(94335.95, abs=0.01)
        assert "tall_wheatgrass" not in income.by_crop

    def test_difference_is_area_times_margin_gap(self, farm_model):
        twg = farm_income(farm_model, "tall_wheatgrass").total_eur
        rye = farm_income(farm_model, "rye").total_eur
        assert twg - rye == pytest.approx(40.0 * (156.185 - 145.1331))

    def test_non_marginal_choice_rejected(self, farm_model):
        with pytest.raises(ValueError):
            farm_income(farm_model, "wheat")

    def test_unknown_crop_rejected(self, farm_model):
        with pytest.raises(KeyError):
            farm_income(farm_model, "switchgrass")


class TestShareSweep:
    def test_current_share_matches_income_totals(self, farm_model):
        share = 40.0 / 302.0
        point, = marginal_share_sweep(farm_model, [share])
        assert point.income_first == pytest.approx(
            farm_income(farm_model, "tall_wheatgrass").total_eur, rel=1e-9)
        assert point.income_second == pytest.approx(
            farm_income(farm_model, "rye").total_eur, rel=1e-9)
        assert point.relative_difference == pytest.approx(0.004686, abs=1e-6)

    def test_half_the_farm(self, farm_model):
        point, = marginal_share_sweep(farm_model, [0.5])
        assert point.relative_difference == pytest.approx(0.022880, abs=1e-6)

    def test_difference_grows_with_share(self, farm_model):
        shares = [i / 10 for i in range(1, 10)]
        points = marginal_share_sweep(farm_model, shares)
        diffs = [p.relative_difference for p in points]
        assert diffs == sorted(diffs)
        assert all(d > 0 for d in diffs)  # the grass wins at every share

    @pytest.mark.parametrize("share", [-0.1, 1.2])
    def test_share_outside_unit_interval_rejected(self, farm_model, share):
        with pytest.raises(ValueError):
            marginal_share_sweep(farm_model, [share])

    def test_no_fixed_mix_rejected(self, farm_model):
        only_marginal = {
            name: crop for name, crop in farm_model.crops.items()
            if crop.land_class == "marginal"}
        stripped = farm_model._replace(
            crops=only_marginal, total_area_ha=farm_model.marginal_area_ha)
        with pytest.raises(ValueError):
            marginal_share_sweep(stripped, [0.5])


# ---------------------------------------------------------------------- #
#  the money against exact references
# ---------------------------------------------------------------------- #

UNIT_ROUNDOFF = Fraction(1, 2 ** 53)


def gamma(n: int) -> Fraction:
    """Higham's gamma_n = n*u / (1 - n*u): a value computed through at most
    n roundings of binary64 arithmetic on exact inputs lies within gamma_n
    times the sum of the absolute values of its exact terms."""
    return n * UNIT_ROUNDOFF / (1 - n * UNIT_ROUNDOFF)


def exact_balance(crop, aid: float, horizon: float) -> dict:
    """Field -> (exact value, magnitude, roundings) of ``crop_balance``,
    from ``Fraction`` values of the parsed floats. The magnitude is the sum
    of the absolute exact terms, the roundings the longest chain of
    floating-point operations the engine applies: a component is one
    division and one addition, the cost total three additions more, a sale
    one product, the sales total one addition, each balance one more."""
    costs = {name: Fraction(value)
             for name, value in crop.costs._asdict().items()}
    out = {}
    for part in ("seed", "herbicide", "fertilizer", "machinery_labor"):
        annual = costs[part]
        spread = costs[f"{part}_establishment"] / Fraction(horizon)
        out[f"{part}_cost"] = (annual + spread, abs(annual) + abs(spread), 2)
    parts = [out[f"{part}_cost"] for part in
             ("seed", "herbicide", "fertilizer", "machinery_labor")]
    out["total_cost"] = (sum(p[0] for p in parts), sum(p[1] for p in parts), 5)
    for sale, yield_, price in (
            ("grain_sales", crop.grain_yield_mg_ha, crop.grain_price),
            ("straw_sales", crop.straw_yield_mg_ha, crop.straw_price)):
        value = (Fraction(yield_) * Fraction(price)
                 if yield_ and price is not None else Fraction(0))
        out[sale] = (value, abs(value), 1)
    if crop.sales_override is not None:
        out["total_sales"] = (Fraction(crop.sales_override),
                              abs(Fraction(crop.sales_override)), 0)
    else:
        grain, straw = out["grain_sales"], out["straw_sales"]
        out["total_sales"] = (grain[0] + straw[0], grain[1] + straw[1], 2)
    sales, cost = out["total_sales"], out["total_cost"]
    out["balance_without_cap"] = (sales[0] - cost[0], sales[1] + cost[1], 6)
    out["balance_with_cap"] = (sales[0] - cost[0] + Fraction(aid),
                               sales[1] + cost[1] + abs(Fraction(aid)), 7)
    return out


class TestExactMoney:
    """Each bundled crop's balance and both pair farm incomes, against the
    exact rational value of the same formula on the parsed floats."""

    def test_each_crop_balance_within_its_rounding_bound(self, farm_model):
        aid = farm_model.cap_aid_eur_ha
        horizon = farm_model.amortization_horizon_years
        assert len(farm_model.crops) == 7
        for crop in farm_model.crops.values():
            bal = crop_balance(crop, aid, horizon)
            # the identities hold exactly in floating point
            assert bal.total_cost == (bal.seed_cost + bal.herbicide_cost
                                      + bal.fertilizer_cost
                                      + bal.machinery_labor_cost)
            assert bal.total_sales == (
                crop.sales_override if crop.sales_override is not None
                else bal.grain_sales + bal.straw_sales)
            assert bal.balance_without_cap == bal.total_sales - bal.total_cost
            assert bal.balance_with_cap == bal.balance_without_cap + aid
            for field, (exact, magnitude, n) in exact_balance(
                    crop, aid, horizon).items():
                error = abs(Fraction(getattr(bal, field)) - exact)
                assert error <= gamma(n) * magnitude, (crop.name, field)

    @pytest.mark.parametrize("horizon", [1, 3, 7, 1000])
    def test_establishment_costs_within_their_rounding_bound(self, farm_path,
                                                             horizon):
        # the bundled farm has no establishment cost: add all four to one
        # crop, so each component divides by the horizon
        with open(farm_path, encoding="utf-8") as handle:
            text = handle.read().replace(
                "machinery_labor = 131.85 EUR/ha",
                "machinery_labor = 131.85 EUR/ha\n"
                "seed_establishment = 412.37 EUR/ha\n"
                "herbicide_establishment = 19.99 EUR/ha\n"
                "fertilizer_establishment = 250.13 EUR/ha\n"
                "machinery_labor_establishment = 78.61 EUR/ha", 1)
        model = parse_farm_document(text)
        crop = model.crop("tall_wheatgrass")
        assert all(crop.costs._asdict().values())
        bal = crop_balance(crop, model.cap_aid_eur_ha, horizon)
        for field, (exact, magnitude, n) in exact_balance(
                crop, model.cap_aid_eur_ha, horizon).items():
            error = abs(Fraction(getattr(bal, field)) - exact)
            assert error <= gamma(n) * magnitude, field

    def test_pair_farm_incomes_within_their_rounding_bound(self, farm_model):
        aid = farm_model.cap_aid_eur_ha
        horizon = farm_model.amortization_horizon_years
        for choice in farm_model.marginal_pair:
            income = farm_income(farm_model, choice)
            exact = magnitude = Fraction(0)
            for name, (area, balance) in income.by_crop.items():
                crop = farm_model.crop(name)
                assert area == crop.area_ha
                value, size, _ = exact_balance(crop, aid, horizon)[
                    "balance_with_cap"]
                exact += Fraction(area) * value
                magnitude += abs(Fraction(area)) * size
            # 7 roundings per balance, 1 per product, 1 per fold step
            n = 7 + 1 + len(income.by_crop) - 1
            assert abs(Fraction(income.total_eur) - exact) \
                <= gamma(n) * magnitude, choice
            assert set(income.by_crop) == {
                crop.name for crop in farm_model.crops.values()
                if crop.land_class != "marginal" or crop.name == choice}
