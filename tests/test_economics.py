"""Gross margins, whole-farm income, and the marginal-share sweep."""

import math

import pytest
from hypothesis import given, strategies as st

from cropgate import CropgateError
from cropgate.economics import crop_balance, farm_income, marginal_share_sweep
from cropgate.farmspec import LandClass

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
            if crop.land_class is LandClass.MARGINAL}
        stripped = farm_model._replace(
            crops=only_marginal, total_area_ha=farm_model.marginal_area_ha)
        with pytest.raises(ValueError):
            marginal_share_sweep(stripped, [0.5])
