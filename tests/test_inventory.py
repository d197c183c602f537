"""Inventory assembly: spreading, the seed chain, and flow tagging."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import _cultivation_flows, amount, by_phase, seed_inventory
from cropgate import GASES
from cropgate.factors import DEFAULT_EXHAUST, DEFAULT_GAS_GWP
from cropgate.farmspec import (MACHINERY_FLOWS, SEED_CHAIN_FLOWS, ProductSpec,
                               parse_farm_document)
from cropgate.inventory import (Flow, Inventory, InventoryError, Phase,
                                SeedRecursionError, annualize_schedule,
                                build_lci)
from cropgate.units import Quantity, UnitError, parse_quantity


def seed_farm(dose: float, seed_yield: float,
              establishment: bool = False) -> str:
    stand = ("perennial = true\nlife_span = 5 y\n"
             "sowing_timing = establishment\nbase_timing = establishment\n"
             if establishment else "")
    return f"""
[farm]
name = "seed farm"
total_area = 10 ha
marginal_area = 10 ha
marginal_pair = a, b

[prices]
a_grain = 100 EUR/Mg

[product.fert]
kind = fertilizer
label = "10-10-10"

[product.herb]
kind = herbicide
active_fraction = 50 percent

[crop.a]
land_class = marginal
{stand}sowing_dose = {dose} Mg/ha
seed_source = own
seed_yield = {seed_yield} Mg/ha
base_product = fert
base_dose = 0.2 Mg/ha
grain_yield = 1.5 Mg/ha
soc_equilibrium = true

[crop.a.herbicide.herb]
dose = 1 L/ha

[crop.a.op.works]
diesel = 2 L/ha
tractor = 0.002 Mg/ha

[crop.a.costs]
seed = 1 EUR/ha

[crop.b]
land_class = marginal
soc_equilibrium = true
"""


class TestSpreading:
    def test_establishment_inputs_divided_by_horizon(self, farm_model):
        twg = farm_model.crop("tall_wheatgrass")
        ann = annualize_schedule(twg, 4)
        assert ann.sowing_dose_mg_ha == pytest.approx(0.02 / 4)
        doses = dict(ann.fertilizations)
        assert doses["npk_8_24_8"] == pytest.approx(0.30 / 4)
        assert doses["can_27"] == pytest.approx(0.15)  # recurrent, untouched
        herb = {pid: (dose, liquid) for pid, dose, liquid in ann.herbicides}
        assert herb["d24_acid"] == (pytest.approx(1.0 / 4), True)  # L/ha

    def test_recurrent_crop_passes_through(self, farm_model):
        rye = farm_model.crop("rye")
        ann = annualize_schedule(rye, 4)
        assert ann.sowing_dose_mg_ha == 0.15
        assert ann.diesel_l_ha == 55.39

    @pytest.mark.parametrize("horizon", [4, 2.5, 3])
    def test_doubling_the_horizon_halves_establishment_flows_only(
            self, farm_model, factor_db, horizon):
        """The inventory is linear in 1/horizon for establishment-only
        inputs: doubling the horizon halves those flows bit for bit, as
        dividing by 2 is exact, and leaves every other flow as it was."""
        twg = farm_model.crop("tall_wheatgrass")
        before, after = (build_lci(
            twg, farm_model._replace(amortization_horizon_years=years),
            factor_db).flows for years in (horizon, 2 * horizon))
        one_off = ("seed_tall_wheatgrass", "npk_8_24_8", "d24_acid")
        assert [(f.flow_id, f.phase, f.amount.unit) for f in after] \
            == [(f.flow_id, f.phase, f.amount.unit) for f in before]
        assert set(one_off) <= {f.flow_id for f in before}
        for old, new in zip(before, after):
            halves = old.flow_id in one_off
            assert new.amount.value == (old.amount.value / 2 if halves
                                        else old.amount.value), old.flow_id

    def test_horizon_below_one_rejected(self, farm_model):
        with pytest.raises(InventoryError):
            annualize_schedule(farm_model.crop("tall_wheatgrass"), 0)

    @pytest.mark.parametrize("horizon", [10**400, math.inf, math.nan],
                             ids=["int_beyond_float", "inf", "nan"])
    def test_horizon_not_finite_rejected(self, farm_model, factor_db,
                                         horizon):
        twg = farm_model.crop("tall_wheatgrass")
        bound = ("at least 1 year" if horizon is math.nan
                 else "at most 1000 years")
        message = f"^amortization horizon must be {bound}$"
        with pytest.raises(InventoryError, match=message):
            annualize_schedule(twg, horizon)
        with pytest.raises(InventoryError, match=message):
            build_lci(twg, farm_model._replace(
                amortization_horizon_years=horizon), factor_db)

    @given(one_off=st.floats(0, 1e6, allow_nan=False),
           yearly=st.floats(0, 1e6, allow_nan=False),
           horizon=st.integers(1, 40))
    def test_conservation(self, one_off, yearly, horizon, farm_model):
        """Annualized establishment rates times the horizon restore the
        one-off totals; recurrent entries never change."""
        base = farm_model.crop("tall_wheatgrass")
        crop = base._replace(
            sowing_dose_mg_ha=one_off, sowing_timing="establishment",
            fertilizations=(
                base.fertilizations[0]._replace(dose_mg_ha=one_off,
                                                timing="establishment"),
                base.fertilizations[1]._replace(dose_mg_ha=yearly,
                                                timing="recurrent"),
            ))
        ann = annualize_schedule(crop, horizon)
        assert ann.sowing_dose_mg_ha * horizon == pytest.approx(one_off)
        doses = dict(ann.fertilizations)
        assert doses["npk_8_24_8"] * horizon == pytest.approx(one_off)
        assert doses["can_27"] == yearly


class TestSeedChain:
    @pytest.mark.parametrize("ratio", [0.01, 0.1, 0.5, 0.9])
    def test_fixed_point_matches_geometric_closed_form(self, ratio):
        seed_yield = 1.5
        dose = ratio * seed_yield
        model = parse_farm_document(seed_farm(dose, seed_yield))
        crop = model.crop("a")
        vector = seed_inventory(crop, model)

        ann = annualize_schedule(crop, model.amortization_horizon_years)
        cultivation = _cultivation_flows(crop, model, ann, DEFAULT_EXHAUST)

        geometric = 1.0 / (1.0 - ratio)
        for flow_id, amount in cultivation.items():
            expected = (amount.value / seed_yield) * geometric
            assert abs(vector[flow_id].value - expected) < 1e-9, flow_id
        for flow_id in SEED_CHAIN_FLOWS:
            assert abs(vector[flow_id].value - geometric) < 1e-9, flow_id

    def test_divergent_dose_rejected(self):
        model = parse_farm_document(seed_farm(1.5, 1.5))
        with pytest.raises(SeedRecursionError) as err:
            seed_inventory(model.crop("a"), model)
        assert "diverges" in str(err.value)

    def test_missing_seed_yield_rejected(self):
        model = parse_farm_document(seed_farm(0.1, 1.5))
        crop = model.crop("a")._replace(seed_yield_mg_ha=None)
        with pytest.raises(SeedRecursionError):
            seed_inventory(crop, model)

    def test_one_level_truncation_drops_higher_orders(self):
        model = parse_farm_document(seed_farm(0.75, 1.5))  # r = 0.5
        crop = model.crop("a")
        full = seed_inventory(crop, model)
        truncated = seed_inventory(crop, model, one_level=True)
        for flow_id in SEED_CHAIN_FLOWS:
            assert truncated[flow_id].value == pytest.approx(1.0)
            assert full[flow_id].value == pytest.approx(2.0)  # 1/(1-0.5)
        # cultivation flows: truncation keeps c/Y only
        assert truncated["diesel"].value * 2.0 \
            == pytest.approx(full["diesel"].value)

    def test_ratio_near_one_matches_closed_form(self):
        seed_yield = 1.5
        model = parse_farm_document(seed_farm(0.999 * seed_yield, seed_yield))
        crop = model.crop("a")
        vector = seed_inventory(crop, model)

        ann = annualize_schedule(crop, model.amortization_horizon_years)
        cultivation = _cultivation_flows(crop, model, ann, DEFAULT_EXHAUST)
        dose = crop.sowing_dose_mg_ha
        ratio = dose / seed_yield
        assert ratio == pytest.approx(0.999)
        for flow_id, amount in cultivation.items():
            expected = (amount.value / seed_yield) / (1.0 - ratio)
            assert vector[flow_id].value == pytest.approx(expected, rel=1e-12)
            # x = (c + dose * x) / Y + p, with p = 0 off the chain flows
            recursive = (amount.value + dose * vector[flow_id].value) \
                / seed_yield
            assert vector[flow_id].value == pytest.approx(recursive,
                                                          rel=1e-12)
        for flow_id in SEED_CHAIN_FLOWS:
            assert vector[flow_id].value == pytest.approx(
                1.0 / (1.0 - ratio), rel=1e-12)

    @pytest.mark.parametrize("gap", [1e-3, 1e-6, 1e-9, 1e-12])
    def test_ratio_near_one_against_exact_rationals(self, gap):
        """The multiplier 1/(1 - r) and the flows x = (c/Y + p)/(1 - r)
        against their exact values from the parsed floats. Rounding D/Y
        and 1 - D/Y leaves 1 - r off by a few units of 2**-53, so the
        multiplier stays within 4 * 2**-53 / (1 - r), relative; the flows
        may add three roundings: c/Y, + p and the division."""
        seed_yield = 1.5
        model = parse_farm_document(seed_farm((1 - gap) * seed_yield,
                                              seed_yield))
        crop = model.crop("a")
        dose, yield_mg = (Fraction(crop.sowing_dose_mg_ha),
                          Fraction(crop.seed_yield_mg_ha))
        multiplier = yield_mg / (yield_mg - dose)
        assert float(1 / multiplier) == pytest.approx(gap, rel=1e-4)
        ulp = Fraction(1, 2**53)
        ann = annualize_schedule(crop, model.amortization_horizon_years)
        cultivation = _cultivation_flows(crop, model, ann, DEFAULT_EXHAUST)
        vector = seed_inventory(crop, model)
        assert set(vector) == set(cultivation) | set(SEED_CHAIN_FLOWS)
        for flow_id in SEED_CHAIN_FLOWS:  # grown on no cultivation flow
            assert flow_id not in cultivation
            error = abs(Fraction(vector[flow_id].value) - multiplier)
            assert error / multiplier <= 4 * ulp * multiplier, flow_id
        for flow_id, amount in cultivation.items():
            exact = Fraction(amount.value) / yield_mg * multiplier
            error = abs(Fraction(vector[flow_id].value) - exact)
            assert error / exact <= (4 * multiplier + 3) * ulp, flow_id

    @pytest.mark.parametrize("ratio", [1.0, 1.2])
    def test_ratio_at_or_above_one_diverges(self, ratio, factor_db):
        model = parse_farm_document(seed_farm(ratio * 1.5, 1.5))
        with pytest.raises(SeedRecursionError) as err:
            build_lci(model.crop("a"), model, factor_db)
        assert "diverges" in str(err.value)


    def test_repeated_flow_id_is_one_seed_flow(self, farm_path, factor_db):
        """Rye top-dressed with its base product: two fertilizer flows of
        one id make one seed-chain flow of their sum."""
        with open(farm_path, encoding="utf-8") as handle:
            head, rye = handle.read().split("[crop.rye]\n")
        model = parse_farm_document(head + "[crop.rye]\n" + rye.replace(
            "top_product = can_27", "top_product = npk_8_24_8", 1))
        flows = build_lci(model.crop("rye"), model, factor_db).flows
        assert [(f.flow_id, f.amount.value) for f in flows
                if f.phase is Phase.FERTILIZER] == [("npk_8_24_8", 0.2),
                                                    ("npk_8_24_8", 0.15)]
        seed = [f.amount.value for f in flows
                if f.phase is Phase.SEED and f.flow_id == "npk_8_24_8"]
        assert seed == [pytest.approx(
            (0.20 + 0.15) / 1.50 / (1 - 0.15 / 1.50) * 0.15)]


class TestReservedFlows:
    """Each reserved flow id has one spelling: the gases in ``GASES``, the
    machinery flows in ``farmspec.MACHINERY_FLOWS``."""

    def test_exhaust_keys_follow_the_gas_order(self):
        # the inventory emits the exhaust gases in the key order of the
        # factor mapping, which the factor reader takes from DEFAULT_EXHAUST
        assert tuple(DEFAULT_EXHAUST) == tuple(DEFAULT_GAS_GWP) == GASES

    @pytest.mark.parametrize("key", list(MACHINERY_FLOWS))
    def test_each_machinery_key_is_one_field_works_flow(self, key,
                                                         factor_db):
        model = parse_farm_document(seed_farm(0.1, 1.5).replace(
            "diesel = 2 L/ha\ntractor = 0.002 Mg/ha", f"{key} = 0.003 Mg/ha"))
        lci = build_lci(model.crop("a"), model, factor_db)
        assert [(flow.flow_id, flow.amount.to("Mg"))
                for flow in by_phase(lci, Phase.FIELD_WORKS)] \
            == [(MACHINERY_FLOWS[key], 0.003)]


class TestBuildLci:
    def test_tall_wheatgrass_flows(self, farm_model, factor_db):
        lci = build_lci(farm_model.crop("tall_wheatgrass"), farm_model,
                        factor_db)
        assert amount(lci, "seed_tall_wheatgrass", Phase.SEED).to("Mg") \
            == pytest.approx(0.02 / 4)
        assert amount(lci, "npk_8_24_8", Phase.FERTILIZER).to("Mg") \
            == pytest.approx(0.075)
        assert amount(lci, "can_27", Phase.FERTILIZER).to("Mg") \
            == pytest.approx(0.15)
        # 1 L/ha over 4 years at 60% a.i.
        assert amount(lci, "d24_acid", Phase.PESTICIDE).to("kg") \
            == pytest.approx(0.15)
        assert amount(lci, "diesel", Phase.FIELD_WORKS).to("L") \
            == pytest.approx(31.95)
        # tailpipe CO2 rides with field works, not field emissions
        assert amount(lci, "co2", Phase.FIELD_WORKS).to("kg") \
            == pytest.approx(31.95 * 2.64)
        assert amount(lci, "n2o", Phase.FIELD_EMISSIONS).to("Mg") \
            == pytest.approx(0.000817)
        soc = amount(lci, "co2", Phase.SOC)
        assert soc.to("Mg") == pytest.approx(-2.805, abs=1e-9)

    def test_rye_flows(self, farm_model, factor_db):
        lci = build_lci(farm_model.crop("rye"), farm_model, factor_db)
        seed_flows = {f.flow_id for f in by_phase(lci, Phase.SEED)}
        for flow_id in SEED_CHAIN_FLOWS:
            assert flow_id in seed_flows  # own seed brings its chain along
        assert "npk_8_24_8" in seed_flows and "diesel" in seed_flows
        assert by_phase(lci, Phase.SOC) == []  # equilibrium crop
        assert amount(lci, "n2o", Phase.FIELD_EMISSIONS).to("Mg") \
            == pytest.approx(0.001757)
        for machine_flow in ("machinery_tractor", "machinery_harvester",
                             "machinery_tillage", "machinery_implement"):
            assert amount(lci, machine_flow, Phase.FIELD_WORKS) is not None

    def test_own_seed_scales_with_dose(self, farm_model, factor_db):
        rye = farm_model.crop("rye")
        lci = build_lci(rye, farm_model, factor_db)
        vector = seed_inventory(rye, farm_model, factor_db.exhaust)
        per_mg = vector["seed_processing"].value
        assert amount(lci, "seed_processing", Phase.SEED).to("Mg") \
            == pytest.approx(per_mg * 0.15)

    def test_horizon_override_rescales_establishment(self, farm_model,
                                                     factor_db):
        twg = farm_model.crop("tall_wheatgrass")
        lci8 = build_lci(twg, farm_model._replace(
            amortization_horizon_years=8), factor_db)
        assert amount(lci8, "seed_tall_wheatgrass", Phase.SEED).to("Mg") \
            == pytest.approx(0.02 / 8)

    def test_fractional_horizon_reaches_the_seed_chain(self, factor_db):
        model = parse_farm_document(seed_farm(0.6, 1.5, establishment=True))
        crop = model.crop("a")
        lci = build_lci(crop, model._replace(amortization_horizon_years=2.5),
                        factor_db)

        def seed_flows(horizon: float) -> dict[str, float]:
            ann = annualize_schedule(crop, horizon)
            dose = ann.sowing_dose_mg_ha
            per_mg = {flow_id: amount.value / 1.5 for flow_id, amount in
                      _cultivation_flows(crop, model, ann,
                                         factor_db.exhaust).items()}
            for flow_id in SEED_CHAIN_FLOWS:
                per_mg[flow_id] = per_mg.get(flow_id, 0.0) + 1.0
            return {flow_id: value / (1.0 - dose / 1.5) * dose
                    for flow_id, value in per_mg.items()}

        expected = seed_flows(2.5)
        got = {f.flow_id: f.amount.value for f in by_phase(lci, Phase.SEED)}
        assert set(got) == set(expected)
        for flow_id, value in expected.items():
            assert got[flow_id] == pytest.approx(value, rel=1e-12), flow_id
        truncated = seed_flows(2)
        assert got["diesel"] != pytest.approx(truncated["diesel"], rel=1e-3)

    def test_soil_pair_route(self, farm_model, factor_db):
        # strip the measured override so the stock pair drives the credit
        twg = farm_model.crop("tall_wheatgrass")._replace(
            soc_fixation_mg_c_ha=None)
        lci = build_lci(twg, farm_model, factor_db)
        credit = -amount(lci, "co2", Phase.SOC).to("Mg")
        assert credit == pytest.approx(0.7718 * 44.0 / 12.0, abs=1e-3)

    def test_missing_soil_series_noted(self, farm_model, factor_db):
        fallow = farm_model.crop("fallow")._replace(soc_equilibrium=False)
        lci = build_lci(fallow, farm_model, factor_db)
        assert by_phase(lci, Phase.SOC) == []
        assert any("no soil analysis pair" in note for note in lci.notes)

    def test_negative_amount_guard(self, farm_model, factor_db):
        twg = farm_model.crop("tall_wheatgrass")
        bad = twg._replace(herbicides=(twg.herbicides[0]._replace(
            dose=-1.0),))
        with pytest.raises(InventoryError):
            build_lci(bad, farm_model, factor_db)

    def test_inventory_amount_sums_across_phases(self, farm_model, factor_db):
        lci = build_lci(farm_model.crop("rye"), farm_model, factor_db)
        total = amount(lci, "diesel")
        field_only = amount(lci, "diesel", Phase.FIELD_WORKS)
        seed_only = amount(lci, "diesel", Phase.SEED)
        assert total.value == pytest.approx(field_only.value + seed_only.value)


@pytest.mark.parametrize("ratio", [None, 0.999])
def test_float_seed_chain_matches_quantity_arithmetic(farm_model, factor_db,
                                                      ratio):
    """The seed chain runs on floats; written with Quantity arithmetic in
    the order (c/Y [+ 1 Mg]) / (1 - r) * dose it gives the same bits."""
    crop = farm_model.crop("rye")
    if ratio is not None:
        crop = crop._replace(seed_yield_mg_ha=crop.sowing_dose_mg_ha / ratio)
    ann = annualize_schedule(crop, farm_model.amortization_horizon_years)
    one_level = {flow_id: amount / crop.seed_yield_mg_ha for flow_id, amount
                 in _cultivation_flows(crop, farm_model, ann,
                                       factor_db.exhaust).items()}
    per_mg = Quantity(*parse_quantity("1 Mg"))
    for flow_id in SEED_CHAIN_FLOWS:
        one_level[flow_id] = (one_level[flow_id] + per_mg
                              if flow_id in one_level else per_mg)
    one_minus_r = 1.0 - ann.sowing_dose_mg_ha / crop.seed_yield_mg_ha
    full = {flow_id: amount / one_minus_r
            for flow_id, amount in one_level.items()}
    for one, expected in ((True, one_level), (False, full)):
        assert repr(seed_inventory(crop, farm_model, factor_db.exhaust,
                                   one_level=one)) == repr(expected)
        seed = [flow for flow in build_lci(crop, farm_model, factor_db,
                                           seed_one_level=one).flows
                if flow.phase is Phase.SEED]
        assert repr(seed) == repr([
            Flow(flow_id, expected[flow_id] * ann.sowing_dose_mg_ha,
                 Phase.SEED) for flow_id in sorted(expected)])


@pytest.mark.parametrize("one_level", [False, True])
def test_every_flow_is_a_three_field_flow(farm_model, factor_db, one_level):
    """Flows are built with tuple.__new__, which skips the arity check of
    Flow(...): each one still has its three fields and their types."""
    for crop in farm_model.crops.values():
        for flow in build_lci(crop, farm_model, factor_db,
                              seed_one_level=one_level).flows:
            assert type(flow) is Flow and len(flow) == 3, flow
            assert type(flow.flow_id) is str, flow
            assert type(flow.amount) is Quantity, flow
            assert type(flow.phase) is Phase, flow


def test_seed_vector_adds_only_flows_of_one_unit(farm_model, factor_db):
    """A model built in code, where farm files reject it: own-seed rye
    sprays a herbicide named diesel, whose mass meets the diesel volume in
    the seed vector."""
    rye = farm_model.crop("rye")
    herbicide = rye.herbicides[0]
    share = farm_model.products[herbicide.product_id].active_fraction
    model = farm_model._replace(
        products={**farm_model.products, "diesel": ProductSpec(
            "diesel", "herbicide", active_fraction=share)},
        crops={**farm_model.crops, "rye": rye._replace(
            herbicides=(herbicide._replace(product_id="diesel"),))})
    with pytest.raises(UnitError) as err:
        build_lci(model.crop("rye"), model, factor_db)
    assert str(err.value) == "cannot add Mg and L"
