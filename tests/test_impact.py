"""Characterization oracles and linearity properties."""


import pytest
from hypothesis import given, strategies as st

from oracles import characterize_energy, characterize_gwp
from cropgate import GASES, units
from cropgate.factors import FactorDB, MissingFlowError, load_factor_db
from cropgate.impact import (ENERGY_PHASES, POSITIVE_PHASES, characterize,
                             phase_shares)
from cropgate.inventory import Flow, Inventory, Phase, build_lci
from cropgate.units import UnitError, parse_quantity


def sample_factors(scale: float = 1.0) -> str:
    def s(x: float) -> str:
        return repr(x * scale)

    return f"""
[flow.fert]
unit = Mg
gwp100 = {s(2000.0)}
pe_renewable = {s(100.0)}
pe_nonrenewable = {s(900.0)}

[flow.herb]
unit = kg
gwp100 = {s(7.0)}
pe_renewable = {s(5.0)}
pe_nonrenewable = {s(145.0)}

[flow.diesel]
unit = L
gwp100 = {s(3.0)}
pe_renewable = {s(0.5)}
pe_nonrenewable = {s(40.0)}

[gas.co2]
gwp100 = {s(1.0)}

[gas.ch4]
gwp100 = {s(30.5)}

[gas.n2o]
gwp100 = {s(265.0)}
"""


def flow(flow_id: str, text: str, phase: Phase) -> Flow:
    return Flow(flow_id, parse_quantity(text), phase)


SAMPLE_FLOWS = (
    flow("fert", "0.5 Mg", Phase.FERTILIZER),
    flow("herb", "0.2 kg", Phase.PESTICIDE),
    flow("diesel", "10 L", Phase.FIELD_WORKS),
    flow("co2", "26.4 kg", Phase.FIELD_WORKS),
    flow("n2o", "0.001 Mg", Phase.FIELD_EMISSIONS),
    flow("co2", "-1 Mg", Phase.SOC),
)


@pytest.fixture
def sample_db():
    return load_factor_db(sample_factors())


@pytest.fixture
def sample_inventory():
    return Inventory(crop_name="sample", flows=SAMPLE_FLOWS)


class TestGwp:
    def test_hand_computed_phases(self, sample_inventory, sample_db):
        gwp = characterize_gwp(sample_inventory, sample_db)
        assert gwp.by_phase[Phase.FERTILIZER] == pytest.approx(1.0)
        # 0.2 kg a.i. at 7 kg CO2e/kg
        assert gwp.by_phase[Phase.PESTICIDE] == pytest.approx(0.0014)
        # 10 L diesel upstream plus 26.4 kg tailpipe CO2
        assert gwp.by_phase[Phase.FIELD_WORKS] == pytest.approx(0.0564)
        # 1 kg N2O at GWP 265
        assert gwp.by_phase[Phase.FIELD_EMISSIONS] == pytest.approx(0.265)
        assert gwp.by_phase[Phase.SOC] == pytest.approx(-1.0)
        assert gwp.positive_total == pytest.approx(1.3228)
        assert gwp.net_total == pytest.approx(0.3228)

    def test_net_is_positive_plus_soc(self, sample_inventory, sample_db):
        gwp = characterize_gwp(sample_inventory, sample_db)
        assert gwp.net_total == gwp.positive_total + gwp.by_phase[Phase.SOC]

    def test_soc_flow_passes_through_unscaled(self, sample_db):
        inv = Inventory("s", (flow("co2", "-2.805 Mg", Phase.SOC),
                              flow("fert", "0.1 Mg", Phase.FERTILIZER)))
        gwp = characterize_gwp(inv, sample_db)
        assert gwp.by_phase[Phase.SOC] == pytest.approx(-2.805)
        assert gwp.net_total == pytest.approx(0.2 - 2.805)

    def test_shares_over_positive_phases_sum_to_100(self, sample_inventory,
                                                    sample_db):
        shares = phase_shares(characterize_gwp(sample_inventory, sample_db))
        assert set(shares) == set(POSITIVE_PHASES)
        assert sum(shares.values()) == pytest.approx(100.0, abs=1e-9)
        assert shares[Phase.FERTILIZER] == pytest.approx(1.0 / 1.3228 * 100)

    def test_shares_need_positive_total(self, sample_db):
        inv = Inventory("s", (flow("co2", "-1 Mg", Phase.SOC),))
        with pytest.raises(ValueError):
            phase_shares(characterize_gwp(inv, sample_db))


class TestEnergy:
    def test_hand_computed_phases(self, sample_inventory, sample_db):
        pe = characterize_energy(sample_inventory, sample_db)
        assert pe.renewable_by_phase[Phase.FERTILIZER] == pytest.approx(0.05)
        assert pe.nonrenewable_by_phase[Phase.FERTILIZER] == pytest.approx(0.45)
        assert pe.renewable_by_phase[Phase.FIELD_WORKS] == pytest.approx(0.005)
        assert pe.nonrenewable_by_phase[Phase.FIELD_WORKS] == pytest.approx(0.4)
        assert pe.renewable_total == pytest.approx(0.056)
        assert pe.nonrenewable_total == pytest.approx(0.879)
        assert pe.total == pytest.approx(0.935)

    def test_gases_and_soil_carbon_carry_no_energy(self, sample_db):
        inv = Inventory("s", (flow("n2o", "0.5 Mg", Phase.FIELD_EMISSIONS),
                              flow("co2", "-3 Mg", Phase.SOC),
                              flow("co2", "100 kg", Phase.FIELD_WORKS)))
        pe = characterize_energy(inv, sample_db)
        assert pe.total == 0.0
        with pytest.raises(ValueError):
            phase_shares(pe)

    def test_shares_over_total_sum_to_100(self, sample_inventory, sample_db):
        pe = characterize_energy(sample_inventory, sample_db)
        shares = phase_shares(pe)
        assert set(shares) == set(ENERGY_PHASES)
        assert sum(shares.values()) == pytest.approx(100.0, abs=1e-9)
        assert shares[Phase.FERTILIZER] == pytest.approx(0.5 / 0.935 * 100)


def test_a_flow_its_record_cannot_express_raises(farm_model, factor_db):
    """A record whose basis is a volume meets a fertilizer mass: the error
    of Quantity.to, with the record's unit text."""
    record = factor_db.records["npk_8_24_8"]
    db = FactorDB({**factor_db.records,
                   "npk_8_24_8": record._replace(unit="L")},
                  factor_db.gases, factor_db.emissions, factor_db.exhaust)
    lci = build_lci(farm_model.crop("tall_wheatgrass"), farm_model, db)
    with pytest.raises(UnitError) as err:
        characterize(lci, db)
    assert str(err.value) == "cannot express Mg in 'L'"


@pytest.mark.parametrize("litres,message", [
    (flow("n2o", "2 L", Phase.FIELD_EMISSIONS), "cannot express L in 'kg'"),
    (flow("co2", "2 L", Phase.SOC), "cannot express L in 'Mg'"),
], ids=["gas", "soil_carbon"])
def test_a_gas_or_soil_carbon_flow_in_litres_raises(litres, message,
                                                    sample_db):
    """A gas converts to kg and the soil-carbon flow to Mg, with the unit
    check and the error text of Quantity.to."""
    with pytest.raises(UnitError) as err:
        characterize(Inventory("s", (litres,)), sample_db)
    assert str(err.value) == message


class TestMissingFlows:
    def test_strict_lookup_raises_with_flow_name(self, sample_db):
        inv = Inventory("s", (flow("mystery_input", "1 Mg", Phase.SEED),))
        with pytest.raises(MissingFlowError) as err:
            characterize_gwp(inv, sample_db)
        assert "mystery_input" in str(err.value)
        with pytest.raises(MissingFlowError):
            characterize_energy(inv, sample_db)

    def test_cutoff_zeroes_and_reports(self, sample_db):
        inv = Inventory("s", (flow("mystery_input", "1 Mg", Phase.SEED),
                              flow("fert", "0.5 Mg", Phase.FERTILIZER)))
        gwp = characterize_gwp(inv, sample_db, cutoff_missing=True)
        assert gwp.missing == ("mystery_input",)
        assert gwp.by_phase[Phase.SEED] == 0.0
        assert gwp.positive_total == pytest.approx(1.0)
        pe = characterize_energy(inv, sample_db, cutoff_missing=True)
        assert pe.missing == ("mystery_input",)
        assert pe.total == pytest.approx(0.5)


class TestOnePass:
    def test_views_are_the_halves_of_one_pass(self, sample_inventory,
                                              sample_db):
        gwp, energy = characterize(sample_inventory, sample_db)
        assert gwp == characterize_gwp(sample_inventory, sample_db)
        assert energy == characterize_energy(sample_inventory, sample_db)

    def test_each_record_resolved_once(self, sample_inventory, sample_db,
                                       monkeypatch):
        resolved = []

        class CountingRecords(dict):
            def __getitem__(self, flow_id):
                resolved.append(flow_id)
                return super().__getitem__(flow_id)

            def get(self, flow_id, default=None):
                resolved.append(flow_id)
                return super().get(flow_id, default)

        monkeypatch.setattr(sample_db, "records",
                            CountingRecords(sample_db.records))
        characterize(sample_inventory, sample_db)
        # gases and the soil carbon flow need no record
        assert resolved == ["fert", "herb", "diesel"]

    def test_one_sorted_missing_tuple_for_both(self, sample_db):
        inv = Inventory("s", (flow("zeta", "1 Mg", Phase.SEED),
                              flow("alpha", "2 L", Phase.FIELD_WORKS),
                              flow("zeta", "3 Mg", Phase.SEED)))
        gwp, energy = characterize(inv, sample_db, cutoff_missing=True)
        assert gwp.missing == energy.missing == ("alpha", "zeta")


class TestLinearity:
    @given(st.integers(-6, 10))
    def test_factor_scaling_by_powers_of_two_is_exact(self, n):
        k = 2.0 ** n
        base = characterize_gwp(Inventory("s", SAMPLE_FLOWS),
                                load_factor_db(sample_factors()))
        scaled = characterize_gwp(Inventory("s", SAMPLE_FLOWS),
                                  load_factor_db(sample_factors(k)))
        # characterization is linear in the factors; the soil carbon flow is
        # a raw CO2 mass and must not scale
        assert scaled.positive_total == base.positive_total * k
        assert scaled.by_phase[Phase.SOC] == base.by_phase[Phase.SOC]
        pe_base = characterize_energy(Inventory("s", SAMPLE_FLOWS),
                                      load_factor_db(sample_factors()))
        pe_scaled = characterize_energy(Inventory("s", SAMPLE_FLOWS),
                                        load_factor_db(sample_factors(k)))
        assert pe_scaled.total == pe_base.total * k
        assert pe_scaled.renewable_total == pe_base.renewable_total * k

    @given(st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False))
    def test_amount_scaling_preserves_ranking(self, farm_model, factor_db, k):
        def scaled(crop_name):
            lci = build_lci(farm_model.crop(crop_name), farm_model, factor_db)
            flows = tuple(Flow(f.flow_id, f.amount * k, f.phase)
                          for f in lci.flows)
            return Inventory(lci.crop_name, flows)

        base_twg = characterize_gwp(
            build_lci(farm_model.crop("tall_wheatgrass"), farm_model,
                      factor_db), factor_db)
        base_rye = characterize_gwp(
            build_lci(farm_model.crop("rye"), farm_model, factor_db),
            factor_db)
        twg = characterize_gwp(scaled("tall_wheatgrass"), factor_db)
        rye = characterize_gwp(scaled("rye"), factor_db)
        assert twg.net_total == pytest.approx(base_twg.net_total * k,
                                              rel=1e-12)
        assert rye.net_total == pytest.approx(base_rye.net_total * k,
                                              rel=1e-12)
        # the lower-footprint crop stays the same under uniform rescaling
        assert (twg.net_total < rye.net_total) \
            == (base_twg.net_total < base_rye.net_total)


def left_fold(values):
    """``values`` added one by one from the left, as ``sum()`` added floats
    before Python 3.12 made it compensated."""
    total = 0.0
    for value in values:
        total += value
    return total


def plain_characterize(inventory, db, cutoff_missing):
    """The one pass written with per-phase dicts keyed by Phase and
    ``Quantity.to`` per flow: every sum in the same order."""
    kg, ren, non = ({phase: 0.0 for phase in Phase} for _ in range(3))
    soc_mg, missing = 0.0, set()
    for flow in inventory.flows:
        if flow.phase is Phase.SOC:
            soc_mg += flow.amount.to("Mg")
            continue
        if flow.flow_id in GASES:
            kg[flow.phase] += (flow.amount.to("kg")
                               * db.gases[flow.flow_id])
            continue
        record = (db.records.get(flow.flow_id) if cutoff_missing
                  else db.records[flow.flow_id])
        if record is None:
            missing.add(flow.flow_id)
            continue
        basis = flow.amount.to(record.unit)
        kg[flow.phase] += basis * record.gwp100
        ren[flow.phase] += basis * record.pe_renewable / 1000.0
        non[flow.phase] += basis * record.pe_nonrenewable / 1000.0
    by_phase = {phase: kg[phase] / 1000.0 for phase in Phase}
    by_phase[Phase.SOC] = soc_mg
    positive = left_fold(by_phase[phase] for phase in POSITIVE_PHASES)
    ren_total, non_total = left_fold(ren.values()), left_fold(non.values())
    cut = tuple(sorted(missing))
    return ((list(by_phase.items()), positive, positive + soc_mg, cut),
            (list(ren.items()), list(non.items()), ren_total, non_total,
             ren_total + non_total, cut))


def as_compared(gwp, energy):
    return ((list(gwp.by_phase.items()), gwp.positive_total, gwp.net_total,
             gwp.missing),
            (list(energy.renewable_by_phase.items()),
             list(energy.nonrenewable_by_phase.items()),
             energy.renewable_total, energy.nonrenewable_total, energy.total,
             energy.missing))


def fresh_db(db, *dropped):
    """A new database with the records of ``db`` but those ``dropped``."""
    return FactorDB({k: v for k, v in db.records.items() if k not in dropped},
                    dict(db.gases), dict(db.emissions), db.exhaust)


class TestExactness:
    """The index-accumulating pass gives the very floats of the plain one,
    whose totals are explicit left folds: the same bytes on every Python."""

    def check(self, inventory, db, cutoff_missing):
        got = as_compared(*characterize(inventory, db, cutoff_missing))
        expected = plain_characterize(inventory, db, cutoff_missing)
        # repr tells -0.0 from 0.0, which == does not
        assert got == expected and repr(got) == repr(expected)

    def test_every_bundled_crop(self, farm_model, factor_db):
        for name, crop in farm_model.crops.items():
            lci = build_lci(crop, farm_model, factor_db)
            for cutoff_missing in (False, True):
                self.check(lci, factor_db, cutoff_missing)

    @pytest.mark.parametrize("cutoff_missing", [False, True])
    def test_own_seed_at_r_0_999(self, farm_model, factor_db,
                                 cutoff_missing):
        rye = farm_model.crop("rye")
        crop = rye._replace(seed_yield_mg_ha=rye.sowing_dose_mg_ha / 0.999)
        lci = build_lci(crop, farm_model, factor_db)
        assert sum(flow.phase is Phase.SEED for flow in lci.flows) > 3
        db = fresh_db(factor_db, "diesel") if cutoff_missing else factor_db
        self.check(lci, db, cutoff_missing)
        if cutoff_missing:
            assert characterize(lci, db, True)[0].missing == ("diesel",)


def test_unit_parses_do_not_grow_with_the_flows(farm_model, factor_db,
                                                monkeypatch):
    """Doubling the flows must not add unit parses: ``units.parse_unit``
    memoizes each unit text, so the ``Quantity.to`` of every flow parses
    each basis text once however many flows convert to it."""
    lci = build_lci(farm_model.crop("rye"), farm_model, factor_db)
    parsed = []
    original = units._parse_unit
    monkeypatch.setattr(units, "_parse_unit",
                        lambda text: parsed.append(text) or original(text))
    counts = []
    for flows in (lci.flows, lci.flows * 2):
        monkeypatch.setattr(units, "_UNIT_CACHE", {})
        parsed.clear()
        characterize(Inventory(lci.crop_name, flows), factor_db)
        counts.append(len(parsed))
    assert 0 < counts[1] <= counts[0] < len(lci.flows)
