"""Acceptance suite: the numbered end-to-end checks this package must pass.

One test per criterion, each printing a single PASS line with the headline
numbers, so `pytest -v` reads as a checklist. Reference values are the
invoice-averaged holding records and the calibrated factor set shipped in
cropgate/data/; tolerances are pinned next to each assertion.
"""

import random

import pytest

from oracles import (_cultivation_flows, amount, characterize_energy,
                     characterize_gwp, seed_inventory, serialize_document)
from test_inventory import seed_farm

from cropgate.assess import assess_crop
from cropgate.economics import crop_balance, farm_income, marginal_share_sweep
from cropgate.factors import DEFAULT_EXHAUST, load_factor_db
from cropgate.farmspec import SEED_CHAIN_FLOWS, Timing, parse_farm_document
from cropgate.inventory import (CO2_PER_C, Phase, annualize_schedule,
                                build_lci, soc_annual_change, soc_co2_credit,
                                soc_stock)
from cropgate.reports import build_manifest, write_assessment
from cropgate.sections import parse_document
from cropgate.units import parse_quantity

# annual per-ha reference figures for the holding's seven crops:
# (sales EUR/ha, sales tolerance)
REFERENCE_SALES = {
    "wheat": (679.13, 1.0),
    "barley": (583.68, 1.0),
    "triticale": (466.09, 1.0),
    "sunflower": (367.33, 1.0),
    "fallow": (0.0, 1.0),
    "rye": (284.93, 0.05),
    "tall_wheatgrass": (241.07, 0.05),
}


def test_criterion_1_crop_margin_table(farm_model):
    for name, (reference_sales, tolerance) in REFERENCE_SALES.items():
        bal = crop_balance(farm_model.crop(name), 165.0, 4)
        # the identities must hold exactly, not within tolerance
        assert bal.total_cost == (bal.seed_cost + bal.herbicide_cost
                                  + bal.fertilizer_cost
                                  + bal.machinery_labor_cost), name
        assert bal.balance_without_cap == bal.total_sales - bal.total_cost, name
        assert bal.balance_with_cap == bal.balance_without_cap + 165.0, name
        # yields times prices against the invoice-averaged totals
        assert bal.grain_sales + bal.straw_sales \
            == pytest.approx(reference_sales, abs=tolerance), name
    rye = crop_balance(farm_model.crop("rye"), 165.0, 4)
    twg = crop_balance(farm_model.crop("tall_wheatgrass"), 165.0, 4)
    assert rye.balance_with_cap == pytest.approx(145.14, abs=0.02)
    assert twg.balance_with_cap == pytest.approx(156.19, abs=0.02)
    print(f"criterion 1: PASS margins with aid rye "
          f"{rye.balance_with_cap:.4f} / tall wheatgrass "
          f"{twg.balance_with_cap:.4f} EUR/ha, identities exact")


def test_criterion_2_farm_income(farm_model):
    twg = farm_income(farm_model, "tall_wheatgrass").total_eur
    rye = farm_income(farm_model, "rye").total_eur
    assert twg == pytest.approx(94778.44, abs=0.5)
    assert rye == pytest.approx(94336.16, abs=0.5)
    print(f"criterion 2: PASS farm income {twg:.2f} vs {rye:.2f} EUR/y")


def test_criterion_3_marginal_share_sweep(farm_model):
    current, half = marginal_share_sweep(farm_model, [40.0 / 302.0, 0.5])
    assert current.relative_difference * 100.0 == pytest.approx(0.5, abs=0.1)
    assert half.relative_difference * 100.0 == pytest.approx(2.3, abs=0.1)
    print(f"criterion 3: PASS income difference "
          f"{current.relative_difference * 100.0:.4f}% at the current share, "
          f"{half.relative_difference * 100.0:.4f}% at half the farm")


def test_criterion_4_soil_carbon_stock_and_credit(farm_model, factor_db):
    first, last = farm_model.soil_series(
        farm_model.crop("tall_wheatgrass").land_class)
    fixation = soc_annual_change(soc_stock(first), soc_stock(last),
                                 last.year - first.year)
    assert fixation == pytest.approx(0.765, abs=0.01)
    # the credit is the fixation converted to CO2 mass, nothing else
    assert soc_co2_credit(0.765) == 0.765 * CO2_PER_C
    assert soc_co2_credit(0.765) == pytest.approx(2.805, abs=1e-9)
    lci = build_lci(farm_model.crop("tall_wheatgrass"), farm_model, factor_db)
    assert amount(lci, "co2", Phase.SOC).to("Mg") \
        == pytest.approx(-2.805, abs=1e-9)
    print(f"criterion 4: PASS stock-based fixation {fixation:.4f} Mg C/ha*y, "
          f"credit {soc_co2_credit(0.765):.4f} Mg CO2/ha*y")


def test_criterion_5_field_emission_cross_checks(farm_model, factor_db):
    twg = characterize_gwp(build_lci(farm_model.crop("tall_wheatgrass"),
                                     farm_model, factor_db), factor_db)
    rye = characterize_gwp(build_lci(farm_model.crop("rye"),
                                     farm_model, factor_db), factor_db)
    # the field emission phase is exactly the measured N2O rate times its GWP
    assert twg.by_phase[Phase.FIELD_EMISSIONS] \
        == pytest.approx(0.000817 * 265.0, rel=1e-12)
    assert twg.by_phase[Phase.FIELD_EMISSIONS] == pytest.approx(0.2165,
                                                                abs=1e-4)
    assert rye.by_phase[Phase.FIELD_EMISSIONS] \
        == pytest.approx(0.001757 * 265.0, rel=1e-12)
    assert rye.by_phase[Phase.FIELD_EMISSIONS] == pytest.approx(0.4656,
                                                                abs=1e-4)
    twg_share = twg.by_phase[Phase.FIELD_EMISSIONS] / twg.positive_total * 100
    rye_share = rye.by_phase[Phase.FIELD_EMISSIONS] / rye.positive_total * 100
    assert twg_share == pytest.approx(25.1, abs=0.3)
    assert rye_share == pytest.approx(24.1, abs=0.3)
    # net = positive + soil carbon, exactly, and lands on -1.942
    assert twg.net_total == twg.positive_total + twg.by_phase[Phase.SOC]
    assert twg.net_total == pytest.approx(0.863 - 2.805, abs=1e-3)
    print(f"criterion 5: PASS N2O phase shares {twg_share:.2f}% / "
          f"{rye_share:.2f}%, net {twg.net_total:.4f} Mg CO2e/ha*y")


def test_criterion_6_calibrated_footprint_reproduction(farm_model, factor_db):
    twg = assess_crop(farm_model, factor_db, "tall_wheatgrass")
    rye = assess_crop(farm_model, factor_db, "rye")

    assert twg.gwp.positive_total == pytest.approx(0.863, rel=0.01)
    assert rye.gwp.positive_total == pytest.approx(1.934, rel=0.01)
    assert twg.energy.total == pytest.approx(6.0, abs=0.1)
    assert rye.energy.total == pytest.approx(15.8, abs=0.1)

    renewable_twg = twg.energy.renewable_total / twg.energy.total * 100
    renewable_rye = rye.energy.renewable_total / rye.energy.total * 100
    assert renewable_twg == pytest.approx(3.5, abs=0.3)
    assert renewable_rye == pytest.approx(18.3, abs=0.3)

    def share(result, phase):
        return result.gwp_shares[phase]

    # carbon shares of the positive total, both alternatives
    assert share(twg, Phase.FERTILIZER) == pytest.approx(60.2, abs=0.3)
    assert share(rye, Phase.FERTILIZER) == pytest.approx(56.6, abs=0.3)
    assert share(twg, Phase.FIELD_EMISSIONS) == pytest.approx(25.1, abs=0.3)
    assert share(rye, Phase.FIELD_EMISSIONS) == pytest.approx(24.1, abs=0.3)
    assert share(twg, Phase.FIELD_WORKS) + share(twg, Phase.SEED) \
        == pytest.approx(14.6, abs=0.3)
    assert share(rye, Phase.FIELD_WORKS) + share(rye, Phase.SEED) \
        == pytest.approx(19.2, abs=0.3)
    assert share(twg, Phase.SEED) == pytest.approx(0.7, abs=0.3)
    assert share(rye, Phase.SEED) == pytest.approx(8.7, abs=0.3)
    assert share(twg, Phase.PESTICIDE) < 0.2
    assert share(rye, Phase.PESTICIDE) < 0.2

    # primary energy shares of the total
    assert twg.energy_shares[Phase.FERTILIZER] == pytest.approx(67.1, abs=0.3)
    assert rye.energy_shares[Phase.FERTILIZER] == pytest.approx(55.5, abs=0.3)
    assert twg.energy_shares[Phase.SEED] == pytest.approx(2.1, abs=0.3)
    assert rye.energy_shares[Phase.SEED] == pytest.approx(24.5, abs=0.3)
    assert twg.energy_shares[Phase.FIELD_WORKS] == pytest.approx(30.4, abs=0.3)
    assert rye.energy_shares[Phase.FIELD_WORKS] == pytest.approx(19.6, abs=0.3)
    assert twg.energy_shares[Phase.PESTICIDE] < 0.5
    assert rye.energy_shares[Phase.PESTICIDE] < 0.5

    print(f"criterion 6: PASS carbon {twg.gwp.positive_total:.3f}/"
          f"{rye.gwp.positive_total:.3f} Mg CO2e, energy "
          f"{twg.energy.total:.1f}/{rye.energy.total:.1f} GJ, "
          f"renewable {renewable_twg:.1f}%/{renewable_rye:.1f}%")


# ----------------------------------------------------------------------- #
#  criterion 7: the property checks, run on fixed deterministic instances
# ----------------------------------------------------------------------- #

def _seed_fixed_point_error(ratio: float) -> float:
    seed_yield = 1.5
    model = parse_farm_document(seed_farm(ratio * seed_yield, seed_yield))
    crop = model.crop("a")
    vector = seed_inventory(crop, model)
    ann = annualize_schedule(crop, model.amortization_horizon_years)
    cultivation = _cultivation_flows(crop, model, ann, DEFAULT_EXHAUST)
    geometric = 1.0 / (1.0 - ratio)
    worst = 0.0
    for flow_id, amount in cultivation.items():
        expected = amount.value / seed_yield * geometric
        worst = max(worst, abs(vector[flow_id].value - expected))
    for flow_id in SEED_CHAIN_FLOWS:
        worst = max(worst, abs(vector[flow_id].value - geometric))
    return worst


def _scaled_factor_text(text: str, k: float) -> str:
    doc = parse_document(text)
    for path, entries in doc.items():
        scaled_keys = ()
        if path[0] == "flow":
            scaled_keys = ("gwp100", "pe_renewable", "pe_nonrenewable")
        elif path[0] == "gas":
            scaled_keys = ("gwp100",)
        for key in scaled_keys:
            if key in entries:
                entries[key] = entries[key] * k
    return serialize_document(doc)


_TEXT_CHARS = 'ab z09_"\\#,.[]=%\u00e9\u4e2d '


def _random_scalar(rng: random.Random):
    kind = rng.randrange(4)
    if kind == 0:
        return rng.random() < 0.5
    if kind == 1:
        return "ident_" + "".join(rng.choices("abcxyz09_", k=4))
    if kind == 2:
        return "".join(rng.choices(_TEXT_CHARS, k=rng.randrange(12)))
    unit = rng.choice(["Mg", "L", "ha", "EUR/Mg", "Mg/ha", "MJ",
                       "L/ha", "EUR/ha", "1", "y"])
    return parse_quantity(f"{rng.uniform(-1e6, 1e6)!r} {unit}")


def _random_mapping(rng: random.Random) -> dict:
    mapping = {}
    for section_index in range(rng.randrange(1, 6)):
        depth = rng.randrange(1, 4)
        path = tuple(f"s{section_index}" if level == 0 else
                     rng.choice(["alpha", "beta", "gamma", "x9"])
                     for level in range(depth))
        entries = {}
        for key_index in range(rng.randrange(0, 6)):
            key = f"k{key_index}"
            if rng.random() < 0.3:
                entries[key] = [_random_scalar(rng)
                                for _ in range(rng.randrange(2, 5))]
            else:
                entries[key] = _random_scalar(rng)
        mapping[path] = entries
    return mapping


def test_criterion_7_property_suites(farm_model, factor_db, farm_path,
                                     factors_path, tmp_path):
    # seed chain fixed point against the geometric closed form
    for ratio in (0.01, 0.1, 0.5, 0.9):
        assert _seed_fixed_point_error(ratio) < 1e-9, ratio

    # establishment spreading conserves totals
    base = farm_model.crop("tall_wheatgrass")
    for horizon in (1, 2, 3, 4, 7):
        crop = base._replace(sowing_dose_mg_ha=10.0,
                             sowing_timing=Timing.ESTABLISHMENT)
        ann = annualize_schedule(crop, horizon)
        assert ann.sowing_dose_mg_ha * horizon == pytest.approx(10.0,
                                                                rel=1e-12)

    # characterization is linear in the factors and the cheaper/cleaner
    # alternative does not change under uniform factor scaling
    with open(factors_path, encoding="utf-8") as handle:
        factor_text = handle.read()
    lci_twg = build_lci(farm_model.crop("tall_wheatgrass"), farm_model,
                        factor_db)
    lci_rye = build_lci(farm_model.crop("rye"), farm_model, factor_db)
    base_twg = characterize_gwp(lci_twg, factor_db)
    base_rye = characterize_gwp(lci_rye, factor_db)
    base_energy = characterize_energy(lci_twg, factor_db)
    for k in (0.125, 0.5, 2.0, 8.0):
        db_k = load_factor_db(_scaled_factor_text(factor_text, k))
        twg_k = characterize_gwp(lci_twg, db_k)
        rye_k = characterize_gwp(lci_rye, db_k)
        assert twg_k.positive_total == base_twg.positive_total * k
        assert twg_k.by_phase[Phase.SOC] == base_twg.by_phase[Phase.SOC]
        assert characterize_energy(lci_twg, db_k).total \
            == base_energy.total * k
        # argmin invariance on both axes
        assert (twg_k.net_total < rye_k.net_total) \
            == (base_twg.net_total < base_rye.net_total)
        assert (characterize_energy(lci_twg, db_k).total
                < characterize_energy(lci_rye, db_k).total) \
            == (base_energy.total < characterize_energy(lci_rye,
                                                        factor_db).total)

    # balance and income identities, all seven crops
    for crop in farm_model.crops.values():
        bal = crop_balance(crop, farm_model.cap_aid_eur_ha, 4)
        assert bal.total_cost == (bal.seed_cost + bal.herbicide_cost
                                  + bal.fertilizer_cost
                                  + bal.machinery_labor_cost)
        assert bal.balance_with_cap \
            == bal.balance_without_cap + farm_model.cap_aid_eur_ha
    income = farm_income(farm_model, "rye")
    assert income.total_eur == pytest.approx(
        sum(area * balance for area, balance in income.by_crop.values()))

    # parser round trip on 1000 generated documents
    rng = random.Random(20240822)
    for _ in range(1000):
        mapping = _random_mapping(rng)
        assert parse_document(serialize_document(mapping)) == mapping

    # byte-identical report files across two runs
    manifest = build_manifest(farm_path, factors_path, {"command": "assess"})
    for sub in ("one", "two"):
        result = assess_crop(farm_model, factor_db, "tall_wheatgrass")
        write_assessment(result, manifest, str(tmp_path / sub))
    for name in ("balance.csv", "gwp_phases.csv", "energy_phases.csv",
                 "result.json"):
        assert (tmp_path / "one" / name).read_bytes() \
            == (tmp_path / "two" / name).read_bytes(), name

    print("criterion 7: PASS fixed point, spreading, linearity, identities, "
          "1000-document round trip, byte-identical reports")
