"""The one-call assessment layer that the CLI and demos sit on."""

import dataclasses
import math
import os
import random
import re
from decimal import Decimal
from importlib import resources

import pytest

from oracles import amount
from cropgate import CropgateError
from cropgate.assess import (assess_crop, bundled_data_path, compare_pair,
                             load_factors, load_farm, resolve_factors_path)
from cropgate.cli import main
from cropgate.economics import farm_income, marginal_share_sweep
from cropgate.factors import MissingFlowError, load_factor_db
from cropgate.farmspec import parse_farm_document
from cropgate.impact import ENERGY_PHASES, POSITIVE_PHASES
from cropgate.inventory import Phase
from cropgate.reports import build_manifest, write_comparison, write_sweep

GASES_ONLY = """
[flow.diesel]
unit = L
gwp100 = 0.5866
pe_renewable = 0.75
pe_nonrenewable = 49.3
"""


@pytest.fixture(scope="module")
def factors_text(factors_path):
    with open(factors_path, encoding="utf-8") as handle:
        return handle.read()


class TestAssessCrop:
    def test_tall_wheatgrass_assessment(self, farm_model, factor_db):
        result = assess_crop(farm_model, factor_db, "tall_wheatgrass")
        assert result.crop_name == "tall_wheatgrass"
        assert result.economics.balance_with_cap == pytest.approx(156.185)
        assert result.gwp.positive_total == pytest.approx(0.863, abs=1e-3)
        assert result.gwp.net_total == pytest.approx(-1.942, abs=1e-3)
        assert result.energy.total == pytest.approx(6.0, abs=0.05)
        assert set(result.gwp_shares) == set(POSITIVE_PHASES)
        assert set(result.energy_shares) == set(ENERGY_PHASES)
        assert sum(result.gwp_shares.values()) == pytest.approx(100.0)
        assert result.notes == ()

    def test_rye_assessment(self, farm_model, factor_db):
        result = assess_crop(farm_model, factor_db, "rye")
        assert result.economics.balance_with_cap == pytest.approx(145.1331)
        assert result.gwp.positive_total == pytest.approx(1.934, abs=1e-3)
        assert result.gwp.net_total == result.gwp.positive_total  # no SOC term
        assert result.energy.total == pytest.approx(15.8, abs=0.05)

    def test_missing_factors_strict(self, farm_model):
        thin_db = load_factor_db(GASES_ONLY)
        with pytest.raises(MissingFlowError):
            assess_crop(farm_model, thin_db, "rye")

    def test_missing_factors_cut_off_and_noted(self, farm_model):
        thin_db = load_factor_db(GASES_ONLY)
        result = assess_crop(farm_model, thin_db, "rye",
                             cutoff_missing=True)
        assert result.gwp.missing  # fertilizers, machinery, seed chain ...
        assert "npk_8_24_8" in result.gwp.missing
        for flow_id in result.gwp.missing:
            assert (f"flow {flow_id!r} has no factor record; cut off at "
                    "zero burden") in result.notes

    def test_cut_off_volume_flow_adds_zero_burden(self, farm_model,
                                                  factors_text):
        """A cut-off flow counts zero whatever its unit: dropping the diesel
        record (per L) gives the numbers of a zero-factor diesel record."""
        start = factors_text.index("[flow.diesel]")
        block = factors_text[start:factors_text.index("\n[", start)]
        zeroed = ("[flow.diesel]\nunit = L\ngwp100 = 0\n"
                  "pe_renewable = 0\npe_nonrenewable = 0\n")
        cut = assess_crop(
            farm_model, load_factor_db(factors_text.replace(block, "")),
            "rye", cutoff_missing=True)
        zero = assess_crop(
            farm_model, load_factor_db(factors_text.replace(block, zeroed)),
            "rye")
        assert cut.gwp.missing == cut.energy.missing == ("diesel",)
        assert cut.gwp.by_phase == zero.gwp.by_phase
        assert cut.energy.renewable_by_phase == zero.energy.renewable_by_phase
        assert cut.energy.nonrenewable_by_phase \
            == zero.energy.nonrenewable_by_phase

    @pytest.mark.parametrize("crop", ["wheat", "barley", "triticale",
                                      "sunflower", "rye", "tall_wheatgrass"])
    def test_cut_off_equals_a_zero_record(self, farm_model, factor_db,
                                          factors_text, crop):
        """Each factor record a crop uses, dropped and cut off, gives the
        assessment of that record with all-zero factors, bit for bit; only
        ``missing`` and the cut-off notes tell the two apart."""
        flow_ids = {flow.flow_id for flow in assess_crop(
            farm_model, factor_db, crop).inventory.flows
            if flow.flow_id in factor_db.records}
        assert flow_ids
        for flow_id in sorted(flow_ids):
            start = factors_text.index(f"[flow.{flow_id}]\n")
            end = factors_text.find("\n[", start)
            block = factors_text[start:end if end >= 0 else None]
            zeroed = (f"[flow.{flow_id}]\nunit = "
                      f"{factor_db.records[flow_id].unit}\ngwp100 = 0\n"
                      "pe_renewable = 0\npe_nonrenewable = 0\n")
            cut = assess_crop(
                farm_model, load_factor_db(factors_text.replace(block, "")),
                crop, cutoff_missing=True)
            zero = assess_crop(
                farm_model, load_factor_db(factors_text.replace(block, zeroed)),
                crop)
            assert cut.gwp.missing == cut.energy.missing == (flow_id,)
            assert cut.notes == zero.notes + (
                f"flow {flow_id!r} has no factor record; cut off at zero "
                "burden",)
            assert repr(dataclasses.replace(
                cut, gwp=dataclasses.replace(cut.gwp, missing=()),
                energy=dataclasses.replace(cut.energy, missing=()),
                notes=zero.notes)) == repr(zero), flow_id

    def test_longer_horizon_shrinks_establishment_burden(self, farm_model,
                                                         factor_db):
        base = assess_crop(farm_model, factor_db, "tall_wheatgrass")
        spread = assess_crop(
            farm_model._replace(amortization_horizon_years=8), factor_db,
            "tall_wheatgrass")
        assert spread.gwp.positive_total < base.gwp.positive_total
        assert amount(spread.inventory, "seed_tall_wheatgrass").to("Mg") \
            == pytest.approx(0.02 / 8)

    @pytest.mark.parametrize("call", [assess_crop, compare_pair])
    def test_horizon_beyond_a_float_rejected(self, farm_model, factor_db,
                                             call):
        crops = ("tall_wheatgrass",) if call is assess_crop else ()
        model = farm_model._replace(amortization_horizon_years=10**400)
        with pytest.raises(CropgateError, match="^amortization horizon must "
                                                "be at most 1000 years$"):
            call(model, factor_db, *crops)

    def test_unknown_crop(self, farm_model, factor_db):
        with pytest.raises(KeyError):
            assess_crop(farm_model, factor_db, "miscanthus")


class TestComparePair:
    def test_defaults_to_farm_pair(self, farm_model, factor_db):
        result = compare_pair(farm_model, factor_db)
        assert result.first.crop_name == "tall_wheatgrass"
        assert result.second.crop_name == "rye"
        assert result.margin_difference_eur_ha == pytest.approx(11.0519)
        assert result.income_first.total_eur > result.income_second.total_eur

    def test_verdicts_favor_the_grass_on_all_three_axes(self, farm_model,
                                                        factor_db):
        verdicts = compare_pair(farm_model, factor_db).verdicts
        assert verdicts == {"profit_margin": "tall_wheatgrass",
                            "net_gwp": "tall_wheatgrass",
                            "primary_energy": "tall_wheatgrass"}

    def test_explicit_order_flips_the_sign(self, farm_model, factor_db):
        result = compare_pair(farm_model, factor_db, "rye", "tall_wheatgrass")
        assert result.margin_difference_eur_ha == pytest.approx(-11.0519)
        assert result.verdicts["profit_margin"] == "tall_wheatgrass"

    def test_reversed_order_mirrors_the_default(self, farm_model, factor_db,
                                                farm_path, tmp_path):
        pairs = (compare_pair(farm_model, factor_db),
                 compare_pair(farm_model, factor_db, "rye", "tall_wheatgrass"))
        assert pairs[1].margin_difference_eur_ha \
            == -pairs[0].margin_difference_eur_ha
        assert pairs[1].verdicts == pairs[0].verdicts
        manifest = build_manifest(farm_path, None, {})
        cells = []  # metric -> difference, of each order's comparison.csv
        for i, pair in enumerate(pairs):
            path = write_comparison(pair, manifest, tmp_path / str(i))[0]
            with open(path, encoding="utf-8") as handle:
                rows = [line.split(",") for line in handle.read().splitlines()]
            cells.append({row[0]: row[3] for row in rows[2:]})

        def flipped(cell):  # "" and a zero such as "0.00" flip to themselves
            if cell.startswith("-"):
                return cell[1:]
            return "-" + cell if cell.strip("0.") else cell

        assert {metric: flipped(cell) for metric, cell in cells[0].items()} \
            == cells[1]
        assert any(cell.startswith("-") for cell in cells[0].values())

    def test_horizon_reaches_farm_income(self, farm_path, factor_db):
        with open(farm_path, encoding="utf-8") as handle:
            text = handle.read().replace(
                "[crop.tall_wheatgrass.costs]\n",
                "[crop.tall_wheatgrass.costs]\n"
                "seed_establishment = 100 EUR/ha\n")
        model = parse_farm_document(text)
        result = compare_pair(model._replace(amortization_horizon_years=8),
                              factor_db)
        first = result.first
        assert result.income_first.by_crop[first.crop_name][1] \
            == first.economics.balance_with_cap

    @pytest.mark.parametrize("holding", ["bundled", "larger"])
    def test_pair_incomes_are_farm_income(self, holding, farm_path,
                                          factor_db):
        with open(farm_path, encoding="utf-8") as handle:
            farm_text = handle.read()
        if holding == "larger":  # sums that round differently by order
            farm_text = larger_holding(farm_text, 24)
        model = parse_farm_document(farm_text)
        for names in (model.marginal_pair, model.marginal_pair[::-1]):
            result = compare_pair(model, factor_db, *names)
            for income, name in zip((result.income_first,
                                     result.income_second), names):
                alone = farm_income(model, name)
                assert income.total_eur.hex() == alone.total_eur.hex()
                assert list(income.by_crop.items()) \
                    == list(alone.by_crop.items())
                assert income == alone

    def test_single_name_rejected(self, farm_model, factor_db):
        with pytest.raises(ValueError):
            compare_pair(farm_model, factor_db, "rye", None)

    def test_a_crop_with_itself_rejected(self, farm_model, factor_db):
        with pytest.raises(CropgateError, match=r"^cannot compare crop "
                                                r"'rye' with itself$"):
            compare_pair(farm_model, factor_db, "rye", "rye")


# An unrelated crop added to the bundled farm: its name, its area in ha, its
# price line (or "") and its sections, with a product of its own.
ADDED_CROPS = {
    "annual": ("oats", 25, "oats_grain = 150.00 EUR/Mg", """
[product.npk_15_15_15]
kind = fertilizer
label = "15-15-15"

[crop.oats]
land_class = non_marginal
area = 25 ha
sowing_dose = 0.16 Mg/ha
seed_source = own
seed_yield = 2.40 Mg/ha
base_product = npk_15_15_15
base_dose = 0.25 Mg/ha
grain_yield = 2.40 Mg/ha
straw_yield = 1.50 Mg/ha
soc_equilibrium = true
"""),
    "perennial": ("alfalfa", 18, "", """
[product.fluroxypyr]
kind = herbicide
active_fraction = 20 percent

[crop.alfalfa]
land_class = non_marginal
perennial = true
life_span = 5 y
area = 18 ha
sowing_dose = 0.025 Mg/ha
sowing_timing = establishment
seed_source = external
seed_flow = seed_alfalfa
straw_yield = 6.00 Mg/ha
soc_fixation = 0.300 Mg/ha

[crop.alfalfa.herbicide.fluroxypyr]
dose = 1.5 L/ha
timing = establishment

[crop.alfalfa.op.annual_works]
diesel = 40 L/ha
tractor = 0.00100 Mg/ha

[crop.alfalfa.costs]
seed_establishment = 120.00 EUR/ha
"""),
    # the soil pair of its own land class drives this one's credit
    "soil_pair": ("poplar", 12, "", """
[product.urea]
kind = fertilizer
n_fraction = 46 percent

[soil.non_marginal.2012]
depth = 0.30 m
bulk_density = 1.40 Mg/m3
coarse_fraction = 20 percent
organic_matter = 1.20 percent
organic_carbon = 0.70 percent

[soil.non_marginal.2018]
depth = 0.30 m
bulk_density = 1.40 Mg/m3
coarse_fraction = 20 percent
organic_matter = 1.50 percent
organic_carbon = 0.85 percent

[crop.poplar]
land_class = non_marginal
perennial = true
life_span = 8 y
area = 12 ha
base_product = urea
base_dose = 0.10 Mg/ha
straw_yield = 9.00 Mg/ha
"""),
}


class TestLocality:
    """A crop's assessment reads the farm only through that crop, the
    products it names and its own land's soil analyses."""

    @pytest.mark.parametrize("kind", sorted(ADDED_CROPS))
    def test_added_crop_leaves_every_other_assessment_unchanged(
            self, kind, farm_path, farm_model, factor_db):
        name, area, price, sections = ADDED_CROPS[kind]
        with open(farm_path, encoding="utf-8") as handle:
            text = handle.read()
        total = f"total_area = {farm_model.total_area_ha:g} ha\n"
        assert text.count(total) == 1 and text.count("[prices]\n") == 1
        text = text.replace(total, f"total_area = "
                            f"{farm_model.total_area_ha + area:g} ha\n")
        text = text.replace("[prices]\n", f"[prices]\n{price}\n") + sections
        extended = parse_farm_document(text)
        assert list(extended.crops) == sorted([*farm_model.crops, name])
        for other in farm_model.crops:
            assert repr(assess_crop(extended, factor_db, other)) \
                == repr(assess_crop(farm_model, factor_db, other)), other


class TestSweepShares:
    def test_passthrough(self, farm_model):
        points = marginal_share_sweep(farm_model, [0.25, 0.5])
        assert [p.share for p in points] == [0.25, 0.5]

    def test_empty_rejected(self, farm_model):
        with pytest.raises(ValueError):
            marginal_share_sweep(farm_model, [])


class TestInputResolution:
    def test_bundled_files_load(self):
        farm = load_farm(bundled_data_path("farm_soria.cg"))
        assert farm.total_area_ha == 302.0
        db = load_factors(bundled_data_path("factors_calibrated.cg"))
        assert db.records["diesel"].unit == "L"

    @pytest.mark.parametrize("name", ["farm_soria.cg", "factors_calibrated.cg",
                                      "not_shipped.cg"])
    def test_bundled_path_is_the_package_resource_path(self, name):
        expected = resources.files("cropgate").joinpath("data", name)
        assert bundled_data_path(name) == os.fspath(expected)

    def test_explicit_path_wins(self, farm_model):
        assert resolve_factors_path("/x/farm.cg", farm_model,
                                    explicit="/y/f.cg") == "/y/f.cg"

    def test_farm_reference_resolves_beside_the_farm_file(self, farm_model,
                                                          farm_path):
        resolved = resolve_factors_path(farm_path, farm_model)
        assert resolved == os.path.join(os.path.dirname(farm_path),
                                        "factors_calibrated.cg")
        assert os.path.exists(resolved)

    def test_no_reference_anywhere(self, farm_model):
        bare = farm_model._replace(factors_ref=None)
        with pytest.raises(FileNotFoundError):
            resolve_factors_path("/x/farm.cg", bare)


def shuffled_sections(text: str, seed: int) -> str:
    """The file with its sections in a seeded random order; the lines
    before the first section stay first."""
    head, *sections = re.split(r"(?m)^(?=\[)", text)
    random.Random(seed).shuffle(sections)
    return head + "".join(sections)


def larger_holding(farm_text: str, n_crops: int) -> str:
    """The bundled farm plus ``n_crops`` seeded non-marginal crops, each
    with two herbicides and two field operations, written out of name
    order. Their areas and margins have no short binary form, so sums over
    them round differently in different orders."""
    rng = random.Random(20)
    prices, sections, added_cents = [], [], 0
    for i in rng.sample(range(n_crops), n_crops):
        name = f"extra_{i:02d}"
        cents = rng.randrange(100, 4000)
        added_cents += cents
        prices.append(f"{name}_grain = {rng.uniform(120, 330):.2f} EUR/Mg")
        sections.append(f"""
[crop.{name}]
land_class = non_marginal
area = {cents / 100:.2f} ha
grain_yield = {rng.uniform(1, 5):.3f} Mg/ha
straw_yield = {rng.uniform(0.5, 3):.3f} Mg/ha
soc_equilibrium = true

[crop.{name}.herbicide.glyphosate]
dose = {rng.uniform(0.5, 3):.2f} L/ha

[crop.{name}.herbicide.d24_acid]
dose = {rng.uniform(0.5, 2):.2f} L/ha

[crop.{name}.op.tillage]
diesel = {rng.uniform(10, 40):.2f} L/ha
tillage = 0.00{rng.randrange(100, 999)} Mg/ha

[crop.{name}.op.harvest]
diesel = {rng.uniform(10, 30):.2f} L/ha
harvester = 0.00{rng.randrange(100, 999)} Mg/ha

[crop.{name}.costs]
seed = {rng.uniform(20, 60):.2f} EUR/ha
machinery_labor = {rng.uniform(100, 250):.2f} EUR/ha
""")
    total = "total_area = 302 ha\n"
    assert farm_text.count(total) == 1 and farm_text.count("[prices]\n") == 1
    text = farm_text.replace(
        total, f"total_area = {(30200 + added_cents) / 100:.2f} ha\n")
    text = text.replace("[prices]\n", "[prices]\n" + "\n".join(prices) + "\n")
    return text + "".join(sections)


class TestSectionOrder:
    """Sections are read in path order, so their order in the file changes
    no crop, no flow order and no whole-farm total."""

    SHARES = [i / 100 for i in range(101)]

    def outcome(self, farm_text, factors_text, manifest, out_dir):
        model = parse_farm_document(farm_text)
        db = load_factor_db(factors_text)
        crops = {name: repr(assess_crop(model, db, name))
                 for name in model.crops}
        # one manifest for every run: the payloads must then match byte
        # for byte, the manifest included
        paths = write_comparison(compare_pair(model, db), manifest, out_dir,
                                 "json")
        paths += write_sweep(marginal_share_sweep(model, self.SHARES),
                             model.marginal_pair, manifest, out_dir, "json")
        payloads = {}
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                payloads[os.path.basename(path)] = handle.read()
        return crops, payloads

    @pytest.mark.parametrize("holding", ["bundled", "larger"])
    def test_shuffled_sections_change_nothing(self, holding, farm_path,
                                              factors_text, tmp_path):
        with open(farm_path, encoding="utf-8") as handle:
            farm_text = handle.read()
        if holding == "larger":
            farm_text = larger_holding(farm_text, 24)
        manifest = build_manifest(farm_path, None, {})
        expected = self.outcome(farm_text, factors_text, manifest,
                                tmp_path / "in_order")
        assert len(expected[0]) >= 7 and sorted(expected[1]) \
            == ["comparison.json", "sweep.json"]
        for seed in range(4):
            crops, payloads = self.outcome(
                shuffled_sections(farm_text, seed),
                shuffled_sections(factors_text, seed), manifest,
                tmp_path / str(seed))
            assert payloads == expected[1], seed
            assert crops == expected[0], seed

    def test_shuffled_sections_change_no_diagnostic(self, farm_path,
                                                    tmp_path, capsys):
        # four errors from [product.*] and [soil.*] sections: three labels
        # without a composition, and one year analysed twice
        with open(farm_path, encoding="utf-8") as handle:
            farm_text = re.sub(r"(?m)^label = .*$", 'label = "organic"',
                               handle.read())
        farm_text = farm_text.replace("[soil.marginal.2016]",
                                      "[soil.marginal.02013]")
        path = tmp_path / "farm.cg"

        def validate(text):
            path.write_text(text, encoding="utf-8")
            code = main(["validate", "--farm", str(path)])
            return code, *capsys.readouterr()

        expected = validate(farm_text)
        assert expected[0] == 1 and expected[1].count("error: ") == 4
        assert ("error: [soil.marginal.2013] two analyses of marginal land "
                "in 2013: this one and [soil.marginal.02013]\n") in expected[1]
        for seed in range(10):
            assert validate(shuffled_sections(farm_text, seed)) == expected, \
                seed


# unit token -> (an equivalent token, the power of ten its value gains when
# the token is in the numerator)
_ALIASES = {"Mg": ("kg", 3), "kg": ("g", 3), "g": ("kg", -3),
            "L": ("m3", -3), "m3": ("L", 3), "MJ": ("GJ", -3),
            "GJ": ("MJ", 3), "m": ("km", -3), "km": ("m", 3),
            "percent": ("%", 0), "%": ("percent", 0)}
_QUANTITY_LINE = re.compile(r"(?m)^(\w+ = )(-?[0-9.]+) ([^\s#]+)")


def unit_rewrites(text: str):
    """Each line ``key = <number> <unit>`` whose unit has an alias, once:
    the first aliased token swapped for its alias and the number's decimal
    point shifted to match, so the written amount is exactly the same."""
    for m in _QUANTITY_LINE.finditer(text):
        head, number, unit = m.groups()
        numerator, _, denominator = unit.partition("/")
        for side, shift_sign in ((numerator, 1), (denominator, -1)):
            tokens = re.split(r"([·*])", side)
            hits = [i for i, token in enumerate(tokens) if token in _ALIASES]
            if hits:
                alias, shift = _ALIASES[tokens[hits[0]]]
                tokens[hits[0]] = alias
                side_text = "".join(tokens)
                new_unit = (side_text + unit[len(numerator):]
                            if shift_sign == 1 else
                            numerator + "/" + side_text)
                value = format(Decimal(number).scaleb(shift * shift_sign), "f")
                yield (m.group(0), text[:m.start()] + head + value + " "
                       + new_unit + text[m.end():])
                break


def reported_values(model, db) -> dict[str, float]:
    """Every economics, GWP and energy value of every crop, by name."""
    values = {}
    for name in model.crops:
        result = assess_crop(model, db, name)
        for field, value in dataclasses.asdict(result.economics).items():
            if field != "crop_name":
                values[f"{name}.{field}"] = value
        gwp, energy = result.gwp, result.energy
        for phase in Phase:
            values[f"{name}.gwp.{phase.value}"] = gwp.by_phase[phase]
            values[f"{name}.ren.{phase.value}"] = \
                energy.renewable_by_phase[phase]
            values[f"{name}.non.{phase.value}"] = \
                energy.nonrenewable_by_phase[phase]
        values.update({f"{name}.gwp.positive": gwp.positive_total,
                       f"{name}.gwp.net": gwp.net_total,
                       f"{name}.energy.ren": energy.renewable_total,
                       f"{name}.energy.non": energy.nonrenewable_total,
                       f"{name}.energy.total": energy.total})
    return values


class TestUnitEquivalence:
    """A quantity written in an equivalent unit, with the decimal point
    shifted exactly, changes no reported value beyond 1e-12 relative: the
    parse rounds the written decimal once and the scale conversions add a
    few roundings more, never a wrong power of ten."""

    def test_every_aliased_line_in_an_equivalent_unit(self, farm_path,
                                                      factors_text):
        with open(farm_path, encoding="utf-8") as handle:
            farm_text = handle.read()
        model, db = parse_farm_document(farm_text), load_factor_db(factors_text)
        expected = reported_values(model, db)
        assert len(expected) > 7 * 30
        rewrites = 0
        for in_farm, text in ((True, farm_text), (False, factors_text)):
            for line, rewritten in unit_rewrites(text):
                rewrites += 1
                values = reported_values(
                    parse_farm_document(rewritten) if in_farm else model,
                    db if in_farm else load_factor_db(rewritten))
                for key, value in expected.items():
                    assert math.isclose(values[key], value, rel_tol=1e-12), \
                        (line, key, values[key], value)
        assert rewrites == 76
