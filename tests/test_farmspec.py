"""Farm file parsing, model assembly, and validation diagnostics."""

import re

import pytest

from cropgate.farmspec import (LAND_CLASSES, SEED_SOURCES, TIMINGS,
                               Composition, FarmValidationError,
                               build_farm_model, parse_farm_document,
                               parse_product_label, validate_model)
from cropgate.sections import parse_document


VALID = """
[farm]
name = "test holding"
total_area = 110 ha
cap_aid = 100 EUR/ha
marginal_area = 10 ha
marginal_pair = grass, cereal

[prices]
straw = 40 EUR/Mg
wheat_grain = 170 EUR/Mg
cereal_grain = 150 EUR/Mg

[product.npk]
kind = fertilizer
label = "8-24-8"

[product.weedkiller]
kind = herbicide
active_fraction = 50 percent

[soil.marginal.2013]
depth = 0.30 m
bulk_density = 1.37 Mg/m3
coarse_fraction = 29.58 percent
organic_matter = 0.540 percent
organic_carbon = 0.313 percent

[soil.marginal.2016]
depth = 0.30 m
bulk_density = 1.37 Mg/m3
coarse_fraction = 29.58 percent
organic_matter = 0.677 percent
organic_carbon = 0.393 percent

[crop.wheat]
land_class = non_marginal
area = 100 ha
sowing_dose = 0.2 Mg/ha
seed_source = own
seed_yield = 3.0 Mg/ha
grain_yield = 3.0 Mg/ha
straw_yield = 2.0 Mg/ha
soc_equilibrium = true

[crop.wheat.costs]
seed = 40 EUR/ha
machinery_labor = 150 EUR/ha

[crop.grass]
land_class = marginal
perennial = true
life_span = 4 y
sowing_dose = 0.02 Mg/ha
sowing_timing = establishment
seed_source = external
seed_flow = seed_grass
base_product = npk
base_dose = 0.3 Mg/ha
base_timing = establishment
straw_yield = 5.0 Mg/ha
soc_fixation = 0.7 Mg/ha

[crop.grass.herbicide.weedkiller]
dose = 1 L/ha
timing = establishment

[crop.grass.op.works]
diesel = 30 L/ha
tractor = 0.001 Mg/ha

[crop.grass.costs]
seed = 30 EUR/ha

[crop.cereal]
land_class = marginal
sowing_dose = 0.15 Mg/ha
seed_source = own
seed_yield = 1.5 Mg/ha
grain_yield = 1.5 Mg/ha
straw_yield = 1.0 Mg/ha
soc_equilibrium = true

[crop.cereal.costs]
seed = 30 EUR/ha
"""


class TestProductLabels:
    def test_npk_triplet(self):
        assert parse_product_label("8-24-8") == Composition(0.08, 0.24, 0.08)

    def test_nitrogen_grade(self):
        assert parse_product_label("CAN 27%") == Composition(n=0.27)

    @pytest.mark.parametrize("bad", ["60-60-60", "pure nitrogen", "110%"])
    def test_bad_labels(self, bad):
        with pytest.raises(Exception):
            parse_product_label(bad)


class TestModelAssembly:
    def test_valid_model_builds(self):
        model = parse_farm_document(VALID)
        assert set(model.crops) == {"wheat", "grass", "cereal"}
        assert model.marginal_pair == ("grass", "cereal")
        assert model.total_area_ha == 110.0
        assert model.amortization_horizon_years == 4  # default

    def test_marginal_crops_share_the_marginal_area(self):
        model = parse_farm_document(VALID)
        assert model.crop("grass").area_ha == 10.0
        assert model.crop("cereal").area_ha == 10.0

    def test_prices_resolve_per_crop(self):
        model = parse_farm_document(VALID)
        assert model.crop("wheat").grain_price == 170.0
        assert model.crop("wheat").straw_price == 40.0
        assert model.crop("grass").straw_price == 40.0

    def test_timings_and_sources(self):
        model = parse_farm_document(VALID)
        grass = model.crop("grass")
        assert grass.sowing_timing == "establishment"
        assert grass.seed_source == "external"
        assert grass.fertilizations[0].timing == "establishment"
        assert grass.herbicides[0].timing == "establishment"
        cereal = model.crop("cereal")
        assert cereal.sowing_timing == "recurrent"
        assert cereal.land_class == "marginal"

    @pytest.mark.parametrize("written, dose, liquid", [
        ("1 L/ha", 1.0, True),
        ("0.001 m3/ha", 1.0, True),
        ("20 g/ha", 20e-6, False),
        ("0.02 kg/ha", 20e-6, False),
        ("0 Mg/ha", 0.0, False),
    ])
    def test_herbicide_dose_in_canonical_units(self, written, dose, liquid):
        # L/ha when written as a volume, Mg/ha when written as a mass
        model = parse_farm_document(
            VALID.replace("dose = 1 L/ha", f"dose = {written}"))
        herb = model.crop("grass").herbicides[0]
        assert herb.dose == pytest.approx(dose) and herb.liquid is liquid

    def test_soil_series_sorted_by_year(self):
        model = parse_farm_document(VALID)
        series = model.soil_series("marginal")
        assert [s.year for s in series] == [2013, 2016]


def _report_of(text: str):
    return build_farm_model(parse_document(text))[1]


def _errors_of(text: str) -> list[str]:
    with pytest.raises(FarmValidationError) as err:
        parse_farm_document(text)
    return [d.message for d in err.value.report.errors]


class TestValidation:
    def test_unknown_section(self):
        messages = _errors_of(VALID + "\n[weather]\nrain = 1\n")
        assert any("unknown section" in m for m in messages)

    def test_stray_subsection_of_prices(self):
        messages = _errors_of(VALID + "\n[prices.extra]\nx = 1 EUR/Mg\n")
        assert any("unknown section" in m for m in messages)

    def test_area_bookkeeping(self):
        messages = _errors_of(VALID.replace("total_area = 110 ha",
                                            "total_area = 100 ha"))
        assert any("sum to" in m for m in messages)

    def test_marginal_crop_with_own_area(self):
        messages = _errors_of(VALID.replace(
            "[crop.cereal]\nland_class = marginal",
            "[crop.cereal]\nland_class = marginal\narea = 10 ha"))
        assert any("shared marginal_area" in m for m in messages)

    def test_pair_must_be_marginal(self):
        messages = _errors_of(VALID.replace(
            "marginal_pair = grass, cereal", "marginal_pair = grass, wheat"))
        assert any("not a marginal-class crop" in m for m in messages)

    def test_pair_must_be_distinct(self):
        messages = _errors_of(VALID.replace(
            "marginal_pair = grass, cereal", "marginal_pair = grass, grass"))
        assert any("two distinct crops" in m for m in messages)
        assert any("outside the comparison pair" in m for m in messages)

    def test_establishment_on_annual_crop(self):
        messages = _errors_of(VALID.replace(
            "[crop.cereal]\nland_class = marginal\nsowing_dose = 0.15 Mg/ha",
            "[crop.cereal]\nland_class = marginal\n"
            "sowing_dose = 0.15 Mg/ha\nsowing_timing = establishment"))
        assert any("non-perennial" in m for m in messages)

    def test_own_seed_needs_yield(self):
        messages = _errors_of(VALID.replace("seed_yield = 1.5 Mg/ha\n", ""))
        assert any("seed_yield" in m for m in messages)

    def test_external_seed_needs_flow(self):
        messages = _errors_of(VALID.replace("seed_flow = seed_grass\n", ""))
        assert any("seed_flow" in m for m in messages)

    def test_undefined_product(self):
        messages = _errors_of(VALID.replace("base_product = npk",
                                            "base_product = ghost"))
        assert any("undefined product" in m for m in messages)

    def test_product_kind_checked(self):
        messages = _errors_of(VALID.replace("base_product = npk",
                                            "base_product = weedkiller"))
        assert any("not a fertilizer" in m for m in messages)

    def test_missing_price(self):
        messages = _errors_of(VALID.replace("wheat_grain = 170 EUR/Mg\n", ""))
        assert any("no price" in m for m in messages)

    def test_organic_carbon_capped_by_matter(self):
        messages = _errors_of(VALID.replace("organic_carbon = 0.313 percent",
                                            "organic_carbon = 0.9 percent"))
        assert any("organic carbon above" in m for m in messages)

    @pytest.mark.parametrize("old,new,where,message", [
        ("cap_aid = 100 EUR/ha",
         "cap_aid = 100 EUR/ha\namortization_horizon = 2.5 y",
         "farm.amortization_horizon", "expected a whole number of years"),
        ("life_span = 4 y", "life_span = 4.5 y", "crop.grass.life_span",
         "expected a whole number of years"),
        # a non-finite value used to reach the reports as Infinity
        ("cap_aid = 100 EUR/ha", "cap_aid = 1e999 EUR/ha", "farm.cap_aid",
         "must be finite"),
        ("diesel = 30 L/ha", "diesel = 1e999 L/ha",
         "crop.grass.op.works.diesel", "must be finite"),
        # percent used to pass as a bare number in the key's unit
        ("cap_aid = 100 EUR/ha", "cap_aid = 10 percent", "farm.cap_aid",
         "must be in EUR/ha"),
        ("diesel = 30 L/ha", "diesel = 3000 %", "crop.grass.op.works.diesel",
         "must be in L/ha"),
        # one diagnostic per bad key: no "required" for a key that is
        # there, no area sum or pairing check on a value already rejected
        ("total_area = 110 ha", "total_area = 11000 percent",
         "farm.total_area", "must be in ha"),
        ("total_area = 110 ha", "total_area = 110 kg", "farm.total_area",
         "must be in ha"),
        ("total_area = 110 ha\n", "", "farm.total_area",
         "total_area is required"),
        ("base_dose = 0.3 Mg/ha", "base_dose = 1e999 kg/ha",
         "crop.grass.base_dose", "must be finite"),
        ("organic_carbon = 0.313 percent", "organic_carbon = 0.313 kg",
         "soil.marginal.2013.organic_carbon", "must be a plain number"),
        # int() reads both years as 2013; the soil pair then spans 0 years.
        # The error names the analysis that comes first by path
        ("[soil.marginal.2016]", "[soil.marginal.02013]",
         "soil.marginal.2013",
         "two analyses of marginal land in 2013: this one and "
         "[soil.marginal.02013]"),
        # a dose that is not per ha used to fail only in the inventory
        ("dose = 1 L/ha", "dose = 1 L",
         "crop.grass.herbicide.weedkiller.dose",
         "must be a finite volume or mass per ha"),
        ("dose = 1 L/ha", "dose = 1", "crop.grass.herbicide.weedkiller.dose",
         "must be a finite volume or mass per ha"),
        ("dose = 1 L/ha", "dose = 1e999 L/ha",
         "crop.grass.herbicide.weedkiller.dose",
         "must be a finite volume or mass per ha"),
        # a rejected value used to stand in as a default that the checks
        # across keys then judged: area sum, pair, products, prices
        ("marginal_area = 10 ha", "marginal_area = 10 kg",
         "farm.marginal_area", "must be in ha"),
        ("area = 100 ha", "area = 100 kg", "crop.wheat.area", "must be in ha"),
        ("marginal_pair = grass, cereal", "marginal_pair = grass",
         "farm.marginal_pair",
         "exactly one comparison pair of two crops is required"),
        # a bad item is the one error at the key: no pair count after it
        ("marginal_pair = grass, cereal", "marginal_pair = grass, 5",
         "farm.marginal_pair", "expected identifiers"),
        ("marginal_pair = grass, cereal", "marginal_pair = 4, 5",
         "farm.marginal_pair", "expected identifiers"),
        ("land_class = non_marginal", "land_class = swamp",
         "crop.wheat.land_class", "expected marginal, non_marginal or fallow"),
        ("perennial = true", "perennial = 3", "crop.grass.perennial",
         "expected true or false"),
        ("seed_yield = 3.0 Mg/ha", "seed_yield = 3.0 kg",
         "crop.wheat.seed_yield", "must be in Mg/ha"),
        ("kind = fertilizer", "kind = bogus", "product.npk.kind",
         "kind must be fertilizer, herbicide or seed"),
        ("active_fraction = 50 percent", "active_fraction = 1.5",
         "product.weedkiller.active_fraction", "fraction 1.5 outside [0, 1]"),
        ("wheat_grain = 170 EUR/Mg", "wheat_grain = 170 kg",
         "prices.wheat_grain", "must be in EUR/Mg"),
        # a missing key is "<key> is required" at the key, in every section
        ("kind = fertilizer\n", "", "product.npk.kind", "kind is required"),
        ("active_fraction = 50 percent\n", "",
         "product.weedkiller.active_fraction", "active_fraction is required"),
        ("dose = 1 L/ha\n", "", "crop.grass.herbicide.weedkiller.dose",
         "dose is required"),
        ("bulk_density = 1.37 Mg/m3\ncoarse_fraction = 29.58 percent\n"
         "organic_matter = 0.540", "coarse_fraction = 29.58 percent\n"
         "organic_matter = 0.540", "soil.marginal.2013.bulk_density",
         "bulk_density is required"),
        # a value out of its range is one error at its key, not a second
        # one from a rule across keys that judged it too
        ("base_dose = 0.3 Mg/ha", "base_dose = -0.3 Mg/ha",
         "crop.grass.base_dose", "cannot be negative"),
        ("dose = 1 L/ha", "dose = -1 L/ha",
         "crop.grass.herbicide.weedkiller.dose", "cannot be negative"),
        ("sowing_dose = 0.2 Mg/ha", "sowing_dose = -0.2 Mg/ha",
         "crop.wheat.sowing_dose", "cannot be negative"),
        ("grain_yield = 3.0 Mg/ha", "grain_yield = -3.0 Mg/ha",
         "crop.wheat.grain_yield", "cannot be negative"),
        ("straw_yield = 2.0 Mg/ha", "straw_yield = -2.0 Mg/ha",
         "crop.wheat.straw_yield", "cannot be negative"),
        ("area = 100 ha", "area = -100 ha", "crop.wheat.area",
         "cannot be negative"),
        ("diesel = 30 L/ha", "diesel = -30 L/ha",
         "crop.grass.op.works.diesel", "cannot be negative"),
        ("tractor = 0.001 Mg/ha", "tractor = -0.001 Mg/ha",
         "crop.grass.op.works.tractor", "cannot be negative"),
        ("cap_aid = 100 EUR/ha", "cap_aid = -100 EUR/ha", "farm.cap_aid",
         "cannot be negative"),
        # no area sum and no negative area on the crops that share it
        ("marginal_area = 10 ha", "marginal_area = -10 ha",
         "farm.marginal_area", "cannot be negative"),
        ("life_span = 4 y", "life_span = 0 y", "crop.grass.life_span",
         "must be at least 1 year"),
        ("cap_aid = 100 EUR/ha",
         "cap_aid = 100 EUR/ha\namortization_horizon = 0 y",
         "farm.amortization_horizon", "must be at least 1 year"),
        # the bound of --horizon; a longer horizon used to validate
        ("cap_aid = 100 EUR/ha",
         "cap_aid = 100 EUR/ha\namortization_horizon = 1001 y",
         "farm.amortization_horizon", "must be at most 1000 years"),
        ("[soil.marginal.2016]\ndepth = 0.30 m",
         "[soil.marginal.2016]\ndepth = 0 m", "soil.marginal.2016.depth",
         "must be above 0 m"),
        ("[soil.marginal.2016]\ndepth = 0.30 m\nbulk_density = 1.37 Mg/m3",
         "[soil.marginal.2016]\ndepth = 0.30 m\nbulk_density = 3 Mg/m3",
         "soil.marginal.2016.bulk_density",
         "3.0 Mg/m3 is outside the plausible 0.5-2.5 range"),
        # also on a crop that buys its seed and never reads the yield
        ("seed_flow = seed_grass",
         "seed_flow = seed_grass\nseed_yield = -0.1 Mg/ha",
         "crop.grass.seed_yield", "cannot be negative"),
        # structure: one error at the section
        ('kind = fertilizer\nlabel = "8-24-8"', "kind = fertilizer",
         "product.npk", "fertilizer needs a label or explicit fractions"),
        ('label = "8-24-8"', 'label = "organic"', "product.npk",
         "label 'organic' has no numeric composition"),
        ("[soil.marginal.2016]", "[soil.swamp.2016]", "soil.swamp.2016",
         "unknown land class 'swamp'"),
        ("[soil.marginal.2016]", "[soil.marginal.late]",
         "soil.marginal.late", "soil section needs a numeric year segment"),
        ("[farm]", "[holding]", "farm", "document has no [farm] section"),
        ("[product.weedkiller]", "[product.weed.killer]",
         "product.weed.killer", "product sections are [product.<id>]"),
        ("[soil.marginal.2016]", "[soil.marginal.2016.top]",
         "soil.marginal.2016.top", "soil sections are [soil.<class>.<year>]"),
        ("[crop.wheat.costs]", "[crop.wheat.prices]", "crop.wheat.prices",
         "unknown crop subsection 'prices'"),
        ("[crop.grass.op.works]", "[crop.grass.op]", "crop.grass.op",
         "malformed crop subsection path"),
        ("[crop.grass.op.works]", "[crop.grass.op.works.extra]",
         "crop.grass.op.works.extra", "malformed crop section path"),
        ("[crop.wheat.costs]", "[crop.oats.costs]", "crop.oats",
         "subsections without a [crop.oats] section"),
        # rules across keys
        ("[crop.grass.herbicide.weedkiller]", "[crop.grass.herbicide.ghost]",
         "crop.grass", "undefined product 'ghost'"),
        ("[crop.grass.herbicide.weedkiller]", "[crop.grass.herbicide.npk]",
         "crop.grass", "'npk' is not a herbicide"),
        ("straw = 40 EUR/Mg",
         "grass_straw = 40 EUR/Mg\ncereal_straw = 40 EUR/Mg",
         "crop.wheat", "no straw price for 'wheat'"),
        # a choice takes one of its words only: not a list, another case
        # of the word, a number or a boolean
        ("land_class = non_marginal", "land_class = marginal, fallow",
         "crop.wheat.land_class", "expected marginal, non_marginal or fallow"),
        ("land_class = non_marginal", "land_class = NON_MARGINAL",
         "crop.wheat.land_class", "expected marginal, non_marginal or fallow"),
        ("land_class = non_marginal", "land_class = 3 ha",
         "crop.wheat.land_class", "expected marginal, non_marginal or fallow"),
        ("seed_source = external", "seed_source = true",
         "crop.grass.seed_source", "expected own, external or none"),
        ("land_class = non_marginal", "land_class = Marginal",
         "crop.wheat.land_class", "expected marginal, non_marginal or fallow"),
        ("sowing_timing = establishment", "sowing_timing = Recurrent",
         "crop.grass.sowing_timing", "expected establishment or recurrent"),
        ("seed_source = external", "seed_source = Own",
         "crop.grass.seed_source", "expected own, external or none"),
        # a product or seed flow named after a gas used to be characterized
        # through the gas's GWP, never through its [flow.*] record
        ("npk", "co2", "product.co2",
         "names a gas: the flow co2 is characterized by [gas.co2]"),
        ("weedkiller", "ch4", "product.ch4",
         "names a gas: the flow ch4 is characterized by [gas.ch4]"),
        ("seed_flow = seed_grass", "seed_flow = n2o", "crop.grass.seed_flow",
         "names a gas: the flow n2o is characterized by [gas.n2o]"),
        # one named after a flow the inventory makes itself used to be
        # merged with it: diesel, machine wear or the seed chain
        ("npk", "diesel", "product.diesel",
         "names a reserved flow: the inventory makes the flow diesel itself"),
        ("npk", "seed_processing", "product.seed_processing",
         "names a reserved flow: the inventory makes the flow "
         "seed_processing itself"),
        ("weedkiller", "machinery_tractor", "product.machinery_tractor",
         "names a reserved flow: the inventory makes the flow "
         "machinery_tractor itself"),
        ("seed_flow = seed_grass", "seed_flow = seed_transport",
         "crop.grass.seed_flow", "names a reserved flow: the inventory "
         "makes the flow seed_transport itself"),
        ("seed_flow = seed_grass", "seed_flow = machinery_implement",
         "crop.grass.seed_flow", "names a reserved flow: the inventory "
         "makes the flow machinery_implement itself"),
        # a misspelled price key used to be read and never applied
        ("straw = 40 EUR/Mg", "straw = 40 EUR/Mg\ncereal_straww = 30 EUR/Mg",
         "prices.cereal_straww", "unknown key"),
        ("straw = 40 EUR/Mg", "straw = 40 EUR/Mg\ncereal = 30 EUR/Mg",
         "prices.cereal", "unknown key"),
    ], ids=["amortization_horizon", "life_span", "infinite_aid",
            "infinite_diesel", "percent_aid", "percent_diesel",
            "percent_total_area", "mass_total_area", "missing_total_area",
            "infinite_base_dose", "soil_value_with_unit",
            "soil_year_leading_zero", "herbicide_dose_not_per_ha",
            "herbicide_dose_bare", "herbicide_dose_infinite",
            "mass_marginal_area", "mass_crop_area", "pair_of_one",
            "pair_item_not_ident", "pair_of_numbers",
            "bad_land_class", "perennial_not_bool", "mass_seed_yield",
            "bogus_kind", "active_fraction_above_1", "mass_price",
            "missing_kind", "missing_active_fraction",
            "missing_herbicide_dose", "missing_soil_key",
            "negative_base_dose", "negative_herbicide_dose",
            "negative_sowing_dose", "negative_grain_yield",
            "negative_straw_yield", "negative_crop_area", "negative_diesel",
            "negative_tractor", "negative_aid", "negative_marginal_area",
            "zero_life_span", "zero_amortization_horizon",
            "long_amortization_horizon", "zero_depth",
            "bulk_density_above_range", "negative_external_seed_yield",
            "fertilizer_without_label", "label_without_numbers",
            "unknown_land_class", "soil_year_not_a_number", "no_farm_section",
            "product_path", "soil_path", "unknown_crop_subsection",
            "crop_subsection_path", "crop_section_path",
            "subsection_without_crop", "undefined_herbicide",
            "herbicide_not_a_herbicide", "no_straw_price",
            "land_class_list", "land_class_member_name", "land_class_number",
            "seed_source_bool", "land_class_title_case",
            "sowing_timing_title_case", "seed_source_title_case",
            "gas_fertilizer", "gas_herbicide",
            "gas_seed_flow", "diesel_fertilizer", "seed_chain_fertilizer",
            "machinery_herbicide", "seed_chain_seed_flow",
            "machinery_seed_flow", "misspelled_price",
            "price_without_shape"])
    def test_malformed_values_rejected(self, old, new, where, message):
        with pytest.raises(FarmValidationError) as err:
            parse_farm_document(VALID.replace(old, new))
        assert [(d.where, d.message) for d in err.value.report.errors] \
            == [(where, message)]

    def test_price_for_a_crop_the_farm_lacks_is_accepted(self):
        text = VALID.replace("straw = 40 EUR/Mg", "straw = 40 EUR/Mg\n"
                             "oats_grain = 200 EUR/Mg\noats_straw = 50 EUR/Mg")
        assert _report_of(text).diagnostics == []
        assert parse_farm_document(text) == parse_farm_document(VALID)

    def test_unknown_crop_in_pair(self):
        # the pair's second crop is then unpaired: a second error, at it
        assert [(d.where, d.message) for d in _report_of(VALID.replace(
            "marginal_pair = grass, cereal",
            "marginal_pair = grass, oats")).errors] == [
            ("farm.marginal_pair", "unknown crop 'oats'"),
            ("crop.cereal", "marginal crop outside the comparison pair")]

    @pytest.mark.parametrize("old,new,where,message", [
        ("life_span = 4 y", "life_span = 1 y", "crop.grass.life_span",
         "perennial crop with a one-year life span"),
        ("[crop.wheat]\n", "[crop.wheat]\nlife_span = 3 y\n",
         "crop.wheat.life_span", "annual crop with multi-year span"),
    ], ids=["perennial_one_year", "annual_multi_year"])
    def test_life_span_warnings(self, old, new, where, message):
        assert [tuple(d) for d in _report_of(VALID.replace(old, new))
                .diagnostics] == [("warning", where, message)]

    def test_fractional_life_span_gives_no_life_span_warning(self):
        # the rejected span used to read as 1 year: "perennial crop with a
        # one-year life span"
        _, report = build_farm_model(parse_document(VALID.replace(
            "life_span = 4 y", "life_span = 4.5 y")))
        assert [(d.where, d.message) for d in report.diagnostics] == [
            ("crop.grass.life_span", "expected a whole number of years")]

    def test_validate_model_checks_a_model_built_in_code(self):
        model = parse_farm_document(VALID)
        smaller = model._replace(crops={
            **model.crops, "wheat": model.crop("wheat")._replace(area_ha=90.0)})
        assert [(d.where, d.message) for d in validate_model(smaller).errors] \
            == [("farm.total_area",
                 "crop areas sum to 100.0 ha, declared total is 110.0 ha")]

    def test_bare_number_is_in_the_keys_unit(self):
        model = parse_farm_document(VALID.replace("area = 100 ha",
                                                  "area = 100"))
        assert model.crop("wheat").area_ha == 100.0

    def test_whole_years_accepted(self):
        for years in (6, 1000):  # 1000: the longest horizon
            model = parse_farm_document(VALID.replace(
                "cap_aid = 100 EUR/ha",
                f"cap_aid = 100 EUR/ha\namortization_horizon = {years} y"))
            assert model.amortization_horizon_years == years
            assert model.crop("grass").life_span_years == 4

    def test_unknown_key_reported(self):
        messages = _errors_of(VALID.replace("soc_equilibrium = true",
                                            "soc_equilibrium = true\nwings = 2"))
        assert any("unknown key" in m for m in messages)

    def test_all_problems_collected_in_one_pass(self):
        broken = VALID.replace("total_area = 110 ha", "total_area = 99 ha") \
                      .replace("base_product = npk", "base_product = ghost")
        messages = _errors_of(broken)
        assert len(messages) >= 2

    def test_warning_does_not_fail_parse(self):
        # equilibrium plus a fixation figure is contradictory but tolerable
        text = VALID.replace("soc_fixation = 0.7 Mg/ha",
                             "soc_fixation = 0.7 Mg/ha\nsoc_equilibrium = true")
        model = parse_farm_document(text)
        doc = parse_document(text)
        _, report = build_farm_model(doc)
        assert model.crop("grass").soc_equilibrium
        assert any("ignored" in d.message for d in report.warnings)


# "key = <number>[ <unit>]" at the start of a line
_QUANTITY = re.compile(
    r"^(\w+) = (-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)(?: ([^\s#,]+))?")


def _may_be_negative(section: str, key: str) -> bool:
    """The farm keys whose negative values docs/formats.md accepts."""
    return (section == "prices" or section.endswith(".costs")
            or key in ("sales", "soc_fixation"))


def test_one_rejected_key_gives_errors_at_that_key_only(farm_path):
    """Give each quantity line of the bundled farm another unit in turn, and
    negate it: each damage is rejected with errors at the damaged key only,
    except a negation that the key's documented range accepts."""
    with open(farm_path, encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    strays = []
    for i, line in enumerate(lines):
        if line.startswith("["):
            section = line[1:line.index("]")]
        match = _QUANTITY.match(line)
        if not match:
            continue
        key, number, unit = match.groups()
        negated = number[1:] if number.startswith("-") else "-" + number
        damages = [(f"{key} = {number} {new_unit}" + line[match.end():],
                    new_unit)
                   for new_unit in ("kg", "percent", "L", "EUR/ha", "m")
                   if new_unit != unit]
        damages.append((f"{key} = {negated}" + line[match.end(2):],
                        "negated"))
        for damaged_line, damage in damages:
            damaged = lines[:i] + [damaged_line] + lines[i + 1:]
            _, report = build_farm_model(parse_document("\n".join(damaged)))
            accepted = damage == "negated" and _may_be_negative(section, key)
            if {d.where for d in report.errors} \
                    != (set() if accepted else {f"{section}.{key}"}):
                strays.append((f"{section}.{key}", damage,
                               report.render() or "accepted"))
    assert strays == []


class TestShippedFarm:
    def test_loads_clean(self, farm_model):
        assert len(farm_model.crops) == 7
        assert farm_model.total_area_ha == 302.0
        assert farm_model.marginal_pair == ("tall_wheatgrass", "rye")
        assert farm_model.cap_aid_eur_ha == 165.0
        assert farm_model.amortization_horizon_years == 4
        assert farm_model.marginal_area_ha == 40.0

    def test_no_warnings_either(self, farm_path):
        with open(farm_path, encoding="utf-8") as handle:
            doc = parse_document(handle.read())
        model, report = build_farm_model(doc)
        assert model is not None
        assert report.ok
        assert report.warnings == []

    @pytest.mark.parametrize("exponent", [20, 23, 29, 45, 180])
    def test_consistent_areas_accepted_at_any_scale(self, farm_path,
                                                    exponent):
        """Every area of the farm times 10**exponent still adds up: the
        area check allows for the rounding of the fold over the crops."""
        with open(farm_path, encoding="utf-8") as handle:
            text = handle.read()
        scaled = re.sub(r"(?m)^((?:total_|marginal_)?area = \d+)( ha)$",
                        rf"\1e{exponent}\2", text)
        assert parse_farm_document(scaled).total_area_ha \
            == float(f"302e{exponent}")
        # a total off by one part in 10**10 is still rejected
        off = scaled.replace(f"total_area = 302e{exponent} ha",
                             f"total_area = 302.00000003e{exponent} ha")
        assert [(d.where, d.message.startswith("crop areas sum to"))
                for d in _report_of(off).errors] \
            == [("farm.total_area", True)]

    def test_compositions(self, farm_model):
        assert farm_model.products["npk_8_24_8"].composition \
            == Composition(0.08, 0.24, 0.08)
        assert farm_model.products["can_27"].composition == Composition(n=0.27)
        assert farm_model.products["d24_acid"].active_fraction == 0.60

    def test_perennial_schedule(self, farm_model):
        twg = farm_model.crop("tall_wheatgrass")
        assert twg.perennial
        assert twg.life_span_years == 4
        assert twg.sowing_timing == "establishment"
        assert twg.seed_source == "external"
        assert twg.seed_flow == "seed_tall_wheatgrass"
        assert twg.soc_fixation_mg_c_ha == 0.765

    def test_choices_hold_the_words_of_the_file(self, farm_model):
        """Each closed choice is the plain str the file writes, and the
        holding uses every word of each choice."""
        crops = farm_model.crops.values()
        samples = farm_model.soil_samples
        timings = [timing for crop in crops for timing in (
            crop.sowing_timing, *(entry.timing for entry in (
                *crop.fertilizations, *crop.herbicides, *crop.operations)))]
        for words, held in (
                (LAND_CLASSES, [crop.land_class for crop in crops]),
                (SEED_SOURCES, [crop.seed_source for crop in crops]),
                (TIMINGS, timings),
                (LAND_CLASSES, [sample.land_class for sample in samples])):
            assert {type(word) for word in held} == {str}
            assert set(held) <= set(words)
        assert {crop.land_class for crop in crops} == set(LAND_CLASSES)
        assert {crop.seed_source for crop in crops} == set(SEED_SOURCES)
        assert set(timings) == set(TIMINGS)

    def test_marginal_soil_series(self, farm_model):
        assert [(s.land_class, s.year)
                for s in farm_model.soil_series("marginal")] \
            == [("marginal", 2013), ("marginal", 2016)]
        assert farm_model.soil_series("non_marginal") == []
