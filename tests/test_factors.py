"""Factor database loading and defaults."""

import pytest

from cropgate.factors import (DEFAULT_EXHAUST, DEFAULT_GAS_GWP, FactorDB,
                              FactorFileError, load_factor_db)


SAMPLE = """
[flow.diesel]
unit = L
gwp100 = 0.6
pe_renewable = 0.75
pe_nonrenewable = 49.3
note = "supply chain only"

[flow.npk]
unit = Mg
gwp100 = 4600
pe_nonrenewable = 36000

[gas.n2o]
gwp100 = 298

[emissions.exhaust]
co2 = 2.64 kg/L

[emissions.grass]
override = 0.0008 Mg/ha

[emissions.cereal]
ef_direct = 0.0125
residue_n = 12 kg/ha
nh3_loss_fraction = 0.1
ef_indirect_nh3 = 0.01
"""


class TestLoading:
    def test_records(self):
        db = load_factor_db(SAMPLE)
        diesel = db.records["diesel"]
        assert diesel.unit == "L"
        assert diesel.gwp100 == 0.6
        assert diesel.pe_renewable == 0.75
        assert diesel.note == "supply chain only"
        assert db.records["npk"].pe_renewable == 0.0  # defaults to zero

    def test_gas_defaults_and_overrides(self):
        db = load_factor_db(SAMPLE)
        assert db.gases["co2"] == 1.0
        assert db.gases["ch4"] == 30.5
        assert db.gases["n2o"] == 298.0  # file overrides the default

    def test_fresh_db_has_all_default_gases(self):
        db = FactorDB()
        for gas, gwp in DEFAULT_GAS_GWP.items():
            assert db.gases[gas] == gwp

    def test_exhaust_factors(self):
        db = load_factor_db(SAMPLE)
        assert db.exhaust["co2"] == 2.64
        assert db.exhaust["ch4"] == 0.0
        assert load_factor_db("[gas.co2]\ngwp100 = 1\n").exhaust \
            == DEFAULT_EXHAUST

    def test_exhaust_reads_in_gas_order(self):
        db = load_factor_db("[emissions.exhaust]\nn2o = 0.0001 kg/L\n"
                            "co2 = 2.5 kg/L\n")
        assert list(db.exhaust.items()) == [("co2", 2.5), ("ch4", 0.0),
                                            ("n2o", 0.0001)]

    def test_emission_params(self):
        db = load_factor_db(SAMPLE)
        grass = db.n2o_params("grass")
        assert grass.override_mg_ha == 0.0008
        cereal = db.n2o_params("cereal")
        assert cereal.override_mg_ha is None
        assert cereal.ef_direct == 0.0125
        assert cereal.residue_n_kg_ha == 12.0
        unknown = db.n2o_params("nothing")
        assert unknown.ef_direct == 0.01  # tier-1 style default


class TestProblems:
    @pytest.mark.parametrize("text,fragment", [
        ("[flow.x]\ngwp100 = 1", "unit basis"),
        ("[flow.x]\nunit = wombat\ngwp100 = 1", "unknown unit basis"),
        ("[flow.x]\nunit = Mg\npe_renewable = -1", "cannot be negative"),
        ("[flow.x]\nunit = Mg\nwings = 2", "unknown key"),
        ("[gas.xe]\nnote = 1", "finite gwp100"),
        ("[party]\nballoons = 9", "unknown section"),
        ("[emissions.exhaust]\nco2 = 2.64 Mg/ha", "must be in kg/L"),
        # values with a unit, or outside [0, 1], used to load silently
        ("[gas.xe]\ngwp100 = 7 kg", "[gas.xe.gwp100] must be a plain number"),
        ("[gas.xe]\ngwp100 = 28 percent",
         "[gas.xe.gwp100] must be a plain number"),
        ("[flow.x]\nunit = Mg\npe_renewable = 3 GJ",
         "[flow.x.pe_renewable] must be a plain number"),
        ("[emissions.c]\nef_direct = 2 kg/ha",
         "[emissions.c.ef_direct] must be a plain number"),
        ("[emissions.c]\nef_direct = 1.5",
         "[emissions.c.ef_direct] fraction 1.5 outside [0, 1]"),
        ("[emissions.c]\nnh3_loss_fraction = -3",
         "[emissions.c.nh3_loss_fraction] fraction -3.0 outside [0, 1]"),
        ("[flow.co2]\nunit = Mg", "[flow.co2] never applies"),
        ("[flow.ch4]\nunit = kg", "[flow.ch4] never applies"),
        ('[flow.x]\nunit = "Mg/ha"', "[flow.x.unit] unit basis 'Mg/ha' is not"),
        ("[flow.x]\nunit = percent", "[flow.x.unit] unit basis 'percent'"),
    ])
    def test_malformed_files(self, text, fragment):
        with pytest.raises(FactorFileError) as err:
            load_factor_db(text)
        assert fragment in str(err.value)

    @pytest.mark.parametrize("text,line", [
        # negative masses used to load and fail later, naming a flow
        ("[emissions.exhaust]\nco2 = -2.64 kg/L",
         "error: [emissions.exhaust.co2] cannot be negative"),
        ("[emissions.exhaust]\nch4 = -0.01 kg/L",
         "error: [emissions.exhaust.ch4] cannot be negative"),
        ("[emissions.rye]\noverride = -0.000817 Mg/ha",
         "error: [emissions.rye.override] cannot be negative"),
        ("[emissions.rye]\nresidue_n = -5000 kg/ha",
         "error: [emissions.rye.residue_n] cannot be negative"),
        # a key that is there but rejected is not also reported missing
        ("[gas.ch4]\ngwp100 = 1e999",
         "error: [gas.ch4.gwp100] must be finite"),
        ("[flow.x]\nunit = 5 kg", "error: [flow.x.unit] expected text"),
        # records that could never apply used to load: one was ignored, the
        # other failed every assessment with a message naming no flow
        ("[flow.n2o]\nunit = Mg\ngwp100 = 99999", "error: [flow.n2o] never "
         "applies: the flow is a gas, characterized by [gas.n2o]"),
        ("[flow.x]\nunit = MJ", "error: [flow.x.unit] unit basis 'MJ' is not "
         "a mass (Mg, kg, g) or a volume (L, m3)"),
        # primary energy used to have a check of its own, after reading
        ("[flow.x]\nunit = Mg\npe_renewable = -1",
         "error: [flow.x.pe_renewable] cannot be negative"),
        ("[flow.x]\nunit = Mg\npe_nonrenewable = -0.5",
         "error: [flow.x.pe_nonrenewable] cannot be negative"),
        ("[flow.x]\nunit = Mg\npe_renewable = 5 percent",
         "error: [flow.x.pe_renewable] must be a plain number"),
        ("[gas.sf6]\ngwp100 = 23500", "error: [gas.sf6] never applies: the "
         "inventory emits co2, ch4 and n2o only"),
    ], ids=["exhaust_co2", "exhaust_ch4", "override", "residue_n",
            "infinite_gas_gwp", "unit_not_text", "gas_flow", "energy_basis",
            "negative_pe_renewable", "negative_pe_nonrenewable",
            "percent_pe_renewable", "unknown_gas"])
    def test_one_line_per_bad_key(self, text, line):
        with pytest.raises(FactorFileError) as err:
            load_factor_db(text)
        assert str(err.value).splitlines() == ["invalid factor file:", line]

    def test_mass_and_volume_bases_load(self):
        for unit in ("Mg", "kg", "g", "L", "m3"):
            db = load_factor_db(f"[flow.x]\nunit = {unit}")
            assert db.records["x"].unit == unit

    def test_all_problems_listed_together(self):
        with pytest.raises(FactorFileError) as err:
            load_factor_db("[flow.a]\ngwp100 = 1\n[party]\nx = 1\n")
        message = str(err.value)
        assert "flow.a" in message and "party" in message


class TestShippedFactors:
    def test_calibrated_records_present(self, factor_db):
        for flow_id in ("npk_8_24_8", "can_27", "diesel", "machinery_tractor",
                        "machinery_harvester", "machinery_tillage",
                        "machinery_implement", "d24_acid", "seed_processing",
                        "seed_transport", "seed_biomass_energy",
                        "seed_tall_wheatgrass"):
            record = factor_db.records[flow_id]
            assert "calibrated" in record.note

    def test_gwp100_gas_set(self, factor_db):
        assert factor_db.gases["co2"] == 1.0
        assert factor_db.gases["ch4"] == 30.5
        assert factor_db.gases["n2o"] == 265.0

    def test_measured_field_overrides(self, factor_db):
        assert factor_db.n2o_params("tall_wheatgrass").override_mg_ha \
            == 0.000817
        assert factor_db.n2o_params("rye").override_mg_ha == 0.001757

    def test_exhaust(self, factor_db):
        assert factor_db.exhaust["co2"] == 2.64
