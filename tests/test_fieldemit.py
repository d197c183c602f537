"""Field N2O model and diesel exhaust emissions."""

import pytest

from cropgate.factors import ExhaustFactors, N2OParams
from cropgate.inventory import exhaust_emissions, n2o_field_emissions


class TestN2O:
    def test_override_wins(self):
        params = N2OParams(ef_direct=0.5, override_mg_ha=0.000817)
        assert n2o_field_emissions(100.0, params) == 0.000817

    def test_parametric_direct_only(self):
        # 100 kg N * 0.01 = 1 kg N2O-N -> *44/28 kg N2O -> Mg
        params = N2OParams(ef_direct=0.01)
        expected = (44.0 / 28.0) * 1.0 / 1000.0
        assert n2o_field_emissions(100.0, params) == pytest.approx(expected)

    def test_parametric_with_residues_and_volatilization(self):
        params = N2OParams(ef_direct=0.0125, residue_n_kg_ha=20.0,
                           nh3_loss_fraction=0.1, ef_indirect_nh3=0.01)
        n_applied = 80.0
        direct = 0.0125 * (80.0 + 20.0)
        indirect = 0.01 * 0.1 * 80.0
        expected = (44.0 / 28.0) * (direct + indirect) / 1000.0
        assert n2o_field_emissions(n_applied, params) == pytest.approx(expected)

    def test_zero_nitrogen_zero_emissions(self):
        assert n2o_field_emissions(0.0, N2OParams()) == 0.0

    def test_negative_nitrogen_rejected(self):
        with pytest.raises(ValueError):
            n2o_field_emissions(-1.0, N2OParams())


class TestExhaust:
    def test_componentwise(self):
        factors = ExhaustFactors(co2_kg_l=2.64, ch4_kg_l=0.001,
                                 n2o_kg_l=0.0001)
        co2_kg, ch4_kg, n2o_kg = exhaust_emissions(10.0, factors)
        assert co2_kg == pytest.approx(26.4)
        assert ch4_kg == pytest.approx(0.01)
        assert n2o_kg == pytest.approx(0.001)

    def test_defaults_are_co2_only(self):
        co2_kg, ch4_kg, n2o_kg = exhaust_emissions(55.39, ExhaustFactors())
        assert co2_kg == pytest.approx(55.39 * 2.64)
        assert ch4_kg == 0.0
        assert n2o_kg == 0.0
