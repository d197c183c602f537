"""Field N2O model and diesel exhaust emissions."""

import pytest

from cropgate import GASES
from cropgate.factors import FactorDB, N2OParams
from cropgate.inventory import (AnnualizedPlan, Phase, _production_flows,
                                n2o_field_emissions)


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
    """10 L/ha of diesel and its exhaust gases, as field-works flows."""

    @staticmethod
    def gas_flows(model, exhaust):
        ann = AnnualizedPlan(0.0, (), (), 10.0)
        return [(f.flow_id, f.amount.value) for f in _production_flows(
                    model, ann, FactorDB(exhaust=exhaust).exhaust)
                if f.flow_id in GASES and f.phase is Phase.FIELD_WORKS]

    def test_componentwise(self, farm_model):
        flows = self.gas_flows(farm_model,
                               {"co2": 2.64, "ch4": 0.001, "n2o": 0.0001})
        assert [flow_id for flow_id, _ in flows] == list(GASES)
        assert [mg for _, mg in flows] \
            == pytest.approx([0.0264, 1e-05, 1e-06])

    def test_defaults_are_co2_only(self, farm_model):
        [(flow_id, mg)] = self.gas_flows(farm_model, None)
        assert flow_id == "co2"
        assert mg == pytest.approx(0.0264)
