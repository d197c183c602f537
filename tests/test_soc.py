"""Soil organic carbon stocks, annual change, and the CO2 credit."""

import pytest

from cropgate.farmspec import LandClass, SoilSample
from cropgate.inventory import CO2_PER_C, soc_annual_change, \
    soc_co2_credit, soc_stock


def _sample(year: int, oc: float) -> SoilSample:
    return SoilSample(land_class=LandClass.MARGINAL, year=year, depth_m=0.30,
                      bulk_density_mg_m3=1.37, coarse_fraction=0.2958,
                      organic_matter=2 * oc, organic_carbon=oc)


class TestStock:
    def test_initial_marginal_stock(self):
        # 0.30 m * 1.37 Mg/m3 * 10000 m2/ha * (1 - 0.2958) * 0.313% C
        stock = soc_stock(_sample(2013, 0.00313))
        assert stock == pytest.approx(9.059, abs=1e-3)

    def test_later_marginal_stock(self):
        stock = soc_stock(_sample(2016, 0.00393))
        assert stock == pytest.approx(11.374, abs=1e-3)

    def test_coarse_fraction_removes_stone_volume(self):
        stony = _sample(2013, 0.00313)
        fine = SoilSample(land_class=LandClass.MARGINAL, year=2013,
                          depth_m=0.30, bulk_density_mg_m3=1.37,
                          coarse_fraction=0.0, organic_matter=0.00626,
                          organic_carbon=0.00313)
        expected = soc_stock(fine) * (1 - 0.2958)
        assert soc_stock(stony) == pytest.approx(expected)


class TestChange:
    def test_annual_change_between_analyses(self):
        before = soc_stock(_sample(2013, 0.00313))
        after = soc_stock(_sample(2016, 0.00393))
        change = soc_annual_change(before, after, 3)
        # rounded OC percentages give 0.772; the reference figure from the
        # unrounded analyses is 0.765, within 1%
        assert change == pytest.approx(0.7719, abs=5e-4)
        assert change == pytest.approx(0.765, rel=0.01)

    def test_loss_is_negative(self):
        assert soc_annual_change(11.0, 9.0, 2) == pytest.approx(-1.0)

    def test_bad_year_span(self):
        with pytest.raises(ValueError):
            soc_annual_change(9.0, 11.0, 0)


class TestCredit:
    def test_stoichiometric_factor(self):
        assert CO2_PER_C == 44.0 / 12.0

    def test_credit_is_exactly_44_over_12(self):
        assert soc_co2_credit(0.765) == 0.765 * CO2_PER_C
        assert soc_co2_credit(0.765) == pytest.approx(2.805, abs=1e-9)

    def test_credit_is_linear(self):
        assert soc_co2_credit(2.0) == 2.0 * soc_co2_credit(1.0)
