"""The checkable claims of the paper's abstract, on the bundled holding.

Each test checks one claim at the precision the abstract states it: a
figure given as "156" is met by any value that rounds to 156, "about 13%"
by a share that rounds to 13%, "less than 40%" by any share below 40%.
One figure is not reproduced: the abstract gives rye's GWP as 1.6 Mg
CO2e/ha*y, while the bundled factor set is calibrated to the reference
table's 1.934 that acceptance criterion 6 pins. That test pins 1.934 and
records the readings that do not explain the gap.
"""

import pytest

from cropgate.assess import compare_pair
from cropgate.impact import characterize
from cropgate.inventory import Phase, build_lci

PAIR = ("tall_wheatgrass", "rye")


@pytest.fixture(scope="module")
def pair(farm_model, factor_db):
    pair = compare_pair(farm_model, factor_db)
    assert (pair.first.crop_name, pair.second.crop_name) == PAIR
    return pair


def test_about_13_percent_of_a_300_ha_farm_is_marginal(farm_model):
    # "The cited farm owned 300 ha of which about 13% was marginal."
    assert round(farm_model.total_area_ha, -2) == 300  # 302 ha
    share = farm_model.marginal_area_ha / farm_model.total_area_ha
    assert round(share * 100) == 13  # 40 of 302 ha, 13.2%


def test_margins_are_156_and_145_eur_per_ha_and_year(pair):
    # "tall wheatgrass (156 EUR/ha*y) compared to rye (145 EUR/ha*y)"
    assert round(pair.first.economics.balance_with_cap) == 156  # 156.19
    assert round(pair.second.economics.balance_with_cap) == 145  # 145.13


def test_tall_wheatgrass_gwp_is_minus_1_9_mg_co2e(pair):
    # "a GWP of -1.9 Mg CO2 eq/ha*y"; the soil carbon credit makes it negative
    assert round(pair.first.gwp.net_total, 1) == -1.9  # -1.942


def test_tall_wheatgrass_primary_energy_is_below_40_percent_of_rye(pair):
    # "less than 40% of rye's consumption": 6.0 against 15.8 GJ, 38.0%
    assert pair.first.energy.total < 0.4 * pair.second.energy.total


def test_every_verdict_goes_to_tall_wheatgrass_and_the_margin_only_slightly(
        pair):
    # "better option ... from the energy and the environmental point of
    # views and slight better option from the economic view"
    assert pair.verdicts == {"profit_margin": "tall_wheatgrass",
                             "net_gwp": "tall_wheatgrass",
                             "primary_energy": "tall_wheatgrass"}
    rye_margin = pair.second.economics.balance_with_cap
    assert 0.0 < pair.margin_difference_eur_ha < 0.1 * rye_margin  # 7.6%


def test_rye_gwp_is_the_reference_table_value_not_the_abstract(
        pair, farm_model, factor_db):
    """Rye's GWP stays at acceptance criterion 6's 1.934, against the
    abstract's 1.6. None of three readings that drop a part of the system
    lands on 1.6: the one-level seed chain gives 1.917, rye without its
    seed phase 1.766 and rye without field emissions 1.468."""
    rye = pair.second.gwp
    assert rye.by_phase[Phase.SOC] == 0.0  # an equilibrium crop: net = gross
    assert rye.net_total == pytest.approx(1.934, abs=5e-4)
    one_level, _ = characterize(build_lci(farm_model.crop("rye"), farm_model,
                                          factor_db, seed_one_level=True),
                                factor_db)
    readings = {
        "one-level seed chain": one_level.net_total,
        "no seed phase": rye.net_total - rye.by_phase[Phase.SEED],
        "no field emissions":
            rye.net_total - rye.by_phase[Phase.FIELD_EMISSIONS],
    }
    assert readings == pytest.approx({"one-level seed chain": 1.917,
                                      "no seed phase": 1.766,
                                      "no field emissions": 1.468},
                                     abs=5e-4)
    assert all(round(value, 1) != 1.6 for value in readings.values())
