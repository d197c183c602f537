"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import string

import pytest
from hypothesis import strategies as st

from cropgate.assess import bundled_data_path, load_factors, load_farm
from cropgate.factors import FactorDB
from cropgate.farmspec import FarmModel
from cropgate.units import Quantity, parse_unit

SHIPPED_FARM = bundled_data_path("farm_soria.cg")
SHIPPED_FACTORS = bundled_data_path("factors_calibrated.cg")


@pytest.fixture(scope="session")
def farm_model() -> FarmModel:
    return load_farm(SHIPPED_FARM)


@pytest.fixture(scope="session")
def factor_db() -> FactorDB:
    return load_factors(SHIPPED_FACTORS)


@pytest.fixture(scope="session")
def farm_path() -> str:
    return SHIPPED_FARM


@pytest.fixture(scope="session")
def factors_path() -> str:
    return SHIPPED_FACTORS


# ---------------------------------------------------------------------- #
#  document generator for grammar round-trip properties
# ---------------------------------------------------------------------- #

# [a-z][a-z0-9_]{0,10}, built directly: st.from_regex generates it slowly
idents = st.builds(
    str.__add__, st.sampled_from(string.ascii_lowercase),
    st.text(alphabet=string.ascii_lowercase + string.digits + "_",
            max_size=10))

_UNITS = st.sampled_from(
    ["", "Mg", "kg", "L", "ha", "m", "y", "MJ", "GJ", "EUR",
     "Mg/ha", "EUR/ha", "L/ha", "kg/L", "Mg/m3", "EUR/Mg", "MJ/Mg"])

_NUMBERS = st.floats(min_value=-1e9, max_value=1e9,
                     allow_nan=False, allow_infinity=False)

_TEXTS = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs", "Cc")),
    max_size=20)


@st.composite
def quantities(draw) -> float | Quantity:
    number = draw(_NUMBERS)
    unit_text = draw(_UNITS)
    if not unit_text:
        return number
    unit, scale = parse_unit(unit_text)
    return Quantity(number * scale, unit)


scalars = st.one_of(st.booleans(), idents, _TEXTS, quantities())

# one entry value: a scalar or a sequence of two-plus scalars
values = st.one_of(scalars, st.lists(scalars, min_size=2, max_size=4))


@st.composite
def documents(draw) -> dict:
    """A mapping section-path -> {key: value} with unique paths and keys."""
    paths = draw(st.lists(
        st.lists(idents, min_size=1, max_size=3).map(tuple),
        min_size=1, max_size=6, unique=True))
    doc = {}
    for path in paths:
        keys = draw(st.lists(idents, min_size=0, max_size=6, unique=True))
        doc[path] = {key: draw(values) for key in keys}
    return doc
