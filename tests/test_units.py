"""Quantity parsing, conversion, arithmetic, and formatting."""

import operator

import pytest
from hypothesis import given, strategies as st

from conftest import quantities
from oracles import format_quantity
from cropgate import units
from cropgate.units import Quantity, UnitError, parse_quantity, parse_unit

# the canonical units, in the order of a unit's text
CANONICAL = ("Mg", "L", "ha", "m", "y", "MJ", "EUR")


def q(text: str) -> Quantity:
    return Quantity(*parse_quantity(text))


class TestParseUnit:
    def test_canonical_tokens_have_scale_one(self):
        for token in CANONICAL:
            assert parse_unit(token) == (token, 1.0)

    @pytest.mark.parametrize("text,scale", [
        ("kg", 1e-3), ("g", 1e-6), ("m3", 1000.0), ("km", 1000.0),
        ("GJ", 1000.0), ("percent", 0.01), ("%", 0.01), ("1", 1.0),
    ])
    def test_alias_scales(self, text, scale):
        assert parse_unit(text)[1] == scale

    def test_slash_puts_rest_into_denominator(self):
        # Mg/ha·y divides by both ha and y
        unit, _ = parse_unit("Mg/ha·y")
        assert unit == "Mg/ha·y"
        per_hay = q("1 Mg") / (q("1 ha") * q("1 y"))
        assert unit == per_hay.unit

    def test_star_is_an_ascii_dot(self):
        assert parse_unit("Mg/ha*y") == parse_unit("Mg/ha·y")

    def test_denominator_scale_inverts(self):
        _, scale = parse_unit("EUR/kg")
        assert scale == pytest.approx(1000.0)

    def test_pure_denominator(self):
        unit, _ = parse_unit("1/ha")
        assert unit == "1/ha"

    @pytest.mark.parametrize("bad", ["/ha", "Mg/", "Mg//ha", "Mg ha", "furlong"])
    def test_malformed_units_raise(self, bad):
        with pytest.raises(UnitError):
            parse_unit(bad)

    @pytest.mark.parametrize("text,outcome", [
        ("·kg", "misplaced separator in unit '·kg'"),
        ("kg··ha", "misplaced separator in unit 'kg··ha'"),
        ("/ha", "misplaced '/' in unit '/ha'"),
        ("kg//ha", "misplaced '/' in unit 'kg//ha'"),
        ("kg*/ha", "misplaced '/' in unit 'kg*/ha'"),
        ("kg ha", "cannot parse unit 'kg ha' at position 3"),
        ("kg-ha", "cannot parse unit 'kg-ha' at position 2"),
        ("2/ha", "cannot parse unit '2/ha' at position 0"),
        ("furlong", "unknown unit 'furlong' in 'furlong'"),
        ("kg/", "unit expression 'kg/' ends with a separator"),
        ("kg·", "unit expression 'kg·' ends with a separator"),
        ("  kg / ha ", ("Mg/ha", 0.001)),
        ("1/ha", ("1/ha", 1.0)),
        ("%", ("1", 0.01)),
    ])
    def test_tokenizer_outcomes(self, text, outcome):
        """Each error text of the tokenizer, and blanks around accepted ones."""
        if isinstance(outcome, str):
            with pytest.raises(UnitError) as raised:
                parse_unit(text)
            assert str(raised.value) == outcome
        else:
            assert parse_unit(text) == outcome

    @pytest.mark.parametrize("text", ["Mg/ha·y", "1/ha", "EUR/Mg", "1"])
    def test_text_parses_back(self, text):
        unit = parse_unit(text)[0]
        assert parse_unit(unit) == (unit, 1.0)

    @given(st.lists(st.integers(-2, 2), min_size=7, max_size=7), st.randoms())
    def test_canonical_text_parses_back_property(self, exponents, rng):
        """Each canonical unit written as often as its exponent, in any
        order, parses to the text that writes them in canonical order,
        numerator first; that text parses back to itself with scale 1."""
        pairs = list(zip(CANONICAL, exponents))
        num = [name for name, e in pairs if e > 0 for _ in range(e)]
        den = [name for name, e in pairs if e < 0 for _ in range(-e)]
        canonical = "·".join(num) or "1"
        if den:
            canonical += "/" + "·".join(den)
        rng.shuffle(num)
        rng.shuffle(den)
        written = "·".join(num) or "1"
        if den:
            written += "/" + "·".join(den)
        assert parse_unit(written) == (canonical, 1.0)
        assert parse_unit(canonical) == (canonical, 1.0)

    @pytest.mark.parametrize("spellings", [
        ("kg/ha", "g/ha", "Mg/ha"), ("m3", "L"), ("GJ", "MJ"),
        ("percent", "%", "1")], ids="=".join)
    def test_every_spelling_gives_the_canonical_text(self, spellings):
        # the last spelling of each is the canonical one
        assert {parse_unit(text)[0] for text in spellings} == {spellings[-1]}

    def test_dimensionless_prints_as_one(self):
        assert Quantity(3.0).unit == parse_unit("percent")[0] == "1"

    def test_memo_is_bounded_and_keeps_errors_out(self, monkeypatch):
        # repeated calls give the first result; a bad unit raises every time
        monkeypatch.setattr(units, "_UNIT_CACHE", {})
        assert parse_unit("kg/ha") is parse_unit("kg/ha")
        for _ in range(2):
            with pytest.raises(UnitError):
                parse_unit("furlong")
        assert "furlong" not in units._UNIT_CACHE
        for width in range(2 * units._UNIT_CACHE_MAX):
            assert parse_unit(" " * width + "kg") == ("Mg", 1e-3)
        assert len(units._UNIT_CACHE) == units._UNIT_CACHE_MAX


class TestParseQuantity:
    def test_plain_number_is_dimensionless(self):
        q = parse_quantity("42")
        assert q == 42.0
        assert q.__class__ is float

    def test_value_is_rescaled_to_canonical(self):
        assert parse_quantity("2 kg/ha") == parse_quantity("0.002 Mg/ha")

    def test_percent_becomes_fraction(self):
        value, unit = parse_quantity("29.58 percent")
        assert unit == "1"
        assert value == pytest.approx(0.2958)

    def test_exponent_notation(self):
        assert parse_quantity("1.5e3 kg")[0] == pytest.approx(1.5)

    @pytest.mark.parametrize("bad", ["", "Mg", "1..5", "3 parsec"])
    def test_malformed_quantities_raise(self, bad):
        with pytest.raises(UnitError):
            parse_quantity(bad)


class TestConversion:
    def test_to_alias(self):
        assert q("1 Mg").to("kg") == pytest.approx(1000.0)
        assert q("1 m3").to("L") == pytest.approx(1000.0)
        assert q("6000 MJ").to("GJ") == pytest.approx(6.0)

    def test_to_same_dimension_only(self):
        with pytest.raises(UnitError):
            q("1 Mg").to("L")

    def test_compound_conversion(self):
        assert q("55.39 L/ha").to("L/ha") == pytest.approx(55.39)


class TestArithmetic:
    def test_add_same_unit(self):
        total = q("1 Mg") + q("500 kg")
        assert total.to("Mg") == pytest.approx(1.5)

    def test_add_mixed_dimensions_raises(self):
        with pytest.raises(UnitError):
            q("1 Mg") + q("1 L")

    def test_scalar_multiplication(self):
        assert (3 * q("2 Mg/ha")).to("Mg/ha") == pytest.approx(6.0)

    def test_quantity_division_combines_units(self):
        rate = q("10 Mg") / q("4 ha")
        assert rate.to("Mg/ha") == pytest.approx(2.5)

    def test_comparison_needs_same_dimension(self):
        assert q("2 kg") < q("1 Mg")
        with pytest.raises(UnitError):
            _ = q("1 Mg") < q("1 MJ")

    def test_negation(self):
        assert (-q("2 Mg")).value == -2.0

    def test_dimensionless_is_named_1_in_errors(self):
        with pytest.raises(UnitError) as raised:
            Quantity(1.0) + q("1 Mg")
        assert str(raised.value) == "cannot add 1 and Mg"
        with pytest.raises(UnitError) as raised:
            Quantity(1.0).to("Mg")
        assert str(raised.value) == "cannot express 1 in 'Mg'"


class TestFormatting:
    @pytest.mark.parametrize("text", [
        "0.15 Mg/ha", "165.0 EUR/ha", "29.58 percent", "42", "-8.81 EUR/ha",
        "1.37 Mg/m3", "15000.0 MJ/Mg",
    ])
    def test_examples_reparse_equal(self, text):
        parsed = parse_quantity(text)
        assert parse_quantity(format_quantity(parsed)) == parsed

    @given(quantities())
    def test_round_trip_property(self, parsed: float | tuple[float, str]):
        # repr round-trips floats exactly, so equality is exact here
        assert parse_quantity(format_quantity(parsed)) == parsed

    def test_canonical_text(self):
        assert format_quantity(parse_quantity("2 kg/ha")) == "0.002 Mg/ha"


class TestValueType:
    """A parsed number is a float or a pair; Quantity is a plain class, not
    a tuple: what callers rely on."""

    def test_bare_number_is_a_float_and_equality_is_value_and_unit(self):
        # a written unit, 1 included, makes a (value, unit) pair; a bare
        # number is the float itself, so the two compare unequal
        bare, one = parse_quantity("0.27"), parse_quantity("0.27 1")
        assert bare.__class__ is float and bare == 0.27
        assert one == (0.27, "1")
        assert bare != one and one != bare
        assert Quantity.__slots__ == ("value", "unit")
        written = q("2 Mg")
        built = Quantity(2.0, parse_unit("Mg")[0])
        assert written == built
        assert hash(written) == hash(built)
        assert len({written, built}) == 1
        assert written != q("2 L")
        assert written != 2.0
        assert written != (2.0, "Mg")

    @pytest.mark.parametrize("op", [operator.gt, operator.ge])
    def test_greater_than_needs_same_dimension(self, op):
        assert op(q("1 Mg"), q("2 kg"))
        with pytest.raises(UnitError):
            op(q("1 Mg"), q("1 MJ"))

    def test_repr(self):
        assert repr(q("2 kg")) == "Quantity(value=0.002, unit='Mg')"
        assert repr(Quantity(3.0)) == "Quantity(value=3.0, unit='1')"
