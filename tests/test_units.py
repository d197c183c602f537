"""Quantity parsing, conversion, arithmetic, and formatting."""

import operator

import pytest
from hypothesis import given

from conftest import quantities
from oracles import format_quantity
from cropgate import units
from cropgate.units import (DIMENSIONLESS, Quantity, UnitError,
                            parse_quantity, parse_unit)


class TestParseUnit:
    def test_canonical_tokens_have_scale_one(self):
        for token in ("Mg", "L", "ha", "m", "y", "MJ", "EUR"):
            unit, scale = parse_unit(token)
            assert scale == 1.0
            assert str(unit) == token

    @pytest.mark.parametrize("text,scale", [
        ("kg", 1e-3), ("g", 1e-6), ("m3", 1000.0), ("km", 1000.0),
        ("GJ", 1000.0), ("percent", 0.01), ("%", 0.01), ("1", 1.0),
    ])
    def test_alias_scales(self, text, scale):
        assert parse_unit(text)[1] == scale

    def test_slash_puts_rest_into_denominator(self):
        # Mg/ha·y divides by both ha and y
        unit, _ = parse_unit("Mg/ha·y")
        assert str(unit) == "Mg/ha·y"
        per_hay = parse_unit("Mg")[0] / (parse_unit("ha")[0] * parse_unit("y")[0])
        assert unit == per_hay

    def test_star_is_an_ascii_dot(self):
        assert parse_unit("Mg/ha*y") == parse_unit("Mg/ha·y")

    def test_denominator_scale_inverts(self):
        _, scale = parse_unit("EUR/kg")
        assert scale == pytest.approx(1000.0)

    def test_pure_denominator(self):
        unit, _ = parse_unit("1/ha")
        assert str(unit) == "1/ha"

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
        ("  kg / ha ", ((1, 0, -1, 0, 0, 0, 0), 0.001)),
        ("1/ha", ((0, 0, -1, 0, 0, 0, 0), 1.0)),
        ("%", ((0, 0, 0, 0, 0, 0, 0), 0.01)),
    ])
    def test_tokenizer_outcomes(self, text, outcome):
        """Each error text of the tokenizer, and blanks around accepted ones."""
        if isinstance(outcome, str):
            with pytest.raises(UnitError) as raised:
                parse_unit(text)
            assert str(raised.value) == outcome
        else:
            unit, scale = parse_unit(text)
            assert (unit.exponents, scale) == outcome

    @pytest.mark.parametrize("text", ["Mg/ha·y", "1/ha", "EUR/Mg", "1"])
    def test_text_parses_back(self, text):
        unit = parse_unit(text)[0]
        assert parse_unit(str(unit))[0] == unit

    def test_dimensionless_prints_as_one(self):
        assert str(DIMENSIONLESS) == "1"

    def test_memo_is_bounded_and_keeps_errors_out(self, monkeypatch):
        # repeated calls give the first result; a bad unit raises every time
        monkeypatch.setattr(units, "_UNIT_CACHE", {})
        assert parse_unit("kg/ha") is parse_unit("kg/ha")
        for _ in range(2):
            with pytest.raises(UnitError):
                parse_unit("furlong")
        assert "furlong" not in units._UNIT_CACHE
        for width in range(2 * units._UNIT_CACHE_MAX):
            assert parse_unit(" " * width + "kg") == (units._base_unit("mass"),
                                                      1e-3)
        assert len(units._UNIT_CACHE) == units._UNIT_CACHE_MAX


class TestParseQuantity:
    def test_plain_number_is_dimensionless(self):
        q = parse_quantity("42")
        assert q == 42.0
        assert q.__class__ is float

    def test_value_is_rescaled_to_canonical(self):
        assert parse_quantity("2 kg/ha") == parse_quantity("0.002 Mg/ha")

    def test_percent_becomes_fraction(self):
        q = parse_quantity("29.58 percent")
        assert q.unit == DIMENSIONLESS
        assert q.value == pytest.approx(0.2958)

    def test_exponent_notation(self):
        assert parse_quantity("1.5e3 kg").value == pytest.approx(1.5)

    @pytest.mark.parametrize("bad", ["", "Mg", "1..5", "3 parsec"])
    def test_malformed_quantities_raise(self, bad):
        with pytest.raises(UnitError):
            parse_quantity(bad)


class TestConversion:
    def test_to_alias(self):
        assert parse_quantity("1 Mg").to("kg") == pytest.approx(1000.0)
        assert parse_quantity("1 m3").to("L") == pytest.approx(1000.0)
        assert parse_quantity("6000 MJ").to("GJ") == pytest.approx(6.0)

    def test_to_same_dimension_only(self):
        with pytest.raises(UnitError):
            parse_quantity("1 Mg").to("L")

    def test_compound_conversion(self):
        assert parse_quantity("55.39 L/ha").to("L/ha") == pytest.approx(55.39)


class TestArithmetic:
    def test_add_same_unit(self):
        total = parse_quantity("1 Mg") + parse_quantity("500 kg")
        assert total.to("Mg") == pytest.approx(1.5)

    def test_add_mixed_dimensions_raises(self):
        with pytest.raises(UnitError):
            parse_quantity("1 Mg") + parse_quantity("1 L")

    def test_scalar_multiplication(self):
        q = 3 * parse_quantity("2 Mg/ha")
        assert q.to("Mg/ha") == pytest.approx(6.0)

    def test_quantity_division_combines_units(self):
        rate = parse_quantity("10 Mg") / parse_quantity("4 ha")
        assert rate.to("Mg/ha") == pytest.approx(2.5)

    def test_comparison_needs_same_dimension(self):
        assert parse_quantity("2 kg") < parse_quantity("1 Mg")
        with pytest.raises(UnitError):
            _ = parse_quantity("1 Mg") < parse_quantity("1 MJ")

    def test_negation(self):
        assert (-parse_quantity("2 Mg")).value == -2.0

    def test_dimensionless_is_named_1_in_errors(self):
        with pytest.raises(UnitError) as raised:
            Quantity(1.0) + parse_quantity("1 Mg")
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
        q = parse_quantity(text)
        assert parse_quantity(format_quantity(q)) == q

    @given(quantities())
    def test_round_trip_property(self, q: Quantity):
        # repr round-trips floats exactly, so equality is exact here
        assert parse_quantity(format_quantity(q)) == q

    def test_canonical_text(self):
        assert format_quantity(parse_quantity("2 kg/ha")) == "0.002 Mg/ha"


class TestValueType:
    """Quantity is a plain class, not a tuple: what callers rely on."""

    def test_bare_number_is_a_float_and_equality_is_value_and_unit(self):
        # a written unit, 1 included, makes a Quantity; a bare number is
        # the float itself, so the two compare unequal
        bare, one = parse_quantity("0.27"), parse_quantity("0.27 1")
        assert bare.__class__ is float and bare == 0.27
        assert one == Quantity(0.27, DIMENSIONLESS)
        assert bare != one and one != bare
        assert Quantity.__slots__ == ("value", "unit")
        written = parse_quantity("2 Mg")
        built = Quantity(2.0, parse_unit("Mg")[0])
        assert written == built
        assert hash(written) == hash(built)
        assert len({written, built}) == 1
        assert written != parse_quantity("2 L")
        assert written != 2.0

    @pytest.mark.parametrize("op", [operator.gt, operator.ge])
    def test_greater_than_needs_same_dimension(self, op):
        assert op(parse_quantity("1 Mg"), parse_quantity("2 kg"))
        with pytest.raises(UnitError):
            op(parse_quantity("1 Mg"), parse_quantity("1 MJ"))

    def test_repr(self):
        assert repr(parse_quantity("2 kg")) == (
            "Quantity(value=0.002, unit=Unit(exponents=(1, 0, 0, 0, 0, 0, 0)))")
        assert repr(Quantity(3.0)) == (
            "Quantity(value=3.0, unit=Unit(exponents=(0, 0, 0, 0, 0, 0, 0)))")
