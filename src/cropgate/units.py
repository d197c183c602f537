"""Unit-bearing quantities for farm data files.

A number read from a farm or factor file is a float when bare and a
``(value, unit)`` pair when a unit is written after it. The file readers
check that unit against the one its key expects, so that a dose in
``Mg/ha`` can never be taken for a diesel volume in ``L/ha``. Past the
readers the engine computes on floats in canonical units: the farm model
holds no unit, and each inventory flow carries a :class:`Quantity`, which
characterization divides by its basis unit's scale from the
:func:`parse_unit` memo. The seed chain, the exhaust gases and the
characterization sums are floats.

The unit system is deliberately small. Seven physical dimensions cover the
whole domain (mass, volume, area, length, time, energy, currency) and each
dimension has one canonical unit used for storage and formatting:

=========  ==============  ==================
dimension  canonical unit  accepted aliases
=========  ==============  ==================
mass       Mg              kg, g
volume     L               m3
area       ha
length     m               km
time       y
energy     MJ              GJ
currency   EUR
=========  ==============  ==================

``percent`` is accepted as a pseudo-unit: ``27 percent`` parses to the
dimensionless fraction 0.27. Compound units are written with ``/`` and
``·`` (``*`` is accepted as an ASCII alternative for ``·``); every token after
the first ``/`` belongs to the denominator, so ``Mg/ha·y`` means Mg per
hectare and year.

A unit is its canonical text, ``Mg/ha·y``, or ``1`` when dimensionless.
Parsing rescales the value to canonical units immediately ("2 kg/ha" becomes
``(0.002, "Mg/ha")``), which makes two parsed values equal exactly when they
describe the same amount.
"""

import re

from . import CropgateError

__all__ = [
    "UnitError",
    "Quantity",
    "parse_quantity",
    "parse_unit",
]


class UnitError(CropgateError):
    """Malformed unit/quantity text or an operation mixing dimensions."""


# the canonical unit of mass, volume, area, length, time, energy and
# currency, in the order of a unit's exponents and of its text
_CANONICAL = ("Mg", "L", "ha", "m", "y", "MJ", "EUR")

# token -> (canonical unit, scale to it); None is dimensionless
_TOKENS = {
    "Mg": ("Mg", 1.0),
    "kg": ("Mg", 1e-3),
    "g": ("Mg", 1e-6),
    "L": ("L", 1.0),
    "m3": ("L", 1000.0),
    "ha": ("ha", 1.0),
    "m": ("m", 1.0),
    "km": ("m", 1000.0),
    "y": ("y", 1.0),
    "MJ": ("MJ", 1.0),
    "GJ": ("MJ", 1000.0),
    "EUR": ("EUR", 1.0),
    "percent": (None, 0.01),
    "%": (None, 0.01),
    "1": (None, 1.0),
}

# one step of a unit expression: blanks, then a separator, a token, or any
# other character, which starts no token; on stripped text the steps cover
# every character
_UNIT_STEP_RE = re.compile(r"\s*(?:([/·*])|([A-Za-z%][A-Za-z0-9]*|1)|(.))")
_NUMBER_RE = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


# parse_unit results by written text; files use a few dozen spellings, the
# bound only keeps a file of arbitrary unit strings from growing it forever
_UNIT_CACHE: dict[str, tuple[str, float]] = {}
_UNIT_CACHE_MAX = 1024


def parse_unit(text: str) -> tuple[str, float]:
    """Parse a unit expression, returning (canonical text, scale factor).

    The canonical text writes each canonical unit as often as its exponent,
    the numerator first: ``Mg/ha·y``, or ``1`` when dimensionless. It parses
    back to itself with scale 1.0, so two units are the same exactly when
    their texts are equal. The scale factor converts a value expressed in
    the written unit into the canonical one: ``parse_unit("kg/ha")`` is
    ``("Mg/ha", 0.001)``. The result is memoized by ``text``: every
    ``Quantity.to`` call parses its target.
    """
    cached = _UNIT_CACHE.get(text)
    if cached is None:
        exponents, scale = _parse_unit(text)
        cached = _format(exponents), scale
        if len(_UNIT_CACHE) < _UNIT_CACHE_MAX:
            _UNIT_CACHE[text] = cached
    return cached


def _parse_unit(text: str) -> tuple[dict[str, int], float]:
    """The exponent of each canonical unit in ``text``, and its scale."""
    exponents = dict.fromkeys(_CANONICAL, 0)
    scale = 1.0
    sign = 1  # +1 numerator, -1 denominator
    expect_token = True
    text = text.strip()
    for step in _UNIT_STEP_RE.finditer(text):
        separator, token = step.group(1, 2)
        if separator == "/":
            if expect_token:
                raise UnitError(f"misplaced '/' in unit {text!r}")
            sign = -1  # everything after the first '/' divides
            expect_token = True
        elif separator:
            if expect_token:
                raise UnitError(f"misplaced separator in unit {text!r}")
            expect_token = True
        elif token is None or not expect_token:
            raise UnitError(f"cannot parse unit {text!r} at position "
                            f"{step.start(step.lastindex)}")
        elif token not in _TOKENS:
            raise UnitError(f"unknown unit {token!r} in {text!r}")
        else:
            base, factor = _TOKENS[token]
            if base is not None:
                exponents[base] += sign
            scale *= factor if sign > 0 else 1.0 / factor
            expect_token = False
    if expect_token and text:
        raise UnitError(f"unit expression {text!r} ends with a separator")
    return exponents, scale


def _format(exponents: dict[str, int]) -> str:
    # a unit of exponent e is written e times: range(e) is empty below 1
    num = "·".join(name for name, e in exponents.items() for _ in range(e))
    den = "·".join(name for name, e in exponents.items() for _ in range(-e))
    return (num or "1") + "/" + den if den else num or "1"


def _combine(unit: str, other: str, sign: int) -> str:
    """The canonical text of ``unit·other`` (sign 1) or ``unit/other``
    (sign -1), for canonical texts."""
    exponents = _parse_unit(unit)[0]
    for name, e in _parse_unit(other)[0].items():
        exponents[name] += sign * e
    return _format(exponents)


class Quantity:
    """A float value bound to the canonical text of its unit.

    Quantities compare equal when both value and unit match after
    normalization, so "2 kg" == "0.002 Mg". Treat a quantity as immutable:
    arithmetic returns new ones.
    """

    __slots__ = ("value", "unit")

    def __init__(self, value: float, unit: str = "1"):
        self.value = value
        self.unit = unit

    def __repr__(self) -> str:
        return f"Quantity(value={self.value!r}, unit={self.unit!r})"

    def __eq__(self, other) -> bool:
        if other.__class__ is not Quantity:
            return NotImplemented
        return (self.value, self.unit) == (other.value, other.unit)

    def __hash__(self) -> int:
        return hash((self.value, self.unit))

    # ---- arithmetic ---------------------------------------------------- #

    def _require_same(self, other: "Quantity", op: str) -> None:
        if self.unit != other.unit:
            raise UnitError(f"cannot {op} {self.unit} and {other.unit}")

    def __add__(self, other: "Quantity") -> "Quantity":
        self._require_same(other, "add")
        return Quantity(self.value + other.value, self.unit)

    def __sub__(self, other: "Quantity") -> "Quantity":
        self._require_same(other, "subtract")
        return Quantity(self.value - other.value, self.unit)

    def __mul__(self, other):
        if isinstance(other, Quantity):
            return Quantity(self.value * other.value,
                            _combine(self.unit, other.unit, 1))
        return Quantity(self.value * other, self.unit)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Quantity):
            return Quantity(self.value / other.value,
                            _combine(self.unit, other.unit, -1))
        return Quantity(self.value / other, self.unit)

    def __neg__(self) -> "Quantity":
        return Quantity(-self.value, self.unit)

    def __lt__(self, other: "Quantity") -> bool:
        self._require_same(other, "compare")
        return self.value < other.value

    def __le__(self, other: "Quantity") -> bool:
        self._require_same(other, "compare")
        return self.value <= other.value

    # ---- conversion ---------------------------------------------------- #

    def to(self, unit_text: str) -> float:
        """Value expressed in ``unit_text`` (must have the same dimension)."""
        unit, scale = parse_unit(unit_text)
        if unit != self.unit:
            raise UnitError(f"cannot express {self.unit} in {unit_text!r}")
        return self.value / scale


def parse_quantity(text: str) -> float | tuple[float, str]:
    """Parse a number and its optional unit: a bare number is a float, and
    any written unit, ``1`` and ``percent`` too, makes a ``(value, unit)``
    pair in the canonical unit of :func:`parse_unit`, so
    ``parse_quantity("2 kg/ha") == (0.002, "Mg/ha")``.

    Raises:
        UnitError: malformed number, unknown unit token, or trailing junk.
    """
    stripped = text.strip()
    number, _, rest = stripped.partition(" ")  # _NUMBER_RE's match in "1.5 ha"
    if not (number.replace(".", "", 1).isdigit() and number.isascii()):
        m = _NUMBER_RE.match(stripped)
        if not m:
            raise UnitError(f"quantity {text!r} does not start with a number")
        number, rest = m.group(0), stripped[m.end():]
    value, rest = float(number), rest.strip()
    if not rest:
        return value
    unit, scale = parse_unit(rest)
    return value * scale, unit
