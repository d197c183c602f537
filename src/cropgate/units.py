"""Unit-bearing quantities for farm data files.

A number read from a farm or factor file is a float when bare and a
:class:`Quantity` when a unit is written after it. The file readers check
that unit against the dimension its key expects, so that a dose in
``Mg/ha`` can never be taken for a diesel volume in ``L/ha``. Past the
readers the engine computes on floats in canonical units: the farm model
holds no :class:`Quantity`, and each inventory flow carries one, which
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

Parsing rescales the value to canonical units immediately ("2 kg/ha" becomes
0.002 Mg/ha), which makes two quantities equal exactly when they describe the
same amount.
"""

import re
from typing import NamedTuple

from . import CropgateError

__all__ = [
    "UnitError",
    "Unit",
    "Quantity",
    "parse_quantity",
    "parse_unit",
    "DIMENSIONLESS",
]


class UnitError(CropgateError):
    """Malformed unit/quantity text or an operation mixing dimensions."""


# canonical unit of each dimension; the order is that of a Unit's exponents
# and of its formatted text
_CANONICAL = {
    "mass": "Mg",
    "volume": "L",
    "area": "ha",
    "length": "m",
    "time": "y",
    "energy": "MJ",
    "currency": "EUR",
}


class Unit(NamedTuple):
    """Canonical unit: a tuple of integer exponents over the fixed dimensions."""

    exponents: tuple[int, ...]

    def __mul__(self, other: "Unit") -> "Unit":
        return Unit(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def __truediv__(self, other: "Unit") -> "Unit":
        return Unit(tuple(a - b for a, b in zip(self.exponents, other.exponents)))

    @property
    def dimensionless(self) -> bool:
        return not any(self.exponents)

    def __str__(self) -> str:
        """``Mg/ha·y``; a dimensionless unit is ``1``, which parses back."""
        pairs = list(zip(_CANONICAL.values(), self.exponents))
        num = [name for name, e in pairs if e > 0 for _ in range(e)]
        den = [name for name, e in pairs if e < 0 for _ in range(-e)]
        head = "·".join(num) or "1"
        if den:
            return head + "/" + "·".join(den)
        return head


DIMENSIONLESS = Unit((0,) * len(_CANONICAL))


def _base_unit(dim: str | None) -> Unit:
    return Unit(tuple(1 if d == dim else 0 for d in _CANONICAL))


# token -> (canonical unit, scale to it), from token -> (dimension, scale);
# dimension None is dimensionless
_TOKENS = {token: (_base_unit(dim), scale) for token, (dim, scale) in {
    "Mg": ("mass", 1.0),
    "kg": ("mass", 1e-3),
    "g": ("mass", 1e-6),
    "L": ("volume", 1.0),
    "m3": ("volume", 1000.0),
    "ha": ("area", 1.0),
    "m": ("length", 1.0),
    "km": ("length", 1000.0),
    "y": ("time", 1.0),
    "MJ": ("energy", 1.0),
    "GJ": ("energy", 1000.0),
    "EUR": ("currency", 1.0),
    "percent": (None, 0.01),
    "%": (None, 0.01),
    "1": (None, 1.0),
}.items()}

# one step of a unit expression: blanks, then a separator, a token, or any
# other character, which starts no token; on stripped text the steps cover
# every character
_UNIT_STEP_RE = re.compile(r"\s*(?:([/·*])|([A-Za-z%][A-Za-z0-9]*|1)|(.))")
_NUMBER_RE = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


# parse_unit results by written text; files use a few dozen spellings, the
# bound only keeps a file of arbitrary unit strings from growing it forever
_UNIT_CACHE: dict[str, tuple[Unit, float]] = {}
_UNIT_CACHE_MAX = 1024


def parse_unit(text: str) -> tuple[Unit, float]:
    """Parse a unit expression, returning (canonical unit, scale factor).

    The scale factor converts a value expressed in the written unit into the
    canonical one, e.g. ``parse_unit("kg/ha")`` gives scale 0.001. The result
    is memoized by ``text``: every ``Quantity.to`` call parses its target.
    """
    cached = _UNIT_CACHE.get(text)
    if cached is None:
        cached = _parse_unit(text)
        if len(_UNIT_CACHE) < _UNIT_CACHE_MAX:
            _UNIT_CACHE[text] = cached
    return cached


def _parse_unit(text: str) -> tuple[Unit, float]:
    unit = DIMENSIONLESS
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
            unit = unit * base if sign > 0 else unit / base
            scale *= factor if sign > 0 else 1.0 / factor
            expect_token = False
    if expect_token and text:
        raise UnitError(f"unit expression {text!r} ends with a separator")
    return unit, scale


class Quantity:
    """A float value bound to a canonical :class:`Unit`.

    Quantities compare equal when both value and unit match after
    normalization, so "2 kg" == "0.002 Mg". Treat a quantity as immutable:
    arithmetic returns new ones.
    """

    __slots__ = ("value", "unit")

    def __init__(self, value: float, unit: Unit = DIMENSIONLESS):
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
            return Quantity(self.value * other.value, self.unit * other.unit)
        return Quantity(self.value * other, self.unit)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Quantity):
            return Quantity(self.value / other.value, self.unit / other.unit)
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


def parse_quantity(text: str) -> float | Quantity:
    """Parse a number and its optional unit: a bare number is a float, and
    any written unit, ``1`` and ``percent`` too, makes a :class:`Quantity`.

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
    return Quantity(value * scale, unit)

