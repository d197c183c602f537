"""Sectioned key-value document format shared by farm and factor files.

Grammar (see docs/formats.md for the full description):

* UTF-8 text, LF, CRLF or CR line endings, ``#`` starts a comment.
* ``[path.of.segments]`` opens a section; segment characters: ``A-Za-z0-9_``.
* Entries are ``key = value``; keys are unique within their section and
  section paths are unique within the document. Order carries no meaning.
* A value is a scalar or a comma-separated sequence of scalars. Scalars are
  numbers, a float when bare and a Quantity with a unit ("0.15 Mg/ha"),
  quoted text, bare identifiers, or the booleans ``true``/``false``.

A parsed document is plain data: ``{path: {key: value}}`` in file order.
Farm and factor files read each section through a :class:`SectionReader`,
which converts each key to the type the file kind expects and collects every
problem in a :class:`ValidationReport` instead of raising at the first one.
"""

import errno
import math
import os
import re
from typing import NamedTuple

from . import InputError
from .units import Quantity, UnitError, parse_quantity, parse_unit

__all__ = ["SectionSyntaxError", "Document", "read_text", "parse_document",
           "Diagnostic", "ValidationReport", "SectionReader"]

Scalar = float | Quantity | str | bool
Value = Scalar | list
# section path -> key -> value, sections and keys in file order
Document = dict[tuple[str, ...], dict[str, Value]]


class SectionSyntaxError(InputError):
    prefix = "syntax error: "

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


_HEADER_RE = re.compile(r"\[([A-Za-z0-9_]+(?:\.[A-Za-z0-9_]+)*)\]\s*$")
# a quoted string up to its first unescaped quote, with the blanks around it
_STRING_RE = re.compile(r'\s*"((?:[^"\\]|\\.)*)"\s*')


def _scan(line: str) -> tuple[str, list[int], bool]:
    # one pass over a line: the line less its comment, the commas outside
    # quotes, and whether a quote is left open; a quote after an odd number
    # of backslashes is escaped and toggles nothing
    commas: list[int] = []
    in_quote = False
    backslashes = 0
    for i, ch in enumerate(line):
        if ch == "\\":
            backslashes += 1
            continue
        if ch == '"' and not backslashes % 2:
            in_quote = not in_quote
        elif ch == "#" and not in_quote:
            return line[:i], commas, False
        elif ch == "," and not in_quote:
            commas.append(i)
        backslashes = 0
    return line, commas, in_quote


def _parse_scalar(raw: str, line: int, col: int) -> Scalar:
    text = raw.strip()
    if not text:
        raise SectionSyntaxError("empty value element", line, col + 1)
    if text[0].isdigit() or text[0] in "+-." and len(text) > 1:
        try:
            return parse_quantity(text)
        except UnitError as exc:
            raise SectionSyntaxError(str(exc), line, col + 1) from None
    if text[0] == '"':  # _scan saw the closing quote
        string = _STRING_RE.match(raw)
        if string.end() < len(raw):  # only a comma or the end may follow
            raise SectionSyntaxError("text after closing quote", line,
                                     col + string.end() + 1)
        return string[1].replace('\\"', '"').replace("\\\\", "\\")
    if text == "true":
        return True
    if text == "false":
        return False
    if text.isidentifier() and text.isascii():
        return text
    raise SectionSyntaxError(f"cannot parse value {text!r}", line, col + 1)


def read_text(path: str | os.PathLike, inputs: dict | None = None) -> str:
    """UTF-8 text of an input file, one leading byte order mark dropped;
    other bytes are an OSError naming the file and the offset in it.
    ``inputs`` keeps the bytes read by path. Line endings are left to
    :func:`parse_document`."""
    with open(path, "rb") as handle:
        data = handle.read()
    if inputs is not None:
        inputs[path] = data
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise OSError(errno.EILSEQ, f"not UTF-8 text ({exc.reason} at "
                      f"byte {exc.start})", os.fspath(path)) from None


def parse_document(text: str) -> Document:
    """Parse a sectioned key-value document into ``{path: {key: value}}``,
    with LF, CRLF and CR each ending a line.

    Raises:
        SectionSyntaxError: on any grammar violation, with line and column.
    """
    doc: Document = {}
    entries: dict[str, Value] | None = None
    name = ""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(lines, start=1):
        if '"' in line or "#" in line or "," in line:  # else nothing to scan
            line, commas, open_quote = _scan(line)
        else:
            commas, open_quote = (), False
        stripped = line.strip()
        if not stripped:
            continue
        if stripped[0] == "[":
            m = _HEADER_RE.match(stripped)
            if not m:
                raise SectionSyntaxError("malformed section header", lineno,
                                         line.index("[") + 1)
            name = m.group(1)
            path = tuple(name.split("."))
            if path in doc:
                raise SectionSyntaxError(f"duplicate section [{name}]",
                                         lineno, line.index("[") + 1)
            entries = doc[path] = {}
            continue
        key_part, equals, value_part = line.partition("=")
        if not equals:
            raise SectionSyntaxError("expected 'key = value' or section header",
                                     lineno, len(line) - len(line.lstrip()) + 1)
        if entries is None:
            raise SectionSyntaxError("entry before any section header", lineno, 1)
        key = key_part.strip()
        if not (key.isidentifier() and key.isascii()):
            raise SectionSyntaxError(f"invalid key {key!r}", lineno,
                                     len(key_part) - len(key_part.lstrip()) + 1)
        if key in entries:
            raise SectionSyntaxError(
                f"duplicate key {key!r} in section [{name}]", lineno, 1)
        # a valid key holds no quote or comma: both lie in the value
        start = len(key_part) + 1
        if open_quote:  # the string opens in the last element
            raise SectionSyntaxError("unterminated string", lineno,
                                     (commas[-1] + 1 if commas else start) + 1)
        if commas:
            entries[key] = [
                _parse_scalar(line[a + 1:b], lineno, a + 1)
                for a, b in zip([start - 1, *commas], [*commas, len(line)])]
        else:
            entries[key] = _parse_scalar(value_part, lineno, start)
    return doc


# ---------------------------------------------------------------------- #
#  typed section reading
# ---------------------------------------------------------------------- #

class Diagnostic(NamedTuple):
    severity: str  # "error" | "warning"
    where: str
    message: str

    def render(self) -> str:
        return f"{self.severity}: [{self.where}] {self.message}"


class ValidationReport:
    __slots__ = ("diagnostics",)

    def __init__(self, diagnostics: list[Diagnostic] | None = None):
        self.diagnostics = [] if diagnostics is None else diagnostics

    def error(self, where: str, message: str) -> None:
        self.diagnostics.append(Diagnostic("error", where, message))

    def warning(self, where: str, message: str) -> None:
        self.diagnostics.append(Diagnostic("warning", where, message))

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    @property
    def ok(self) -> bool:
        return not self.errors

    def extend(self, other: "ValidationReport") -> None:
        self.diagnostics.extend(other.diagnostics)

    def render(self) -> str:
        return "\n".join(d.render() for d in self.diagnostics)


class SectionReader:
    """Typed access to one section, collecting diagnostics instead of raising.

    Every problem is reported at ``<section>.<key>`` and the reader returns
    the default, so one pass over a file reports all of its mistakes.
    """

    def __init__(self, path: tuple[str, ...], entries: dict[str, Value],
                 report: ValidationReport):
        self.path = path
        self.entries = entries
        self.name = ".".join(path)
        self.report = report
        self._consumed: set[str] = set()

    def _take(self, key: str, kind=object, expected="", default=None):
        value = self.entries.get(key)  # a parsed value is never None
        if value is None:
            return default
        self._consumed.add(key)
        if not isinstance(value, kind):
            self.error(key, f"expected {expected}")
            return default
        return value

    def error(self, key: str, message: str) -> None:
        self.report.error(f"{self.name}.{key}", message)

    def quantity(self, key: str, unit_text: str, default: float | None = None,
                 ) -> float | None:
        """The finite value expressed in ``unit_text``; a bare number is
        taken as already written in that unit, a percent value is an error."""
        value = self._take(key, (float, Quantity), "a quantity")
        if value.__class__ is Quantity:
            expected, scale = parse_unit(unit_text)
            if value.unit != expected:
                self.error(key, f"must be in {unit_text}")
                return default
            value = value.value / scale
        if value is None:
            return default
        if not math.isfinite(value):
            self.error(key, "must be finite")
            return default
        return value

    def _plain(self, key: str, percent: bool) -> float | None:
        """A finite dimensionless value, None if absent or reported."""
        value = self._take(key, (float, Quantity), "a quantity")
        if value.__class__ is Quantity:
            if not (percent and value.unit.dimensionless):
                self.error(key, "must be a plain number")
                return None
            value = value.value
        if value is not None and not math.isfinite(value):
            self.error(key, "must be finite")
            return None
        return value

    def number(self, key: str, default: float | None = None) -> float | None:
        """A finite plain number; a value written with a unit, ``percent``
        included, is an error."""
        value = self._plain(key, percent=False)
        return default if value is None else value

    def non_negative(self, key: str, unit_text: str | None,
                     default: float | None = None) -> float | None:
        """:meth:`quantity` in ``unit_text``, or :meth:`number` if that is
        None, with a value below zero reported at the key."""
        value = (self.number(key, default) if unit_text is None
                 else self.quantity(key, unit_text, default))
        if value is not None and value < 0:
            self.error(key, "cannot be negative")
            return default
        return value

    def years(self, key: str, default: int) -> int:
        """A whole number of years, at least 1; a fraction is reported, not
        truncated."""
        value = self.quantity(key, "y", default)
        if not float(value).is_integer():
            self.error(key, "expected a whole number of years")
            return default
        if value < 1:
            self.error(key, "must be at least 1 year")
            return default
        return int(value)

    def fraction(self, key: str, default: float | None = None) -> float | None:
        """A plain number in [0, 1]; ``percent`` values qualify."""
        value = self._plain(key, percent=True)
        if value is None:
            return default
        if not 0.0 <= value <= 1.0:
            self.error(key, f"fraction {value!r} outside [0, 1]")
            return default
        return value

    def text(self, key: str, default: str | None = None) -> str | None:
        return self._take(key, str, "text", default)

    def boolean(self, key: str, default: bool = False) -> bool:
        return self._take(key, bool, "true or false", default)

    def choice(self, key: str, words: tuple[str, ...],
               default: str | None = None) -> str | None:
        """One of ``words``, as the file writes it."""
        value = self._take(key)
        if value is None:
            return default
        if isinstance(value, str) and value in words:
            return value
        *names, last = words
        self.error(key, f"expected {', '.join(names)} or {last}")
        return default

    def ident_list(self, key: str) -> list[str] | None:
        """The identifiers at ``key``, [] when it is absent; None, reported
        once, when an item is not an identifier."""
        value = self._take(key)
        items = [] if value is None else (
            value if isinstance(value, list) else [value])
        if all(isinstance(item, str) for item in items):
            return items
        self.error(key, "expected identifiers")
        return None

    def raw_quantity(self, key: str) -> Quantity | None:
        value = self._take(key, (float, Quantity), "a quantity")
        return Quantity(value) if value.__class__ is float else value

    def require(self, *keys: str) -> None:
        """Report each of ``keys`` the section lacks as ``<key> is required``."""
        for key in keys:
            if key not in self.entries:
                self.error(key, f"{key} is required")

    def finish(self) -> None:
        """Report every key of the section that no typed read consumed."""
        for key in self.entries:
            if key not in self._consumed:
                self.error(key, "unknown key")
