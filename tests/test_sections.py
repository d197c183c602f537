"""Grammar of the sectioned key-value files, including the serializer."""

import pytest
from hypothesis import given, settings

from conftest import documents
from oracles import serialize_document
from cropgate.factors import load_factor_db
from cropgate.farmspec import parse_farm_document
from cropgate.sections import (SectionReader, SectionSyntaxError,
                               ValidationReport, parse_document, read_text)


SAMPLE = """
# leading comment
[farm]
name = "Soria cereal holding"   # trailing comment
total_area = 302 ha
marginal_pair = tall_wheatgrass, rye

[crop.rye.costs]
seed = 31.00 EUR/ha
flag = true
"""


def test_basic_document():
    doc = parse_document(SAMPLE)
    assert list(doc) == [("farm",), ("crop", "rye", "costs")]
    farm = doc["farm",]
    assert farm["name"] == "Soria cereal holding"
    assert farm["total_area"] == (302.0, "ha")
    assert farm["marginal_pair"] == ["tall_wheatgrass", "rye"]
    costs = doc["crop", "rye", "costs"]
    assert costs["flag"] is True
    assert costs["seed"] == (31.0, "EUR/ha")


def test_crlf_and_order_independence():
    crlf = SAMPLE.replace("\n", "\r\n")
    assert serialize_document(parse_document(crlf)) \
        == serialize_document(parse_document(SAMPLE))


def test_comment_inside_string_is_kept():
    assert parse_document('[s]\nk = "a # b"\n') == {("s",): {"k": "a # b"}}


def test_comment_after_a_string_with_hash_and_escaped_quote():
    doc = parse_document('[s]\nk = "x \\"#\\" y" # note\nj = 1\n')
    assert doc["s",]["k"] == 'x "#" y'
    assert doc["s",]["j"] == 1.0


def test_comma_inside_string_is_one_scalar():
    assert parse_document('[s]\nk = "a, b"\n') == {("s",): {"k": "a, b"}}


def test_escapes_in_strings():
    doc = parse_document('[s]\nk = "say \\"hi\\" \\\\ there"\n')
    assert doc["s",]["k"] == 'say "hi" \\ there'


# grammar errors: text, line, column, a fragment of the message
SYNTAX_ERRORS = [
    ("[farm", 1, 1, "malformed section header"),
    ("[fa rm]", 1, 1, "malformed section header"),
    ("key = 1", 1, 1, "entry before any section"),
    ("[s]\nnonsense line", 2, 1, "expected 'key = value'"),
    ("[s]\nk = 1\nk = 2", 3, 1, "duplicate key"),
    ("[s]\n[s]", 2, 1, "duplicate section"),
    ('[s]\nk = "open', 2, 4, "unterminated string"),
    ("[s]\nk = ", 2, 4, "empty value"),
    ("[s]\nk = a, , b", 2, 7, "empty value element"),
    ("[s]\n2bad = 1", 2, 1, "invalid key"),
    ("[s]\nk = 3 wombats", 2, 4, "unknown unit"),
    # a column counts from the start of the line, across blanks, tabs,
    # the '=' and the elements before it
    ("[s]\n  k =   3 wombats", 2, 6, "unknown unit"),
    ("[s]\nk = 1 ha, 3 wombats", 2, 10, "unknown unit"),
    ("[s]\n\tk\t=\t1 ha,2 wombats # c", 2, 11, "unknown unit"),
    ("[s]\nk = 1 ha = 2", 2, 4,
     "cannot parse unit 'ha = 2' at position 3"),
    ("[s]\nk = a b", 2, 4, "cannot parse value 'a b'"),
    ("[s]\n k = x\n k = y", 3, 1, "duplicate key"),
    # an unescaped quote closes the string: a comma or the end must follow
    ('[s]\nk = "ab" "cd"', 2, 10, "text after closing quote"),
    ('[s]\nk = "ab"cd', 2, 9, "text after closing quote"),
    ('[s]\nk = "a"b, c', 2, 8, "text after closing quote"),
    # outside a string an escaped quote opens nothing: the '#' is a comment
    ('[s]\nk = a\\"b # c', 2, 4, "cannot parse value"),
    ('[s]\nk = "a", "b', 2, 9, "unterminated string"),
]

# a quote is escaped after an odd number of backslashes only
ESCAPE_VALUES = [
    # an even run closes the string, and a comment or a comma may follow
    ('k = "a\\\\" # c', "a\\"),
    ('k = "a\\\\", b', ["a\\", "b"]),
    # a quote in a comment is inert
    ('k = 1 # "', 1.0),
]


@pytest.mark.parametrize("line,value", ESCAPE_VALUES,
                         ids=[line for line, _ in ESCAPE_VALUES])
def test_escape_rule_at_its_edges(line, value):
    assert parse_document("[s]\n" + line) == {("s",): {"k": value}}


class TestErrors:
    @pytest.mark.parametrize(
        "text,line,column,fragment", SYNTAX_ERRORS,
        ids=[f"{text}-{fragment}" for text, _, _, fragment in SYNTAX_ERRORS])
    def test_syntax_errors(self, text, line, column, fragment):
        with pytest.raises(SectionSyntaxError) as err:
            parse_document(text)
        assert fragment in str(err.value)
        assert (err.value.line, err.value.column) == (line, column)

    def test_error_carries_line_and_column(self):
        with pytest.raises(SectionSyntaxError) as err:
            parse_document("[ok]\nkey = 1\n[broken\n")
        assert err.value.line == 3
        assert err.value.column == 1


def test_no_break_spaces_around_a_plain_entry():
    # str.strip takes U+00A0 as whitespace, as the grammar does
    doc = parse_document("[s]\n\u00a0k\u00a0=\u00a01\u00a0ha\u00a0")
    value = doc["s",]["k"]
    assert value.__class__ is tuple
    assert value == (1.0, "ha")


class TestReadText:
    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "f.cg"
        path.write_bytes(b"\xef\xbb\xbf[s]\nk = 1\n")
        assert read_text(path) == "[s]\nk = 1\n"
        # only one: a second mark is text, which the grammar rejects
        path.write_bytes(b"\xef\xbb\xbf" * 2)
        assert read_text(path) == "\ufeff"

    def test_decode_offset_counts_the_mark(self, tmp_path):
        path = tmp_path / "f.cg"
        path.write_bytes(b"\xef\xbb\xbfab\xff")
        with pytest.raises(OSError) as err:
            read_text(path)
        assert err.value.filename == str(path)
        assert err.value.strerror == (
            "not UTF-8 text (invalid start byte at byte 5)")

    def test_every_line_ending_parses_as_lf(self, tmp_path):
        path = tmp_path / "f.cg"
        path.write_bytes(b"[s]\r\nk = 1\rj = 2\n\r\n")
        assert parse_document(read_text(path)) \
            == parse_document("[s]\nk = 1\nj = 2\n\n")

    @pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_bundled_files_given_as_text_read_as_from_their_path(
            self, ending, farm_path, factors_path):
        """CRLF and CR-only copies of the bundled files, passed as strings,
        give the farm model and the factor records of the LF text."""
        farm, factors = read_text(farm_path), read_text(factors_path)
        assert parse_farm_document(farm.replace("\n", ending)) \
            == parse_farm_document(farm)
        db = load_factor_db(factors.replace("\n", ending))
        assert vars(db) == vars(load_factor_db(factors))
        assert len(db.records) == 19

    def test_bytes_read_are_kept_by_path(self, tmp_path):
        path = str(tmp_path / "f.cg")
        with open(path, "wb") as handle:
            handle.write(b"\xef\xbb\xbf[s]\r\n")
        inputs = {}
        read_text(path, inputs)
        assert inputs == {path: b"\xef\xbb\xbf[s]\r\n"}


@given(documents())
@settings(max_examples=1000, deadline=None)
def test_round_trip_property(mapping):
    """serialize -> parse gives back exactly the same values."""
    assert parse_document(serialize_document(mapping)) == mapping


def test_round_trip_shipped_files(farm_path, factors_path):
    for path in (farm_path, factors_path):
        with open(path, encoding="utf-8") as handle:
            doc = parse_document(handle.read())
        assert parse_document(serialize_document(doc)) == doc


def test_parsed_values_are_plain_data(farm_path, factors_path):
    """Each value of the bundled files and of the generated holdings is a
    float, a str, a bool, a (float, str) pair or a list of the others: a
    sequence is never a tuple, so it is never taken for a pair."""
    import engine_digest
    texts = [read_text(farm_path), read_text(factors_path)]
    for kind in ("farm_scaled", "seed_chain"):
        for seed in engine_digest.SEEDS:
            texts += getattr(engine_digest.gen, kind)(engine_digest.ROOT,
                                                      seed)[:2]
    seen = set()
    for text in texts:
        for entries in parse_document(text).values():
            for value in entries.values():
                seen.add(value.__class__)
                items = value if value.__class__ is list else [value]
                for item in items:
                    if item.__class__ is tuple:
                        assert [part.__class__ for part in item] \
                            == [float, str], item
                    else:
                        assert item.__class__ in (float, str, bool), item
    assert seen == {float, str, bool, list, tuple}


def test_comments_are_inert_in_shipped_files(farm_path, factors_path):
    """A quote, a backslash and a comma at the end of every comment leave
    the document as it was."""
    for path in (farm_path, factors_path):
        text = read_text(path)
        lines = text.split("\n")
        damaged = [line + ' "\\,' if "#" in line else line for line in lines]
        assert damaged != lines
        assert parse_document("\n".join(damaged)) == parse_document(text)


@pytest.mark.parametrize("text", ["abc\n", "a\r\nb", "\r"], ids=repr)
@pytest.mark.parametrize("as_list", [False, True], ids=["value", "item"])
def test_text_with_a_line_break_is_not_written(text, as_list):
    """The grammar has no escape for a line break: the serializer refuses
    the value instead of writing text that does not parse back."""
    value = ["plain", text] if as_list else text
    doc = {("crop", "rye"): {"ok": "x", "name": value}}
    with pytest.raises(ValueError, match=r"^\[crop\.rye\]\.name: "):
        serialize_document(doc)


@pytest.mark.parametrize("char", ["\t", "\x0b", "\x0c", "\x1c", "\x85",
                                  "\u2028", "\x00"], ids=repr)
@pytest.mark.parametrize("form", ["{}", "x{}y"])
def test_other_control_characters_round_trip(char, form, tmp_path):
    text = form.format(char)
    mapping = {("s",): {"text": text, "items": ["a", text]}}
    written = serialize_document(mapping)
    assert parse_document(written) == mapping
    path = tmp_path / "doc.cg"
    path.write_bytes(written.encode("utf-8"))
    assert parse_document(read_text(path)) == mapping


# what each typed read makes of a bare number, a written 1, a percent and
# a real unit: the value, or the one diagnostic at the key
READING_RULES = [
    ("0.27", "number", 0.27),
    ("0.27", "fraction", 0.27),
    ("0.27", "quantity", 0.27),
    ("0.27", "raw_quantity", (0.27, "1")),
    ("0.27 1", "number", "must be a plain number"),
    ("0.27 1", "fraction", 0.27),
    ("0.27 1", "quantity", "must be in Mg/ha"),
    ("0.27 1", "raw_quantity", (0.27, "1")),
    ("27 percent", "number", "must be a plain number"),
    ("27 percent", "fraction", 0.27),
    ("27 percent", "quantity", "must be in Mg/ha"),
    ("27 percent", "raw_quantity", (0.27, "1")),
    ("270 kg/ha", "number", "must be a plain number"),
    ("270 kg/ha", "fraction", "must be a plain number"),
    ("270 kg/ha", "quantity", 0.27),
    ("270 kg/ha", "raw_quantity", (0.27, "Mg/ha")),
]


@pytest.mark.parametrize("text,read,expected", READING_RULES,
                         ids=[f"{text}-{read}" for text, read, _
                              in READING_RULES])
def test_reading_rules(text, read, expected):
    report = ValidationReport()
    reader = SectionReader(("s",), parse_document(f"[s]\nk = {text}")["s",],
                           report)
    value = (reader.quantity("k", "Mg/ha") if read == "quantity"
             else getattr(reader, read)("k"))
    if isinstance(expected, str):
        assert value is None
        assert report.render() == f"error: [s.k] {expected}"
    else:
        assert value == expected
        assert report.diagnostics == []


def test_a_bare_number_parses_to_a_float():
    """A written unit, ``1`` and ``percent`` too, makes a (value, unit)
    pair; a bare number is a float, alone and in a comma list."""
    doc = parse_document("[s]\na = 0.27\nb = 0.27 1\nc = 27 percent\n"
                         "d = 270 kg/ha\nitems = 0.27, 0.27 1, 27 percent, "
                         "270 kg/ha\n")
    one = (0.27, "1")
    expected = [0.27, one, one, (0.27, "Mg/ha")]
    values = doc["s",]
    assert [values[key] for key in "abcd"] == expected == values["items"]
    assert [value.__class__ for value in values["items"]] \
        == [float, tuple, tuple, tuple]
