"""Grammar of the sectioned key-value files, including the serializer."""

import pytest
from hypothesis import given, settings

from conftest import documents
from cropgate.sections import (Document, Section, SectionSyntaxError,
                               parse_document, serialize_document)


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
    assert [s.name for s in doc.sections] == ["farm", "crop.rye.costs"]
    farm = doc.section("farm")
    assert farm.get("name") == "Soria cereal holding"
    assert farm.get("total_area").to("ha") == 302.0
    assert farm.get("marginal_pair") == ["tall_wheatgrass", "rye"]
    costs = doc.section("crop", "rye", "costs")
    assert costs.get("flag") is True
    assert costs.get("seed").to("EUR/ha") == 31.0


def test_crlf_and_order_independence():
    crlf = SAMPLE.replace("\n", "\r\n")
    assert serialize_document(parse_document(crlf)) \
        == serialize_document(parse_document(SAMPLE))


def test_find_prefix():
    doc = parse_document("[crop.a]\n[crop.b]\n[soil.x.y]\n")
    assert [s.name for s in doc.find("crop")] == ["crop.a", "crop.b"]
    assert [s.name for s in doc.find("soil", "x")] == ["soil.x.y"]


def test_comment_inside_string_is_kept():
    doc = parse_document('[s]\nk = "a # b"\n')
    assert doc.section("s").get("k") == "a # b"


def test_comment_after_a_string_with_hash_and_escaped_quote():
    doc = parse_document('[s]\nk = "x \\"#\\" y" # note\nj = 1\n')
    assert doc.section("s").get("k") == 'x "#" y'
    assert doc.section("s").get("j").value == 1.0


def test_comma_inside_string_is_one_scalar():
    doc = parse_document('[s]\nk = "a, b"\n')
    assert doc.section("s").get("k") == "a, b"


def test_escapes_in_strings():
    doc = parse_document('[s]\nk = "say \\"hi\\" \\\\ there"\n')
    assert doc.section("s").get("k") == 'say "hi" \\ there'


class TestErrors:
    @pytest.mark.parametrize("text,fragment", [
        ("[farm", "malformed section header"),
        ("[fa rm]", "malformed section header"),
        ("key = 1", "entry before any section"),
        ("[s]\nnonsense line", "expected 'key = value'"),
        ("[s]\nk = 1\nk = 2", "duplicate key"),
        ("[s]\n[s]", "duplicate section"),
        ('[s]\nk = "open', "unterminated string"),
        ("[s]\nk = ", "empty value"),
        ("[s]\nk = a, , b", "empty value element"),
        ("[s]\n2bad = 1", "invalid key"),
        ("[s]\nk = 3 wombats", "unknown unit"),
    ])
    def test_syntax_errors(self, text, fragment):
        with pytest.raises(SectionSyntaxError) as err:
            parse_document(text)
        assert fragment in str(err.value)

    def test_error_carries_line_and_column(self):
        with pytest.raises(SectionSyntaxError) as err:
            parse_document("[ok]\nkey = 1\n[broken\n")
        assert err.value.line == 3
        assert err.value.column == 1


def _as_plain(doc: Document) -> dict:
    return {section.path: {key: entry.value
                           for key, entry in section.entries.items()}
            for section in doc.sections}


def _build_document(mapping: dict) -> Document:
    from cropgate.sections import Entry
    doc = Document()
    for path, entries in mapping.items():
        section = Section(path=path)
        for key, value in entries.items():
            section.entries[key] = Entry(key=key, value=value, line=0)
        doc.sections.append(section)
    return doc


@given(documents())
@settings(max_examples=1000, deadline=None)
def test_round_trip_property(mapping):
    """serialize -> parse gives back exactly the same values."""
    doc = _build_document(mapping)
    again = parse_document(serialize_document(doc))
    assert _as_plain(again) == mapping


def test_round_trip_shipped_files(farm_path, factors_path):
    for path in (farm_path, factors_path):
        with open(path, encoding="utf-8") as handle:
            doc = parse_document(handle.read())
        assert _as_plain(parse_document(serialize_document(doc))) \
            == _as_plain(doc)
