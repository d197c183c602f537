"""One-at-a-time sensitivity of the bundled pair's profit verdict.

Tall wheatgrass beats rye on margin by 11.05 EUR/ha of about 150, so the
profit verdict is the paper's most fragile conclusion (ISO 14044 §4.5.3.3
asks for this check before it is drawn). A gross margin is linear in each
price, yield and cost, so the margin difference D(k) with one farm input
scaled by k is D(1) + (k - 1) * (D(2) - D(1)), and the verdict flips at
k = 1 - D(1) / (D(2) - D(1)). The inputs are scaled in the farm text, so
the multipliers hold for the file as read, not for a model built in code.
"""

import re

import pytest

from cropgate.assess import compare_pair
from cropgate.farmspec import parse_farm_document

PAIR = ("tall_wheatgrass", "rye")

# multiplier at which the profit verdict flips, for every input of the pair
# whose break-even lies within +-10%; each is 1 - D(1) / (x * dD/dx) from
# the bundled figures, e.g. 1 - 11.0519 / (43.83 * (5.50 - 1.07)) for straw
BREAK_EVENS = {
    ("prices", "straw"): 0.943080,
    ("prices", "rye_grain"): 1.046430,
    ("crop.rye", "grain_yield"): 1.046430,
    ("crop.rye.costs", "machinery_labor"): 0.932815,
    ("crop.tall_wheatgrass", "straw_yield"): 0.954154,
    ("crop.tall_wheatgrass.costs", "machinery_labor"): 1.083822,
}

_NUMBER_LINE = re.compile(r"^(\w+) = ([0-9.]+)( \S+)?(\s*#.*)?$")


def _sections(text: str) -> list[tuple[str, list[str]]]:
    """The farm text as (section name, lines) in file order; the name of
    the lines before the first header is ''."""
    sections = [("", [])]
    for line in text.splitlines():
        header = re.match(r"\[([\w.]+)\]$", line)
        if header:
            sections.append((header.group(1), []))
        sections[-1][1].append(line)
    return sections


def _inputs(text: str) -> list[tuple[str, str]]:
    """Every price, yield and cost line of the pair and the area aid, as
    (section, key): the farm inputs a margin is linear in."""
    wanted = {"farm": {"cap_aid"}, "prices": None}
    for crop in PAIR:
        wanted[f"crop.{crop}"] = {"grain_yield", "straw_yield"}
        wanted[f"crop.{crop}.costs"] = None  # every cost key
    found = []
    for name, lines in _sections(text):
        for line in lines:
            match = _NUMBER_LINE.match(line)
            if match and name in wanted and (wanted[name] is None
                                             or match.group(1) in wanted[name]):
                found.append((name, match.group(1)))
    return found


def _scaled(text: str, section: str, key: str, k: float) -> str:
    """The farm text with the number at ``section``.``key`` times ``k``."""
    out, done = [], 0
    for name, lines in _sections(text):
        for line in lines:
            match = _NUMBER_LINE.match(line)
            if name == section and match and match.group(1) == key:
                line = (f"{key} = {float(match.group(2)) * k!r}"
                        f"{match.group(3) or ''}")
                done += 1
            out.append(line)
    assert done == 1, (section, key)
    return "\n".join(out) + "\n"


@pytest.fixture(scope="module")
def farm_text(farm_path):
    with open(farm_path, encoding="utf-8") as handle:
        return handle.read()


def _margin(text: str, factor_db) -> tuple[float, str]:
    """Margin difference (first minus second crop, EUR/ha) and verdict."""
    pair = compare_pair(parse_farm_document(text), factor_db)
    assert (pair.first.crop_name, pair.second.crop_name) == PAIR
    return pair.margin_difference_eur_ha, pair.verdicts["profit_margin"]


@pytest.fixture(scope="module")
def break_evens(farm_text, factor_db) -> dict[tuple[str, str], float | None]:
    """(section, key) -> the multiplier that flips the profit verdict, or
    None for an input the margin difference does not depend on."""
    base, verdict = _margin(farm_text, factor_db)
    assert verdict == "tall_wheatgrass"
    found = {}
    for section, key in _inputs(farm_text):
        doubled, _ = _margin(_scaled(farm_text, section, key, 2.0), factor_db)
        slope = doubled - base
        found[section, key] = None if slope == 0.0 else 1.0 - base / slope
    return found


def test_every_linear_input_of_the_pair_is_covered(break_evens):
    # the aid, six prices, three yields and eight costs
    assert len(break_evens) == 18
    # the aid is paid on both crops alike; the pair sells no wheat grain
    assert break_evens["farm", "cap_aid"] is None
    assert break_evens["prices", "wheat_grain"] is None


def test_six_inputs_flip_the_profit_verdict_within_ten_percent(break_evens):
    near = {name: k for name, k in break_evens.items()
            if k is not None and 0.9 <= k <= 1.1}
    assert near == pytest.approx(BREAK_EVENS, abs=1e-6)


@pytest.mark.parametrize("name", sorted(BREAK_EVENS),
                         ids=[".".join(name) for name in sorted(BREAK_EVENS)])
def test_verdict_flips_at_the_break_even(name, break_evens, farm_text,
                                         factor_db):
    k = break_evens[name]
    below = _margin(_scaled(farm_text, *name, k * (1 - 1e-6)), factor_db)
    above = _margin(_scaled(farm_text, *name, k * (1 + 1e-6)), factor_db)
    # the side of the threshold that holds k = 1 keeps the paper's verdict
    kept, flipped = (above, below) if k < 1.0 else (below, above)
    assert kept[1] == "tall_wheatgrass" and kept[0] > 0.0
    assert flipped[1] == "rye" and flipped[0] < 0.0
