"""One-at-a-time sensitivity of the bundled pair's verdicts.

Tall wheatgrass beats rye on margin by 11.05 EUR/ha of about 150, so the
profit verdict is the paper's most fragile conclusion (ISO 14044 §4.5.3.3
asks for this check before it is drawn). A gross margin is linear in each
price, yield and cost, so the margin difference D(k) with one farm input
scaled by k is D(1) + (k - 1) * (D(2) - D(1)), and the verdict flips at
k = 1 - D(1) / (D(2) - D(1)). The inputs are scaled in the farm text, so
the multipliers hold for the file as read, not for a model built in code.

The impact verdicts are far from a flip: no single factor scaled by 0.5, 2
or 10, and no single farm input of the pair halved or doubled, flips the
GWP or the primary energy verdict. The variant that comes nearest to
flipping each is pinned with its figure.
"""

import re

import pytest

from cropgate import CropgateError
from cropgate.assess import compare_pair
from cropgate.factors import FactorDB
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


# ----------------------------------------------------------------------- #
#  the impact verdicts
# ----------------------------------------------------------------------- #

PAIR_WINS = {"profit_margin": "tall_wheatgrass",
             "net_gwp": "tall_wheatgrass",
             "primary_energy": "tall_wheatgrass"}
_RECORD_FIELDS = ("gwp100", "pe_renewable", "pe_nonrenewable")


def _impact(pair) -> tuple[float, float]:
    """How far the pair is from flipping each impact verdict: rye's net GWP
    less tall wheatgrass's (Mg CO2e/ha*y), and tall wheatgrass's primary
    energy as a share of rye's."""
    first, second = pair.first, pair.second
    return (second.gwp.net_total - first.gwp.net_total,
            first.energy.total / second.energy.total)


def _nearest(found: dict) -> tuple:
    """The variants nearest to flipping the GWP and the energy verdict."""
    return (min(found, key=lambda variant: found[variant][0]),
            max(found, key=lambda variant: found[variant][1]))


def _factor_variants(db: FactorDB):
    """(name, k, database) with one record field or one gas GWP times k."""
    for flow_id, record in db.records.items():
        for field in _RECORD_FIELDS:
            for k in (0.5, 2.0, 10.0):
                scaled = record._replace(**{field: getattr(record, field) * k})
                yield (f"{flow_id}.{field}", k,
                       FactorDB({**db.records, flow_id: scaled}, db.gases,
                                db.emissions, db.exhaust))
    for gas, gwp in db.gases.items():
        for k in (0.5, 2.0, 10.0):
            yield (f"gas.{gas}", k, FactorDB(db.records, {**db.gases,
                                                          gas: gwp * k},
                                             db.emissions, db.exhaust))


def test_no_factor_or_gas_gwp_scaled_alone_flips_a_verdict(farm_model,
                                                           factor_db):
    found = {}
    for name, k, db in _factor_variants(factor_db):
        pair = compare_pair(farm_model, db)
        assert pair.verdicts == PAIR_WINS, (name, k)
        found[name, k] = _impact(pair)
    assert len(found) == 19 * 3 * 3 + 3 * 3
    # nearest to a flip: halving the base fertilizer's GWP helps rye most,
    # and ten times the top dressing's energy leaves the grass at 59.8%
    nearest_gwp, nearest_energy = _nearest(found)
    assert (nearest_gwp, nearest_energy) \
        == (("npk_8_24_8.gwp100", 0.5), ("can_27.pe_nonrenewable", 10.0))
    assert found[nearest_gwp][0] == pytest.approx(3.5373, abs=1e-4)
    assert found[nearest_energy][1] == pytest.approx(0.5977, abs=1e-4)


def test_no_farm_input_of_the_pair_scaled_alone_flips_an_impact_verdict(
        farm_text, farm_model, factor_db):
    """Every number of [farm], of the pair's crop sections and of the
    products the pair applies, halved and doubled, where the farm still
    validates."""
    products = {f"product.{entry.product_id}" for name in PAIR
                for entry in (*farm_model.crop(name).fertilizations,
                              *farm_model.crop(name).herbicides)}
    inputs = [(name, match.group(1)) for name, lines in _sections(farm_text)
              if name == "farm" or name in products
              or any(name == f"crop.{crop}" or name.startswith(f"crop.{crop}.")
                     for crop in PAIR)
              for match in map(_NUMBER_LINE.match, lines) if match]
    found, invalid = {}, []
    for section, key in inputs:
        for k in (0.5, 2.0):
            try:
                model = parse_farm_document(_scaled(farm_text, section, key,
                                                    k))
            except CropgateError:
                invalid.append((section, key, k))
                continue
            pair = compare_pair(model, factor_db)
            for metric in ("net_gwp", "primary_energy"):
                assert pair.verdicts[metric] == PAIR_WINS[metric], \
                    (section, key, k)
            found[section, key, k] = _impact(pair)
    # the areas no longer add up, or the active fraction passes 100%
    assert invalid == [("farm", "total_area", 0.5), ("farm", "total_area", 2.0),
                       ("farm", "marginal_area", 0.5),
                       ("farm", "marginal_area", 2.0),
                       ("product.d24_acid", "active_fraction", 2.0)]
    assert len(inputs) == 37 and len(found) == 69
    # nearest to a flip: half the soil carbon credit, and half the horizon
    # over which the grass's establishment inputs are spread
    nearest_gwp, nearest_energy = _nearest(found)
    assert (nearest_gwp, nearest_energy) \
        == (("crop.tall_wheatgrass", "soc_fixation", 0.5),
            ("farm", "amortization_horizon", 0.5))
    assert found[nearest_gwp][0] == pytest.approx(2.4735, abs=1e-4)
    assert found[nearest_energy][1] == pytest.approx(0.5693, abs=1e-4)
