"""The exact oracle of ``test_matrix_oracle`` on generated holdings.

:func:`holdings` writes a valid farm file and a valid factor file as text:
2-8 crops of which the first two are the marginal pair, seed multiplied on
the farm (a dose/yield ratio r in (0, 0.999]), bought or not sown,
perennials with establishment timings and costs, herbicide doses by volume
and by mass, soil carbon from a fixation, from an analysis pair or from
neither, per-crop N2O parameters or the Tier 1 default, and factor records
dropped under ``--cutoff-missing``. Every number is written bare, with
``1``, in ``percent`` or with a unit or one of its aliases, wherever the
format allows each.

Each holding is parsed through the command's readers; every crop then
passes :func:`test_matrix_oracle.check_crop` and both farm incomes of the
pair pass :func:`test_economics.check_farm_income`. The example count
defaults to a tier-1 budget; set ``CROPGATE_HOLDING_EXAMPLES`` for a longer
run.
"""

import functools
import os

from hypothesis import HealthCheck, given, settings, strategies as st

from test_economics import check_farm_income
from test_matrix_oracle import check_crop
from cropgate.factors import load_factor_db
from cropgate.farmspec import (MACHINERY_FLOWS, SEED_CHAIN_FLOWS,
                               parse_farm_document)

EXAMPLES = int(os.environ.get("CROPGATE_HOLDING_EXAMPLES", "30"))

# the ways to write a value of a canonical unit: (unit text, its value in
# the canonical unit); None writes the number bare, which the readers take
# in the key's unit
_WRITTEN = {
    "Mg/ha": ((None, 1.0), ("Mg/ha", 1.0), ("kg/ha", 1e-3), ("g/ha", 1e-6)),
    "L/ha": ((None, 1.0), ("L/ha", 1.0), ("m3/ha", 1e3)),
    "ha": ((None, 1.0), ("ha", 1.0)),
    "y": ((None, 1.0), ("y", 1.0)),
    "m": ((None, 1.0), ("m", 1.0)),
    "Mg/m3": ((None, 1.0), ("Mg/m3", 1.0), ("kg/L", 1.0)),
    "EUR/ha": ((None, 1.0), ("EUR/ha", 1.0)),
    "EUR/Mg": ((None, 1.0), ("EUR/Mg", 1.0)),
    "kg/L": ((None, 1.0), ("kg/L", 1.0)),
    "kg/ha": ((None, 1.0), ("kg/ha", 1.0), ("Mg/ha", 1e3)),
}
# a herbicide dose takes its unit from the text: no bare number
_DOSES = {"L/ha": (("L/ha", 1.0), ("m3/ha", 1e3)),
          "Mg/ha": (("Mg/ha", 1.0), ("kg/ha", 1e-3), ("g/ha", 1e-6))}
# a factor record's basis: (unit, its size in Mg or L)
_MASS_BASES = (("Mg", 1.0), ("kg", 1e-3), ("g", 1e-6))
_VOLUME_BASES = (("L", 1.0), ("m3", 1e3))

FERTILIZERS = ("fert_label", "fert_split")
HERBICIDES = ("herb_liquid", "herb_solid", "herb_any")
SEED_FLOW = "seed_bought"
# every flow with a factor record, and the records a holding may drop
RECORDED = (*FERTILIZERS, *HERBICIDES, *MACHINERY_FLOWS.values(),
            *SEED_CHAIN_FLOWS, SEED_FLOW, "diesel")


# strategies are built once: a new one validates itself on its first draw
_sampled = functools.lru_cache(maxsize=None)(st.sampled_from)
_integers = functools.lru_cache(maxsize=None)(st.integers)


@functools.lru_cache(maxsize=None)
def _floats(low: float, high: float):
    """Numbers in [low, high]; one below a millionth of the range is 0, so
    that no product underflows: the oracle's bounds hold above the
    subnormal range only."""
    tiny = (high - low) * 1e-6
    return st.floats(low, high).map(lambda v: 0.0 if abs(v) < tiny else v)


_HERBICIDE_SETS = st.lists(_sampled(HERBICIDES), max_size=2, unique=True)
_MACHINE_SETS = st.lists(_sampled(tuple(MACHINERY_FLOWS)), unique=True)
_DROPS = st.lists(_sampled(RECORDED), max_size=3, unique=True)
_GAS_SETS = st.lists(_sampled(("co2", "ch4", "n2o")), unique=True)
# r = yearly dose / seed yield; 1e-9 keeps the yield finite
_RATIOS = st.floats(1e-9, 0.999)


def _text(value: float, unit: str | None) -> str:
    number = f"{value:.6g}"
    return number if unit is None else f"{number} {unit}"


def _write(draw, value: float, unit: str, forms=_WRITTEN) -> str:
    """``value`` in ``unit``, written in one of its forms."""
    written, size = draw(_sampled(forms[unit]))
    return _text(value / size, written)


def _fraction(draw, value: float) -> str:
    """A fraction in [0, 1]: bare, with ``1`` or in ``percent``."""
    form = draw(_sampled((None, "1", "percent")))
    return _text(value * 100 if form == "percent" else value, form)


def _record(draw, flow_id: str, bases) -> list[str]:
    """A factor record per Mg or L, written on a drawn basis."""
    unit, size = draw(_sampled(bases))
    gwp, ren, non = (draw(_floats(low, high)) * size for low, high in (
        (0.0, 5000.0), (0.0, 3000.0), (0.0, 60000.0)))
    return [f"[flow.{flow_id}]", f"unit = {unit}", f"gwp100 = {gwp:.6g}",
            f"pe_renewable = {ren:.6g}", f"pe_nonrenewable = {non:.6g}", ""]


def _crop(draw, name: str, marginal: bool, horizon: int
          ) -> tuple[list[str], float, int]:
    """The sections of one crop, its grain yield and its area."""
    perennial = draw(st.booleans())

    def timing(lines: list[str], key: str = "timing") -> bool:
        """Whether the entry is an establishment input, written if so."""
        establishment = perennial and draw(st.booleans())
        if establishment:
            lines.append(f"{key} = establishment")
        return establishment

    area = 0 if marginal else draw(_integers(1, 50))
    lines = [f"[crop.{name}]",
             f"land_class = {'marginal' if marginal else 'non_marginal'}"]
    if area:
        lines.append(f"area = {_write(draw, area, 'ha')}")
    if perennial:
        lines += ["perennial = true",
                  f"life_span = {_write(draw, draw(_integers(2, 12)), 'y')}"]

    seed = draw(_sampled(("own", "external", "none")))
    if seed != "none":
        # the dose as the reader will hold it, so that r is the drawn one
        dose = float(f"{draw(_floats(0.005, 0.3)):.6g}")
        unit = draw(_sampled((None, "Mg/ha")))
        lines.append(f"sowing_dose = {_text(dose, unit)}")
        yearly = dose / horizon if timing(lines, "sowing_timing") else dose
        lines.append(f"seed_source = {seed}")
        if seed == "own":
            ratio = draw(_RATIOS)
            lines.append(f"seed_yield = {_text(yearly / ratio, 'Mg/ha')}")
        else:
            lines.append(f"seed_flow = {SEED_FLOW}")
    for role in ("base", "top"):
        if draw(st.booleans()):
            lines += [f"{role}_product = {draw(_sampled(FERTILIZERS))}",
                      f"{role}_dose = "
                      f"{_write(draw, draw(_floats(0.01, 0.5)), 'Mg/ha')}"]
            timing(lines, f"{role}_timing")
    grain = draw(_floats(0.5, 8.0)) if draw(st.booleans()) else 0.0
    if grain:
        lines.append(f"grain_yield = {_write(draw, grain, 'Mg/ha')}")
    straw = draw(_floats(0.5, 8.0))
    lines.append(f"straw_yield = {_write(draw, straw, 'Mg/ha')}")
    if draw(st.booleans()):
        sales = draw(_floats(100, 1500))
        lines.append(f"sales = {_write(draw, sales, 'EUR/ha')}")
    soil = draw(_sampled(("equilibrium", "fixation", "analyses")))
    if soil == "equilibrium":
        lines.append("soc_equilibrium = true")
    elif soil == "fixation":
        lines.append(f"soc_fixation = "
                     f"{_write(draw, draw(_floats(-0.5, 1.0)), 'Mg/ha')}")
    lines.append("")

    for product in draw(_HERBICIDE_SETS):
        basis = {"herb_liquid": "L/ha", "herb_solid": "Mg/ha"}.get(
            product, draw(_sampled(tuple(_DOSES))))
        dose = draw(_floats(0.2, 4.0)) if basis == "L/ha" \
            else draw(_floats(1e-5, 5e-4))
        lines += [f"[crop.{name}.herbicide.{product}]",
                  f"dose = {_write(draw, dose, basis, _DOSES)}"]
        timing(lines)
        lines.append("")
    for i in range(draw(_integers(0, 2))):
        lines.append(f"[crop.{name}.op.works_{i}]")
        timing(lines)
        if draw(st.booleans()):
            diesel = draw(_floats(5, 80))
            lines.append(f"diesel = {_write(draw, diesel, 'L/ha')}")
        for key in draw(_MACHINE_SETS):
            lines.append(f"{key} = "
                         f"{_write(draw, draw(_floats(1e-4, 5e-3)), 'Mg/ha')}")
        lines.append("")
    if draw(st.booleans()):
        parts = ["seed", "herbicide", "fertilizer", "machinery_labor"]
        if perennial:
            parts += [f"{part}_establishment" for part in parts]
        lines.append(f"[crop.{name}.costs]")
        lines += [f"{part} = {_write(draw, draw(_floats(0, 300)), 'EUR/ha')}"
                  for part in parts]
        lines.append("")
    return lines, grain, area


def _soil(draw, land_class: str) -> list[str]:
    """None, one or two analyses of one land class."""
    lines = []
    year = 2010
    for _ in range(draw(_integers(0, 2))):
        year += draw(_integers(1, 5))
        depth, density = draw(_floats(0.1, 0.5)), draw(_floats(0.9, 1.8))
        coarse, matter = draw(_floats(0, 0.6)), draw(_floats(0.005, 0.04))
        carbon = matter * draw(_floats(0.3, 0.7))
        lines += [f"[soil.{land_class}.{year}]",
                  f"depth = {_write(draw, depth, 'm')}",
                  f"bulk_density = {_write(draw, density, 'Mg/m3')}",
                  f"coarse_fraction = {_fraction(draw, coarse)}",
                  f"organic_matter = {_fraction(draw, matter)}",
                  f"organic_carbon = {_fraction(draw, carbon)}", ""]
    return lines


def _emissions(draw, name: str) -> tuple[list[str], bool]:
    """A crop's N2O section, if any, and whether its ef_direct is the
    Tier 1 default."""
    kind = draw(_sampled(("tier1", "params", "override")))
    if kind == "tier1":
        return [], True
    lines = [f"[emissions.{name}]"]
    if kind == "override":
        return lines + [f"override = "
                        f"{_write(draw, draw(_floats(0, 0.005)), 'Mg/ha')}",
                        ""], False
    written = draw(st.booleans())
    if written:
        ef_direct = draw(_floats(0.002, 0.03))
        lines.append(f"ef_direct = {_fraction(draw, ef_direct)}")
    lines += [f"residue_n = {_write(draw, draw(_floats(1, 40)), 'kg/ha')}",
              f"nh3_loss_fraction = {_fraction(draw, draw(_floats(0, 0.2)))}",
              f"ef_indirect_nh3 = {_fraction(draw, draw(_floats(0, 0.02)))}",
              ""]
    return lines, not written


@st.composite
def holdings(draw) -> tuple[str, str, bool, list[str]]:
    """(farm text, factor text, cutoff_missing, the crops whose ef_direct
    is the Tier 1 default)."""
    horizon = draw(_integers(1, 12))
    names = [f"crop_{i}" for i in range(draw(_integers(2, 8)))]
    marginal_area = draw(_integers(1, 60))
    crop_lines, prices, area = [], [], marginal_area
    for i, name in enumerate(names):
        lines, grain, crop_area = _crop(draw, name, i < 2, horizon)
        crop_lines += lines
        area += crop_area
        if grain:
            prices.append(f"{name}_grain = "
                          f"{_write(draw, draw(_floats(100, 350)), 'EUR/Mg')}")
    n, p, k = (draw(_integers(0, 30)) for _ in range(3))
    farm = [
        "[farm]", 'name = "generated"',
        f"total_area = {_write(draw, area, 'ha')}",
        f"marginal_area = {_write(draw, marginal_area, 'ha')}",
        f"cap_aid = {_write(draw, draw(_floats(0, 300)), 'EUR/ha')}",
        f"amortization_horizon = {_write(draw, horizon, 'y')}",
        f"marginal_pair = {names[0]}, {names[1]}", "",
        "[prices]", f"straw = {_write(draw, draw(_floats(10, 80)), 'EUR/Mg')}",
        *prices, "",
        "[product.fert_label]", "kind = fertilizer",
        f'label = "{n}-{p}-{k}"', "",
        "[product.fert_split]", "kind = fertilizer",
        *(f"{key}_fraction = {_fraction(draw, draw(_floats(0, 0.3)))}"
          for key in "npk"), "",
        *(line for product in HERBICIDES for line in (
            f"[product.{product}]", "kind = herbicide",
            f"active_fraction = {_fraction(draw, draw(_floats(0.05, 0.9)))}",
            "")),
        *_soil(draw, "marginal"), *_soil(draw, "non_marginal"), *crop_lines]

    records = {flow_id: _record(draw, flow_id, _VOLUME_BASES
                                if flow_id == "diesel" else _MASS_BASES)
               for flow_id in RECORDED}
    cutoff = draw(st.booleans())
    if cutoff:
        for flow_id in draw(_DROPS):
            del records[flow_id]
    factors = [line for lines in records.values() for line in lines]
    for gas in draw(_GAS_SETS):
        factors += [f"[gas.{gas}]",
                    f"gwp100 = {draw(_floats(0, 400)):.6g}", ""]
    if draw(st.booleans()):
        factors.append("[emissions.exhaust]")
        factors += [f"{gas} = {_write(draw, draw(_floats(0, 3)), 'kg/L')}"
                    for gas in ("co2", "ch4", "n2o")]
        factors.append("")
    tier1 = []
    for name in names:
        lines, default = _emissions(draw, name)
        factors += lines
        if default:
            tier1.append(name)
    return "\n".join(farm), "\n".join(factors), cutoff, tier1


@given(holdings())
@settings(max_examples=EXAMPLES, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
def test_generated_holding_matches_the_exact_oracle(holding):
    farm_text, factor_text, cutoff, tier1 = holding
    model = parse_farm_document(farm_text)
    db = load_factor_db(factor_text)
    for name in tier1:  # IPCC 2006 Vol. 4 Ch. 11, EF1
        assert db.n2o_params(name).ef_direct == 0.01, name
    for name in model.crops:
        check_crop(model, db, name, cutoff)
    for choice in model.marginal_pair:
        check_farm_income(model, choice)
