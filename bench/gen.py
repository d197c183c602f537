"""Seeded farm and factor files for the in-process workloads.

The generator reads only the bundled Soria files (for the marginal pair and
the calibrated factor records) and its own arguments. The same seed and
sizes give byte-identical text. Crop structure (how many fertilizations,
herbicides and field operations a crop has) follows the crop's index, not
the seed, so that every seed produces the same amount of engine work and
only the values differ; the seed-chain ratios are drawn stratified and
antithetic for the same reason.
"""

from __future__ import annotations

import math
import os
import random
import re

DATA_DIR = os.path.join("src", "cropgate", "data")
BUNDLED_FARM = "farm_soria.cg"
BUNDLED_FACTORS = "factors_calibrated.cg"

PAIR = ("tall_wheatgrass", "rye")
MARGINAL_AREA_HA = 40
FARM_SCALED_N = 120
SEED_CHAIN_N = 24
FARM_SCALED_R = (0.03, 0.15)
SEED_CHAIN_R = (0.5, 0.99)

_N_FERTILIZERS = 24
_N_HERBICIDES = 16
_N_EXTERNAL_SEEDS = 4
_MACHINES = ("tractor", "harvester", "tillage", "implements")
_HEADER_RE = re.compile(r"^\[([A-Za-z0-9_.]+)\]")


def _blocks(text: str) -> list[tuple[str, list[str]]]:
    """Split a document into (section path, lines) blocks, comments kept."""
    blocks: list[tuple[str, list[str]]] = []
    for line in text.split("\n"):
        match = _HEADER_RE.match(line)
        if match:
            blocks.append((match.group(1), [line]))
        elif blocks:
            blocks[-1][1].append(line)
    return blocks


def _num(value: float, digits: int = 4) -> str:
    return f"{value:.{digits}g}"


def _products(rng: random.Random) -> tuple[list[str], list[str], dict]:
    """Generated fertilizer and herbicide products with their factor records.

    Returns farm lines, factor lines and {product id: liquid?} for herbicides.
    """
    farm, factors, liquid = [], [], {}
    for i in range(_N_FERTILIZERS):
        pid = f"fert_{i:02d}"
        farm.append(f"[product.{pid}]")
        farm.append("kind = fertilizer")
        style = i % 3
        if style == 0:
            n, p, k = rng.randint(5, 20), rng.randint(5, 30), rng.randint(0, 20)
            farm.append(f'label = "{n}-{p}-{k}"')
        elif style == 1:
            farm.append(f'label = "N grade {rng.randint(20, 46)}%"')
        else:
            farm.append(f"n_fraction = {_num(rng.uniform(5, 30))} percent")
            farm.append(f"p_fraction = {_num(rng.uniform(0, 20))} percent")
            farm.append(f"k_fraction = {_num(rng.uniform(0, 20))} percent")
        farm.append("")
        factors += [f"[flow.{pid}]", "unit = Mg",
                    f"gwp100 = {_num(rng.uniform(900, 6000), 6)}",
                    f"pe_renewable = {_num(rng.uniform(200, 1500), 6)}",
                    f"pe_nonrenewable = {_num(rng.uniform(7000, 40000), 6)}",
                    f'note = "generated fertilizer {i}"', ""]
    for i in range(_N_HERBICIDES):
        pid = f"herb_{i:02d}"
        liquid[pid] = i % 2 == 0
        farm += [f"[product.{pid}]", "kind = herbicide",
                 f"active_fraction = {_num(rng.uniform(10, 80))} percent", ""]
        factors += [f"[flow.{pid}]", "unit = kg",
                    f"gwp100 = {_num(rng.uniform(5, 20), 6)}",
                    f"pe_renewable = {_num(rng.uniform(3, 10), 6)}",
                    f"pe_nonrenewable = {_num(rng.uniform(100, 350), 6)}",
                    f'note = "generated herbicide {i}"', ""]
    for i in range(_N_EXTERNAL_SEEDS):
        factors += [f"[flow.seed_ext_{i}]", "unit = Mg",
                    f"gwp100 = {_num(rng.uniform(800, 2600), 6)}",
                    f"pe_renewable = {_num(rng.uniform(5000, 9000), 6)}",
                    f"pe_nonrenewable = {_num(rng.uniform(9000, 18000), 6)}",
                    f'note = "generated bought-in seed {i}"', ""]
    return farm, factors, liquid


def _seed_chain_ratios(rng: random.Random, n: int, low: float, high: float,
                       ) -> list[float]:
    """Stratified antithetic dose/yield ratios in [low, high].

    Strata are equal in log(1 - r), which the fixed-point iteration count
    follows, and each stratum gets a pair u, 1 - u, so the summed seed-chain
    work barely depends on the seed.
    """
    x_low, x_high = -math.log(1 - low), -math.log(1 - high)
    strata = n // 2
    width = (x_high - x_low) / strata
    ratios = []
    for s in range(strata):
        u = rng.uniform(0.0, 1.0)
        for v in (u, 1.0 - u):
            ratios.append(1.0 - math.exp(-(x_low + (s + v) * width)))
    if n % 2:
        ratios.append(1.0 - math.exp(-(x_low + rng.uniform(0, 1) * (x_high - x_low))))
    rng.shuffle(ratios)
    return ratios


def _crop(rng: random.Random, name: str, kind: str, r: float, liquid: dict,
          own_seed: bool, index: int,
          ) -> tuple[list[str], list[str], list[str], int]:
    """One non-marginal crop: farm lines, price lines, factor lines, area."""
    perennial = kind == "perennial"
    grain = rng.uniform(1.8, 7.0)
    area = rng.randint(2, 40)
    lines = [f"[crop.{name}]", "land_class = non_marginal", f"area = {area} ha"]
    if perennial:
        lines += ["perennial = true", f"life_span = {rng.randint(3, 8)} y"]
    if own_seed:
        dose = r * grain
        seed_unit = index % 2
        lines.append(f"sowing_dose = {_num(dose * 1000, 6)} kg/ha" if seed_unit
                     else f"sowing_dose = {_num(dose, 6)} Mg/ha")
        lines += ["seed_source = own", f"seed_yield = {_num(grain, 6)} Mg/ha"]
    else:
        lines += [f"sowing_dose = {_num(rng.uniform(3, 12), 4)} kg/ha",
                  "seed_source = external",
                  f"seed_flow = seed_ext_{index % _N_EXTERNAL_SEEDS}"]
    if perennial:
        lines.append("sowing_timing = establishment")
    lines += [f"base_product = fert_{rng.randint(0, _N_FERTILIZERS - 1):02d}",
              f"base_dose = {_num(rng.uniform(0.1, 0.4))} Mg/ha"]
    if perennial:
        lines.append("base_timing = establishment")
    lines += [f"top_product = fert_{rng.randint(0, _N_FERTILIZERS - 1):02d}",
              f"top_dose = {_num(rng.uniform(80, 300))} kg/ha"]
    lines += [f"grain_yield = {_num(grain, 6)} Mg/ha",
              f"straw_yield = {_num(grain * rng.uniform(0.5, 0.8), 6)} Mg/ha"]
    prices = [f"{name}_grain = {_num(rng.uniform(140, 330), 5)} EUR/Mg"]
    if index % 4 == 3:
        lines.append(f"sales = {_num(rng.uniform(350, 1200), 6)} EUR/ha")
    if kind == "soil_pair" or perennial:
        lines.append("soc_equilibrium = false")
    elif kind == "fixation":
        lines.append(f"soc_fixation = {_num(rng.uniform(0.05, 0.6))} Mg/ha")
    else:
        lines.append("soc_equilibrium = true")
    lines.append("")

    herbicide_count = 2 if kind == "chain" else 1 + index % 2
    chosen = sorted(rng.sample(range(_N_HERBICIDES), herbicide_count))
    for h in chosen:
        pid = f"herb_{h:02d}"
        lines.append(f"[crop.{name}.herbicide.{pid}]")
        if liquid[pid]:
            lines.append(f"dose = {_num(rng.uniform(0.5, 3.0))} L/ha")
        elif index % 2:
            lines.append(f"dose = {_num(rng.uniform(10, 60))} g/ha")
        else:
            lines.append(f"dose = {_num(rng.uniform(0.01, 0.2))} kg/ha")
        if perennial and h == chosen[0]:
            lines.append("timing = establishment")
        lines.append("")

    op_names = (("tillage_works", "harvest_works") if kind != "chain"
                else ("annual_works",))
    for j, op in enumerate(op_names):
        lines.append(f"[crop.{name}.op.{op}]")
        if perennial and j == 0:
            lines.append("timing = establishment")
        diesel = rng.uniform(8, 40)
        lines.append(f"diesel = {_num(diesel / 1000, 5)} m3/ha" if (j + index) % 2
                     else f"diesel = {_num(diesel, 5)} L/ha")
        machines = _MACHINES if kind == "chain" else _MACHINES[j:j + 2]
        for machine in machines:
            lines.append(f"{machine} = {_num(rng.uniform(0.2, 2.5))} kg/ha")
        lines.append("")

    lines += [f"[crop.{name}.costs]",
              f"seed = {rng.uniform(20, 60):.2f} EUR/ha",
              f"herbicide = {rng.uniform(2, 30):.2f} EUR/ha",
              f"fertilizer = {rng.uniform(60, 200):.2f} EUR/ha",
              f"machinery_labor = {rng.uniform(120, 200):.2f} EUR/ha"]
    if perennial:
        lines += [f"seed_establishment = {rng.uniform(40, 90):.2f} EUR/ha",
                  f"machinery_labor_establishment = "
                  f"{rng.uniform(50, 150):.2f} EUR/ha"]
    lines.append("")

    factor_lines = []
    if index % 3 == 0:
        factor_lines = [f"[emissions.{name}]",
                        f"ef_direct = {_num(rng.uniform(0.8, 1.2))} percent",
                        f"residue_n = {_num(rng.uniform(10, 40))} kg/ha",
                        f"nh3_loss_fraction = {_num(rng.uniform(5, 15))} percent",
                        "ef_indirect_nh3 = 0.01", ""]
    elif index % 3 == 1:
        factor_lines = [f"[emissions.{name}]",
                        f"override = {_num(rng.uniform(0.5, 2.5))} kg/ha", ""]
    return lines, prices, factor_lines, area


def _soil(land: str, year: int, carbon: float) -> list[str]:
    return [f"[soil.{land}.{year}]", "depth = 0.30 m",
            "bulk_density = 1.42 Mg/m3", "coarse_fraction = 18.5 percent",
            f"organic_matter = {carbon * 1.724:.4f} percent",
            f"organic_carbon = {carbon:.4f} percent", ""]


def generate(root: str, seed: int, n_crops: int, r_range: tuple[float, float],
             own_share: float, *, stratified_r: bool = False,
             ) -> tuple[str, str, dict]:
    """Farm text, factor text and a size record for one seeded holding.

    ``own_share`` is the fraction of generated crops that multiply their own
    seed (the rest buy it in); ``stratified_r`` draws the own-seed ratios
    with :func:`_seed_chain_ratios` instead of independently.
    """
    with open(os.path.join(root, DATA_DIR, BUNDLED_FARM), encoding="utf-8") as fh:
        bundled_farm = fh.read()
    with open(os.path.join(root, DATA_DIR, BUNDLED_FACTORS), encoding="utf-8") as fh:
        bundled_factors = fh.read()
    rng = random.Random(seed)
    product_lines, product_factors, liquid = _products(rng)

    own_count = round(n_crops * own_share)
    own = [i < own_count for i in range(n_crops)]
    rng.shuffle(own)
    ratios = iter(_seed_chain_ratios(rng, own_count, *r_range)
                  if stratified_r else [])
    kinds = ("plain", "plain", "soil_pair", "perennial", "fixation", "plain")
    crop_lines, price_lines, emission_lines = [], [], []
    fixed_area = 0
    for i in range(n_crops):
        if not own[i]:
            r = 0.0
        elif stratified_r:
            r = next(ratios)
        else:
            r = rng.uniform(*r_range)
        kind = "chain" if stratified_r else kinds[i % len(kinds)]
        lines, prices, factors, area = _crop(
            rng, f"crop_{i:03d}", kind, r, liquid, own[i], i)
        crop_lines += lines
        price_lines += prices
        emission_lines += factors
        fixed_area += area

    kept, prices_block = [], []
    for path, lines in _blocks(bundled_farm):
        head = path.split(".")
        if path == "prices":
            prices_block = [line for line in lines if line.strip()]
        elif head[0] == "product" or path.startswith("soil.marginal") \
                or (head[0] == "crop" and head[1] in PAIR):
            kept += lines
    farm = [f"# generated holding, seed {seed}, {n_crops} generated crops", "",
            "[farm]", f'name = "generated holding {seed}"',
            f"total_area = {fixed_area + MARGINAL_AREA_HA} ha",
            f"marginal_area = {MARGINAL_AREA_HA} ha",
            "cap_aid = 165.00 EUR/ha", "amortization_horizon = 4 y",
            f"marginal_pair = {PAIR[0]}, {PAIR[1]}",
            'factors = "factors.cg"', ""]
    farm += prices_block + price_lines + [""]
    farm += product_lines
    farm += _soil("non_marginal", 2012, rng.uniform(0.60, 0.75))
    farm += _soil("non_marginal", 2018, rng.uniform(0.80, 0.95))
    farm += kept + crop_lines
    factors = [bundled_factors.rstrip("\n"), "",
               f"# generated records, seed {seed}", ""]
    factors += product_factors + emission_lines
    farm_text = "\n".join(farm).rstrip("\n") + "\n"
    factors_text = "\n".join(factors).rstrip("\n") + "\n"
    sizes = {"seed": seed, "generated_crops": n_crops,
             "own_seed_crops": own_count, "r_range": list(r_range),
             "farm_lines": farm_text.count("\n"),
             "factor_lines": factors_text.count("\n"),
             "products": _N_FERTILIZERS + _N_HERBICIDES,
             "factor_records": factors_text.count("[flow.")}
    return farm_text, factors_text, sizes


def write_inputs(directory: str, farm_text: str, factors_text: str) -> str:
    """Write farm.cg and factors.cg into ``directory``; returns the farm path."""
    os.makedirs(directory, exist_ok=True)
    farm_path = os.path.join(directory, "farm.cg")
    with open(farm_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(farm_text)
    with open(os.path.join(directory, "factors.cg"), "w", encoding="utf-8",
              newline="") as fh:
        fh.write(factors_text)
    return farm_path


def farm_scaled(root: str, seed: int, n_crops: int = FARM_SCALED_N):
    return generate(root, seed, n_crops, FARM_SCALED_R, own_share=0.75)


def seed_chain(root: str, seed: int, n_crops: int = SEED_CHAIN_N):
    return generate(root, seed, n_crops, SEED_CHAIN_R, own_share=1.0,
                    stratified_r=True)
