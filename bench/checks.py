"""Output checks, run after each op and never timed.

Every check returns a list of problems; an empty list passes. References
come from outside the loop under test: the paper's values as pinned in
tests/test_acceptance.py, exact accounting identities, the closed form of
the seed chain, and report bytes captured once before the timed loop.
"""

from __future__ import annotations

import math

# The paper's reference values for the bundled marginal pair, as pinned in
# tests/test_acceptance.py: (value, "rel" | "abs", tolerance).
PINNED = {
    "tall_wheatgrass": {"positive_gwp": (0.863, "rel", 0.01),
                        "energy_total": (6.0, "abs", 0.1),
                        "balance_with_cap": (156.19, "abs", 0.02),
                        "net_gwp": (-1.942, "abs", 0.001)},
    "rye": {"positive_gwp": (1.934, "rel", 0.01),
            "energy_total": (15.8, "abs", 0.1),
            "balance_with_cap": (145.14, "abs", 0.02)},
}
SEED_CHAIN_REL = 1e-9


def check_pinned(crop: str, values: dict[str, float],
                 pinned: dict = PINNED) -> list[str]:
    """Compare headline numbers of one pair crop against the paper."""
    problems = []
    for key, (expected, kind, tolerance) in pinned[crop].items():
        got = values.get(key)
        if got is None:
            problems.append(f"{crop}: {key} missing")
            continue
        limit = tolerance * abs(expected) if kind == "rel" else tolerance
        if not abs(got - expected) <= limit:
            problems.append(f"{crop}: {key} = {got!r}, expected {expected} "
                            f"within {tolerance} ({kind})")
    return problems


def check_sweep(points: list[tuple[float, float, float]], total_area_ha: float,
                pinned: dict = PINNED) -> list[str]:
    """Income gap of the pair at marginal share s must be s * area * (b1 - b2).

    ``points`` holds (share, income tall_wheatgrass, income rye). The rest of
    the crop mix is the same under both choices, so it cancels; the pinned
    with-aid balances give the gap, within their own tolerances.
    """
    first, second = (pinned[c]["balance_with_cap"] for c in
                     ("tall_wheatgrass", "rye"))
    gap = first[0] - second[0]
    slack = first[2] + second[2]
    problems = []
    for share, income_first, income_second in points:
        area = share * total_area_ha
        if not abs((income_first - income_second) - area * gap) \
                <= area * slack + 1e-9:
            problems.append(f"sweep share {share!r}: income gap "
                            f"{income_first - income_second!r}, expected "
                            f"{area * gap!r}")
    return problems


def check_identities(result) -> list[str]:
    """Exact accounting identities of one CropAssessment."""
    problems = []
    gwp, energy, eco = result.gwp, result.energy, result.economics
    soc = next(v for p, v in gwp.by_phase.items() if p.value == "soc_change")
    if gwp.net_total != gwp.positive_total + soc:
        problems.append(f"{result.crop_name}: net GWP != positive + SOC")
    if energy.total != energy.renewable_total + energy.nonrenewable_total:
        problems.append(f"{result.crop_name}: energy total != ren + non-ren")
    if eco.total_cost != (eco.seed_cost + eco.herbicide_cost
                          + eco.fertilizer_cost + eco.machinery_labor_cost):
        problems.append(f"{result.crop_name}: total cost != sum of parts")
    return problems


def seed_chain_reference(one_level_inventory, ratio: float) -> dict[str, float]:
    """Closed form of the seed chain: full = one-level / (1 - r), per flow."""
    return {flow.flow_id: flow.amount.value / (1.0 - ratio)
            for flow in one_level_inventory.flows
            if flow.phase.value == "seed_pt"}


def check_seed_chain(inventory, reference: dict[str, float],
                     rel: float = SEED_CHAIN_REL) -> list[str]:
    got = {flow.flow_id: flow.amount.value for flow in inventory.flows
           if flow.phase.value == "seed_pt"}
    if set(got) != set(reference):
        return [f"{inventory.crop_name}: seed flows {sorted(got)} differ "
                f"from {sorted(reference)}"]
    problems = []
    for flow_id, expected in reference.items():
        if not math.isclose(got[flow_id], expected, rel_tol=rel, abs_tol=0.0):
            problems.append(f"{inventory.crop_name}: seed flow {flow_id} = "
                            f"{got[flow_id]!r}, closed form {expected!r}")
    return problems


def check_bytes(files: dict[str, bytes], reference: dict[str, bytes],
                ) -> list[str]:
    """Report files must equal, byte for byte, the copy taken before timing."""
    if set(files) != set(reference):
        missing = sorted(set(reference) - set(files))
        extra = sorted(set(files) - set(reference))
        return [f"report files differ: missing {missing[:3]}, extra {extra[:3]}"]
    return [f"report {name} changed" for name, data in sorted(files.items())
            if data != reference[name]]
