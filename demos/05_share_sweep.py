#!/usr/bin/env python3
"""Income gap between the two alternatives as marginal land grows.

Scales the share of the holding classed as marginal while keeping the
non-marginal crop mix in proportion, and reports how far whole-farm income
moves when the perennial replaces the annual on that land. On the bundled
farm the marginal share is small, so the choice barely moves the total;
the sweep shows how the stakes rise with the share.
"""

from cropgate.assess import bundled_data_path, load_farm
from cropgate.economics import marginal_share_sweep


def main():
    model = load_farm(bundled_data_path("farm_soria.cg"))
    first, second = model.marginal_pair
    own_share = model.marginal_area_ha / model.total_area_ha

    shares = sorted({round(0.1 * k, 1) for k in range(1, 10)} | {own_share})
    points = marginal_share_sweep(model, shares)

    print(f"farm income by marginal share, {first} minus {second}")
    print(f"  {'share':>8}{first:>17}{second:>17}{'diff EUR':>12}"
          f"{'diff %':>8}")
    for pt in points:
        marker = "  <- bundled farm" if pt.share == own_share else ""
        gap = pt.income_first - pt.income_second
        print(f"  {pt.share:8.4f}{pt.income_first:17.2f}"
              f"{pt.income_second:17.2f}{gap:12.2f}"
              f"{pt.relative_difference * 100:8.2f}{marker}")
    print()
    print("the per-hectare advantage is constant; only the land it applies "
          "to grows")


if __name__ == "__main__":
    main()
