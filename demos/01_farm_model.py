#!/usr/bin/env python3
"""Walk through the bundled farm file.

Loads the dryland holding shipped with the package, shows how the parsed
model is organized, and prints the pieces the other demos build on: the
crop mix with areas and yields, the two alternatives competing for the
marginal land, and the soil analyses behind the carbon credit.
"""

from cropgate.assess import bundled_data_path, load_farm


def main():
    farm_path = bundled_data_path("farm_soria.cg")
    model = load_farm(farm_path)

    print(f"farm: {model.name}")
    print(f"  total area          {model.total_area_ha:8.1f} ha")
    print(f"  area support        {model.cap_aid_eur_ha:8.2f} EUR/ha")
    print(f"  amortization        {model.amortization_horizon_years:8d} years")
    print(f"  marginal land       {model.marginal_area_ha:8.1f} ha")
    print(f"  marginal pair       {' vs '.join(model.marginal_pair)}")
    print()

    print("crop mix")
    header = f"  {'crop':<16} {'land':<13} {'area ha':>8} " \
             f"{'grain Mg/ha':>12} {'straw Mg/ha':>12} {'lives':>6}"
    print(header)
    for name, crop in sorted(model.crops.items()):
        lives = f"{crop.life_span_years}y" if crop.perennial else "annual"
        print(f"  {name:<16} {crop.land_class:<13} {crop.area_ha:8.1f} "
              f"{crop.grain_yield_mg_ha:12.2f} {crop.straw_yield_mg_ha:12.2f} "
              f"{lives:>6}")
    print()

    print("inputs defined for the marginal pair")
    for name in model.marginal_pair:
        crop = model.crop(name)
        print(f"  {name}")
        print(f"    sowing dose   {crop.sowing_dose_mg_ha * 1000:.0f} kg/ha "
              f"({crop.seed_source} seed)")
        for fert in crop.fertilizations:
            print(f"    fertilizer    {fert.product_id}  "
                  f"{fert.dose_mg_ha * 1000:.0f} kg/ha ({fert.timing})")
        for herb in crop.herbicides:
            print(f"    herbicide     {herb.product_id}  "
                  f"{herb.dose:g} {'L/ha' if herb.liquid else 'Mg/ha'}")
        print(f"    operations    {len(crop.operations)} schedule "
              f"entr{'y' if len(crop.operations) == 1 else 'ies'}")
    print()

    # the farm carries two analyses of the marginal soil three years apart;
    # the stock rise between them is what demo 03 turns into a CO2 credit
    print("soil analyses on marginal land")
    for sample in model.soil_series("marginal"):
        print(f"  {sample.year}: {sample.depth_m:.2f} m at "
              f"{sample.bulk_density_mg_m3:.2f} Mg/m3, "
              f"{sample.coarse_fraction * 100:.1f}% coarse, "
              f"{sample.organic_carbon * 100:.3f}% organic carbon")


if __name__ == "__main__":
    main()
