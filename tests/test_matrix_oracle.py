"""Every number of an assessment against the matrix method, in exact
rationals.

The oracle below is written from the farm model, the factor database and
the formulas of ``docs/formats.md``; it calls neither ``build_lci`` nor
``characterize``. Each crop is a system of two processes in the sense of
Heijungs & Suh (2002), *The Computational Structure of Life Cycle
Assessment*:

* "cultivate 1 ha*y", whose technology column takes the yearly sowing dose
  D of own seed, and whose intervention column holds the fertilizer,
  pesticide and field-work flows, bought seed, field N2O and the soil
  carbon change;
* "produce 1 Mg own seed", whose technology column takes its own seed
  demand r = D / Y, and whose intervention column holds the cultivation
  flows c / Y plus 1 Mg of each seed-chain flow p. Field emissions and
  soil carbon stay with the parcel that farms.

The oracle solves A s = f for f = 1 ha*y and forms g = Q B s per phase,
with ``Fraction`` arithmetic on the parsed floats. The engine computes the
same quantities in binary64, so each engine number must lie within
Higham's gamma_n times the sum of the absolute values of its exact terms,
where n bounds the roundings on any path to it. :class:`Exact` carries the
value, that magnitude and n through every operation, so that the bound is
counted along the path instead of guessed.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from test_economics import exact_balance, gamma
from cropgate.assess import assess_crop
from cropgate.factors import FactorDB, N2OParams, load_factor_db
from cropgate.farmspec import (MACHINERY_FLOWS, SEED_CHAIN_FLOWS,
                               parse_farm_document)
from cropgate.impact import POSITIVE_PHASES
from cropgate.inventory import PHASES, Phase


class Exact:
    """An exact value, the sum of the absolute values of the terms it
    expands to, and the most roundings binary64 arithmetic makes on any
    path to it (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2002, ch. 3)."""

    __slots__ = ("value", "size", "n")

    def __init__(self, value: Fraction, size: Fraction, n: int):
        self.value, self.size, self.n = value, size, n

    def __add__(self, other: Exact) -> Exact:
        return Exact(self.value + other.value, self.size + other.size,
                     max(self.n, other.n) + 1)

    def __neg__(self) -> Exact:
        return Exact(-self.value, self.size, self.n)

    def __sub__(self, other: Exact) -> Exact:
        return self + -other

    def __mul__(self, other: Exact) -> Exact:
        return Exact(self.value * other.value, self.size * other.size,
                     self.n + other.n + 1)

    def __truediv__(self, other: Exact) -> Exact:
        # a divisor within gamma_n * size of its value has a relative error
        # within gamma_k, k = n * size / |value|; its reciprocal within
        # gamma_2k
        k = math.ceil(other.n * other.size / abs(other.value))
        return Exact(self.value / other.value, self.size / abs(other.value),
                     self.n + 2 * k + 1)

    def bounds(self, got: float) -> bool:
        return abs(Fraction(got) - self.value) <= gamma(self.n) * self.size


def data(value: float) -> Exact:
    """A parsed float: an exact input."""
    return Exact(Fraction(value), abs(Fraction(value)), 0)


def const(value: Fraction) -> Exact:
    """A constant of the engine: one rounding where binary64 cannot hold it."""
    return Exact(value, abs(value), int(Fraction(float(value)) != value))


def total(terms: list[Exact]) -> Exact:
    """A fold of ``terms`` in any order, from 0.0: one addition per term."""
    if not terms:
        return data(0.0)
    return Exact(sum(t.value for t in terms), sum(t.size for t in terms),
                 max(t.n for t in terms) + len(terms))


ONE, KG, THOUSAND = const(Fraction(1)), const(Fraction(1, 1000)), const(
    Fraction(1000))
CO2_PER_C, N2O_PER_N = const(Fraction(44, 12)), const(Fraction(44, 28))
M2_PER_HA = const(Fraction(10000))
# the basis units a factor record may take, in canonical Mg or L
SCALE = {"Mg": ONE, "kg": KG, "g": const(Fraction(1, 10**6)), "L": ONE,
         "m3": THOUSAND}
VOLUME_UNITS = {"L", "m3"}


def interventions(model, db, crop):
    """The technology matrix A, the demand f and the intervention columns
    B of one crop: A and f as lists, B as {(flow id, phase): [per process]}."""
    horizon = data(model.amortization_horizon_years)

    def yearly(value: float, timing: str) -> Exact:
        return data(value) / horizon if timing == "establishment" \
            else data(value)

    production = []  # (flow id, phase, amount per ha*y)
    for fert in crop.fertilizations:
        production.append((fert.product_id, Phase.FERTILIZER,
                           yearly(fert.dose_mg_ha, fert.timing)))
    for herb in crop.herbicides:
        share = data(model.products[herb.product_id].active_fraction)
        dose = yearly(herb.dose, herb.timing)
        # kg a.i. per L of a liquid, a mass fraction of a solid
        ai_kg = dose * share if herb.liquid else dose / KG * share
        production.append((herb.product_id, Phase.PESTICIDE, ai_kg * KG))
    diesel = total([yearly(op.diesel_l_ha, op.timing)
                    for op in crop.operations])
    production.append(("diesel", Phase.FIELD_WORKS, diesel))
    for gas, kg_l in db.exhaust.items():
        production.append((gas, Phase.FIELD_WORKS, diesel * data(kg_l) * KG))
    for key, flow_id in MACHINERY_FLOWS.items():
        production.append((flow_id, Phase.FIELD_WORKS, total([
            yearly(op.machinery_mg_ha[key], op.timing)
            for op in crop.operations if key in op.machinery_mg_ha])))

    columns: dict[tuple[str, Phase], list[Exact]] = {}

    def add(flow_id, phase, process, amount):
        column = columns.setdefault((flow_id, phase), [data(0.0), data(0.0)])
        column[process] = column[process] + amount

    for flow_id, phase, amount in production:
        add(flow_id, phase, 0, amount)

    dose = yearly(crop.sowing_dose_mg_ha, crop.sowing_timing)
    matrix = [[ONE, data(0.0)], [data(0.0), ONE]]
    if dose.value and crop.seed_source == "own":
        seed_yield = data(crop.seed_yield_mg_ha)
        matrix = [[ONE, data(0.0)], [-dose, ONE - dose / seed_yield]]
        cultivation: dict[str, list[Exact]] = {}
        for flow_id, _, amount in production:
            cultivation.setdefault(flow_id, []).append(amount)
        for flow_id, amounts in cultivation.items():
            add(flow_id, Phase.SEED, 1, total(amounts) / seed_yield)
        for flow_id in SEED_CHAIN_FLOWS:
            add(flow_id, Phase.SEED, 1, ONE)
    elif dose.value and crop.seed_source == "external":
        add(crop.seed_flow, Phase.SEED, 0, dose)

    params = db.emissions.get(crop.name, N2OParams())
    if params.override_mg_ha is not None:
        n2o = data(params.override_mg_ha)
    else:
        applied = total([
            yearly(fert.dose_mg_ha, fert.timing)
            * data(model.products[fert.product_id].composition.n) * THOUSAND
            for fert in crop.fertilizations
            if fert.product_id in model.products])
        n2o_n = (data(params.ef_direct)
                 * (applied + data(params.residue_n_kg_ha))
                 + data(params.ef_indirect_nh3)
                 * data(params.nh3_loss_fraction) * applied)
        n2o = N2O_PER_N * n2o_n / THOUSAND
    add("n2o", Phase.FIELD_EMISSIONS, 0, n2o)

    if crop.soc_equilibrium:
        pass
    elif crop.soc_fixation_mg_c_ha is not None:
        add("co2", Phase.SOC, 0, -(data(crop.soc_fixation_mg_c_ha)
                                   * CO2_PER_C))
    else:
        series = sorted((s for s in model.soil_samples
                         if s.land_class == crop.land_class),
                        key=lambda s: s.year)
        if len(series) >= 2:
            def stock(s):
                return (data(s.depth_m) * data(s.bulk_density_mg_m3)
                        * M2_PER_HA * (ONE - data(s.coarse_fraction))
                        * data(s.organic_carbon))
            first, last = series[0], series[-1]
            change = (stock(last) - stock(first)) / data(last.year
                                                         - first.year)
            add("co2", Phase.SOC, 0, -(change * CO2_PER_C))
    return matrix, [ONE, data(0.0)], columns


def solve(matrix, demand):
    """s = A^-1 f by forward substitution: A is lower triangular, since no
    process but seed production takes seed."""
    scaling = []
    for i, row in enumerate(matrix):
        assert all(a.value == 0 for a in row[i + 1:])
        supplied = total([row[j] * scaling[j] for j in range(i)])
        scaling.append((demand[i] - supplied) / row[i])
    return scaling


def characterization(db, flow_id: str, phase: Phase):
    """Q for one flow: kg CO2e, renewable GJ and non-renewable GJ per Mg or
    L, or None for the soil carbon CO2, which counts as it is."""
    if phase is Phase.SOC:
        return None
    if flow_id in db.gases:
        return data(db.gases[flow_id]) / KG, data(0.0), data(0.0)
    record = db.records[flow_id]
    scale = SCALE[record.unit]
    assert (record.unit in VOLUME_UNITS) == (flow_id == "diesel")
    return (data(record.gwp100) / scale,
            data(record.pe_renewable) / scale / THOUSAND,
            data(record.pe_nonrenewable) / scale / THOUSAND)


def unrecorded(db, flow_id: str, phase: Phase) -> bool:
    """Whether a flow needs a factor record that ``db`` lacks."""
    return phase is not Phase.SOC and flow_id not in db.gases \
        and flow_id not in db.records


def cut_off(db, columns) -> list[str]:
    """The flows of ``columns`` with an amount and no factor record, which
    ``--cutoff-missing`` takes at zero burden and names, in name order."""
    return sorted({flow_id for (flow_id, phase), column in columns.items()
                   if unrecorded(db, flow_id, phase)
                   and any(b.value for b in column)})


def impacts(model, db, crop, cutoff_missing: bool = False,
            ) -> dict[str, Exact]:
    """Every impact number of ``result.json`` for one crop, g = Q B s."""
    matrix, demand, columns = interventions(model, db, crop)
    scaling = solve(matrix, demand)
    kg, ren, non = ({phase: [] for phase in PHASES} for _ in range(3))
    for (flow_id, phase), column in columns.items():
        if cutoff_missing and unrecorded(db, flow_id, phase):
            continue
        amount = total([b * s for b, s in zip(column, scaling)])
        factors = characterization(db, flow_id, phase)
        if factors is None:
            kg[phase].append(amount * THOUSAND)
            continue
        for sums, factor in zip((kg, ren, non), factors):
            sums[phase].append(amount * factor)
    out = {}
    for phase in PHASES:
        out[f"gwp.{phase.value}"] = total(kg[phase]) / THOUSAND
        out[f"ren.{phase.value}"] = total(ren[phase])
        out[f"non.{phase.value}"] = total(non[phase])
    positive = total([out[f"gwp.{p.value}"] for p in POSITIVE_PHASES])
    out["gwp.positive"] = positive
    out["gwp.net"] = positive + out["gwp.soc_change"]
    out["ren.total"] = total([out[f"ren.{p.value}"] for p in PHASES])
    out["non.total"] = total([out[f"non.{p.value}"] for p in PHASES])
    out["energy.total"] = out["ren.total"] + out["non.total"]
    hundred = const(Fraction(100))
    if positive.value:
        for p in POSITIVE_PHASES:
            out[f"gwp_share.{p.value}"] = (out[f"gwp.{p.value}"] / positive
                                           * hundred)
    if out["energy.total"].value:
        for p in POSITIVE_PHASES[:4]:
            out[f"energy_share.{p.value}"] = (
                (out[f"ren.{p.value}"] + out[f"non.{p.value}"])
                / out["energy.total"] * hundred)
    return out


def engine_numbers(result) -> dict[str, float]:
    gwp, energy = result.gwp, result.energy
    out = {}
    for phase in PHASES:
        out[f"gwp.{phase.value}"] = gwp.by_phase[phase]
        out[f"ren.{phase.value}"] = energy.renewable_by_phase[phase]
        out[f"non.{phase.value}"] = energy.nonrenewable_by_phase[phase]
    out.update({"gwp.positive": gwp.positive_total, "gwp.net": gwp.net_total,
                "ren.total": energy.renewable_total,
                "non.total": energy.nonrenewable_total,
                "energy.total": energy.total})
    for phase, share in result.gwp_shares.items():
        out[f"gwp_share.{phase.value}"] = share
    for phase, share in result.energy_shares.items():
        out[f"energy_share.{phase.value}"] = share
    return out


def check_crop(model, db, name: str, cutoff_missing: bool = False) -> None:
    """Every impact and money number of one crop within its bound, and the
    notes: a missing soil pair, then each flow cut off."""
    crop = model.crop(name)
    result = assess_crop(model, db, name, cutoff_missing=cutoff_missing)
    columns = interventions(model, db, crop)[2]
    cut = tuple(cut_off(db, columns)) if cutoff_missing else ()
    no_pair = not crop.soc_equilibrium and crop.soc_fixation_mg_c_ha is None \
        and ("co2", Phase.SOC) not in columns
    notes = ((f"no soil analysis pair for {crop.land_class} land; soil "
              "carbon change taken as zero",) if no_pair else ()) + tuple(
        f"flow {flow_id!r} has no factor record; cut off at zero burden"
        for flow_id in cut)
    assert (result.notes, result.gwp.missing) == (notes, cut), name
    expected = impacts(model, db, crop, cutoff_missing)
    got = engine_numbers(result)
    assert set(got) == set(expected), name
    outside = [(key, got[key], float(exact.value))
               for key, exact in expected.items()
               if not exact.bounds(got[key])]
    for field, (exact, size, n) in exact_balance(
            crop, model.cap_aid_eur_ha,
            model.amortization_horizon_years).items():
        value = getattr(result.economics, field)
        if not abs(Fraction(value) - exact) <= gamma(n) * size:
            outside.append((field, value, float(exact)))
    assert outside == [], name


SMALL_FARM = """
[farm]
name = "two-process check"
total_area = 20 ha
marginal_area = 8 ha
cap_aid = 120 EUR/ha
amortization_horizon = 3 y
marginal_pair = grass, oats

[prices]
straw = 41.7 EUR/Mg
oats_grain = 151.3 EUR/Mg
barley_grain = 163.9 EUR/Mg

[product.npk]
kind = fertilizer
label = "15-15-15"

[product.urea]
kind = fertilizer
label = "46-0-0"

[product.sulfo]
kind = herbicide
active_fraction = 75 percent

[product.glyph]
kind = herbicide
active_fraction = 36 percent

[soil.marginal.2010]
depth = 0.25 m
bulk_density = 1.31 Mg/m3
coarse_fraction = 12.5 percent
organic_matter = 1.21 percent
organic_carbon = 0.70 percent

[soil.marginal.2017]
depth = 0.25 m
bulk_density = 1.29 Mg/m3
coarse_fraction = 12.5 percent
organic_matter = 1.30 percent
organic_carbon = 0.75 percent

[crop.grass]
land_class = marginal
perennial = true
life_span = 6 y
sowing_dose = 0.03 Mg/ha
sowing_timing = establishment
seed_source = own
seed_yield = 0.2 Mg/ha
base_product = npk
base_dose = 0.25 Mg/ha
base_timing = establishment
top_product = urea
top_dose = 0.1 Mg/ha
straw_yield = 6.2 Mg/ha

[crop.grass.herbicide.sulfo]
dose = 30 g/ha
timing = establishment

[crop.grass.op.setup]
timing = establishment
diesel = 61.5 L/ha
tillage = 0.0043 Mg/ha

[crop.grass.op.yearly]
diesel = 19.7 L/ha
tractor = 0.0011 Mg/ha
harvester = 0.0005 Mg/ha

[crop.grass.costs]
seed = 10.5 EUR/ha
seed_establishment = 121.3 EUR/ha
herbicide_establishment = 24.9 EUR/ha
fertilizer = 40.1 EUR/ha
fertilizer_establishment = 89.7 EUR/ha
machinery_labor = 101.2 EUR/ha
machinery_labor_establishment = 151.1 EUR/ha

[crop.oats]
land_class = marginal
sowing_dose = 0.12 Mg/ha
seed_source = external
seed_flow = seed_oats
base_product = npk
base_dose = 0.2 Mg/ha
top_product = urea
top_dose = 0.08 Mg/ha
grain_yield = 2.2 Mg/ha
straw_yield = 1.5 Mg/ha
soc_fixation = -0.05 Mg/ha

[crop.oats.herbicide.glyph]
dose = 3 L/ha

[crop.oats.op.works]
diesel = 70.3 L/ha
tractor = 0.0021 Mg/ha
implements = 0.0015 Mg/ha

[crop.oats.costs]
seed = 45.6 EUR/ha
herbicide = 12.2 EUR/ha
fertilizer = 88.8 EUR/ha
machinery_labor = 171.4 EUR/ha

[crop.barley]
land_class = non_marginal
area = 12 ha
sowing_dose = 0.19 Mg/ha
seed_source = own
seed_yield = 2.9 Mg/ha
base_product = npk
base_dose = 0.3 Mg/ha
top_product = npk
top_dose = 0.15 Mg/ha
grain_yield = 2.9 Mg/ha
soc_equilibrium = true

[crop.barley.herbicide.glyph]
dose = 1.5 L/ha

[crop.barley.op.works]
diesel = 80.1 L/ha
tractor = 0.0013 Mg/ha
harvester = 0.0009 Mg/ha

[crop.barley.costs]
seed = 38.3 EUR/ha
fertilizer = 150.2 EUR/ha
machinery_labor = 180.9 EUR/ha
"""

SMALL_FACTORS = """
[flow.npk]
unit = Mg
gwp100 = 2710.3
pe_renewable = 512.4
pe_nonrenewable = 23108.7

[flow.urea]
unit = kg
gwp100 = 3.37
pe_renewable = 0.61
pe_nonrenewable = 55.3

[flow.sulfo]
unit = g
gwp100 = 0.021
pe_renewable = 0.007
pe_nonrenewable = 0.33

[flow.glyph]
unit = kg
gwp100 = 10.9
pe_renewable = 5.7
pe_nonrenewable = 231.4

[flow.diesel]
unit = m3
gwp100 = 591.3
pe_renewable = 730.2
pe_nonrenewable = 49310.9

[flow.machinery_tractor]
unit = kg
gwp100 = 4.61
pe_renewable = 2.9
pe_nonrenewable = 58.3

[flow.machinery_harvester]
unit = kg
gwp100 = 4.43
pe_renewable = 3.1
pe_nonrenewable = 57.9

[flow.machinery_tillage]
unit = Mg
gwp100 = 4102.7
pe_renewable = 2700.1
pe_nonrenewable = 51003.3

[flow.machinery_implement]
unit = Mg
gwp100 = 3987.5
pe_renewable = 2533.3
pe_nonrenewable = 49876.6

[flow.seed_processing]
unit = Mg
gwp100 = 131.7
pe_nonrenewable = 210.3

[flow.seed_transport]
unit = kg
gwp100 = 0.0231
pe_nonrenewable = 0.0771

[flow.seed_biomass_energy]
unit = Mg
pe_renewable = 16200.0

[flow.seed_oats]
unit = Mg
gwp100 = 901.3
pe_renewable = 6100.7
pe_nonrenewable = 9800.2

[gas.n2o]
gwp100 = 273.0

[emissions.exhaust]
co2 = 2.68 kg/L
ch4 = 0.00013 kg/L
n2o = 0.00011 kg/L

[emissions.grass]
ef_direct = 1.2 percent
residue_n = 27.5 kg/ha
nh3_loss_fraction = 10 percent
ef_indirect_nh3 = 1 percent

[emissions.oats]
residue_n = 9.5 kg/ha
"""


@pytest.fixture(scope="module")
def small_holding():
    return parse_farm_document(SMALL_FARM), load_factor_db(SMALL_FACTORS)


def test_every_bundled_crop(farm_model, factor_db):
    for name in farm_model.crops:
        check_crop(farm_model, factor_db, name)


def test_rye_at_r_0_999(farm_model, factor_db):
    rye = farm_model.crop("rye")
    crop = rye._replace(seed_yield_mg_ha=rye.sowing_dose_mg_ha / 0.999)
    model = farm_model._replace(crops={**farm_model.crops, "rye": crop})
    check_crop(model, factor_db, "rye")


@pytest.mark.parametrize("name", ["grass", "oats", "barley"])
def test_small_holding(small_holding, name):
    """Own seed of a perennial with establishment inputs, bought seed, a
    solid and a liquid herbicide, records per g, kg and m3, three exhaust
    gases, residue and volatilized N, a soil pair and a measured loss."""
    model, db = small_holding
    check_crop(model, db, name)


def test_scaling_one_record_moves_each_phase_by_its_share(farm_model,
                                                          factor_db):
    """The oracle is linear in Q: doubling one record's gwp100, which is
    exact in binary64, adds that record's contribution to each phase,
    exactly, and the engine follows it within the bound."""
    rye = farm_model.crop("rye")
    base = impacts(farm_model, factor_db, rye)
    matrix, demand, columns = interventions(farm_model, factor_db, rye)
    scaling = solve(matrix, demand)
    for flow_id, record in factor_db.records.items():
        shares = {phase: Fraction(0) for phase in PHASES}
        for (column_id, phase), column in columns.items():
            if column_id == flow_id:
                amount = sum(b.value * s.value
                             for b, s in zip(column, scaling))
                shares[phase] += (amount * Fraction(record.gwp100)
                                  / SCALE[record.unit].value / 1000)
        doubled = FactorDB({**factor_db.records, flow_id: record._replace(
            gwp100=record.gwp100 * 2)}, factor_db.gases,
            factor_db.emissions, factor_db.exhaust)
        scaled = impacts(farm_model, doubled, rye)
        for phase in PHASES:
            key = f"gwp.{phase.value}"
            assert scaled[key].value - base[key].value == shares[phase]
        if any(shares.values()):
            check_crop(farm_model, doubled, "rye")
