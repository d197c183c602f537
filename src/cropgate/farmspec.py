"""Farm description files: model types, parsing, and validation.

A farm file describes one holding: the land split, the crops with their
input schedules and costs, product compositions, selling prices, and soil
analyses. The reserved keys for every section kind are documented in
docs/formats.md; this module enforces them.

Validation has two phases, and neither stops at the first problem. Reading
converts every key, checks the range of each value and the file's structure;
each mistake is one diagnostic at its key or section, and a missing required
key reads ``<key> is required``. The rules across keys of
:func:`validate_model` (area sum, marginal pair, products, prices ...) run
only on a file that read without error, because a rejected key stands in as
a default they would judge too. A file with both kinds of mistake therefore
shows its errors across keys on the run after its reading errors are fixed.
"""

import math
import re
from collections.abc import Mapping
from functools import reduce
from operator import add
from types import MappingProxyType
from typing import NamedTuple

from . import GASES, CropgateError, horizon_problem
from .sections import (Diagnostic, Document, SectionReader, ValidationReport,
                       parse_document)

__all__ = [
    "LAND_CLASSES", "TIMINGS", "SEED_SOURCES", "MACHINERY_FLOWS",
    "SEED_CHAIN_FLOWS", "Composition",
    "ProductSpec", "FertilizerApplication",
    "HerbicideApplication", "FieldOperation", "CostBlock", "CropPlan",
    "SoilSample", "FarmModel",
    "FarmFileError", "FarmValidationError", "UnknownCropError",
    "parse_product_label", "parse_farm_document", "build_farm_model",
    "validate_model",
]

DEFAULT_AMORTIZATION_YEARS = 4


class FarmFileError(CropgateError):
    """Base class for farm file problems (syntax errors reuse sections')."""


class FarmValidationError(FarmFileError):
    prefix = ""  # the message opens with "invalid farm description:"

    def __init__(self, report: "ValidationReport"):
        super().__init__("invalid farm description:\n" + report.render())
        self.report = report


class UnknownCropError(CropgateError, KeyError):
    """The farm has no crop of the name asked for."""
    __str__ = CropgateError.__str__  # KeyError's would quote the message


# the words of each closed choice; the model holds the word the file writes
LAND_CLASSES = ("marginal", "non_marginal", "fallow")
TIMINGS = ("establishment", "recurrent")  # establishment: spread over years
# own: multiplied on the farm; external: bought in, through a factor flow
SEED_SOURCES = ("own", "external", "none")


# the machinery keys of a [crop.<name>.op.<label>] section -> the flow id
# of the machine wear each one holds, in report order
MACHINERY_FLOWS = {
    "tractor": "machinery_tractor",
    "harvester": "machinery_harvester",
    "tillage": "machinery_tillage",
    "implements": "machinery_implement",
}
# flow ids added per Mg of farm-multiplied seed (see docs/formats.md)
SEED_CHAIN_FLOWS = ("seed_processing", "seed_transport", "seed_biomass_energy")

# the flow ids the inventory makes itself -> the error for a product or
# seed_flow that takes one, whose amounts would be mixed with its own
_RESERVED_FLOWS = {
    **{gas: f"names a gas: the flow {gas} is characterized by [gas.{gas}]"
       for gas in GASES},
    **{flow_id: f"names a reserved flow: the inventory makes the flow "
                f"{flow_id} itself"
       for flow_id in ("diesel", *MACHINERY_FLOWS.values(),
                       *SEED_CHAIN_FLOWS)},
}


# ---------------------------------------------------------------------- #
#  model types
# ---------------------------------------------------------------------- #

class Composition(NamedTuple):
    """N-P-K mass fractions of a fertilizer product."""
    n: float = 0.0
    p: float = 0.0
    k: float = 0.0


class ProductSpec(NamedTuple):
    product_id: str
    kind: str  # "fertilizer" | "herbicide" | "seed"
    label: str = ""
    composition: Composition = Composition()
    active_fraction: float = 0.0  # herbicides: kg a.i. per L (liquid) or per kg


class FertilizerApplication(NamedTuple):
    product_id: str
    dose_mg_ha: float
    timing: str  # one of TIMINGS
    role: str  # "base" | "top"


class HerbicideApplication(NamedTuple):
    product_id: str
    dose: float  # per ha: L when liquid, else Mg
    timing: str  # one of TIMINGS
    liquid: bool  # the dose was written as a volume


class FieldOperation(NamedTuple):
    name: str
    timing: str  # one of TIMINGS
    diesel_l_ha: float = 0.0
    machinery_mg_ha: Mapping[str, float] = MappingProxyType({})  # by key


class CostBlock(NamedTuple):
    """Annual cost components in EUR/ha plus one-off establishment parts."""
    seed: float = 0.0
    herbicide: float = 0.0
    fertilizer: float = 0.0
    machinery_labor: float = 0.0
    seed_establishment: float = 0.0
    herbicide_establishment: float = 0.0
    fertilizer_establishment: float = 0.0
    machinery_labor_establishment: float = 0.0


class CropPlan(NamedTuple):
    name: str
    land_class: str  # one of LAND_CLASSES
    perennial: bool
    life_span_years: int
    area_ha: float
    sowing_dose_mg_ha: float
    sowing_timing: str
    seed_source: str  # one of SEED_SOURCES
    seed_flow: str | None
    seed_yield_mg_ha: float | None
    fertilizations: tuple[FertilizerApplication, ...]
    herbicides: tuple[HerbicideApplication, ...]
    operations: tuple[FieldOperation, ...]
    grain_yield_mg_ha: float
    straw_yield_mg_ha: float
    grain_price: float | None  # EUR/Mg, resolved from [prices]
    straw_price: float | None
    sales_override: float | None  # EUR/ha, invoice-averaged totals
    costs: CostBlock
    soc_equilibrium: bool
    soc_fixation_mg_c_ha: float | None  # measured annual organic-carbon gain


class SoilSample(NamedTuple):
    land_class: str  # one of LAND_CLASSES
    year: int
    depth_m: float
    bulk_density_mg_m3: float
    coarse_fraction: float   # volumetric, 0..1
    organic_matter: float    # mass fraction of fine earth, 0..1
    organic_carbon: float


class FarmModel(NamedTuple):
    name: str
    total_area_ha: float
    cap_aid_eur_ha: float
    amortization_horizon_years: int
    marginal_area_ha: float
    marginal_pair: tuple[str, str]
    crops: dict[str, CropPlan]
    products: dict[str, ProductSpec]
    soil_samples: tuple[SoilSample, ...]
    factors_ref: str | None = None
    warnings: tuple[Diagnostic, ...] = ()  # the file's, in report order

    def crop(self, name: str) -> CropPlan:
        if name not in self.crops:
            raise UnknownCropError(f"farm has no crop named {name!r}")
        return self.crops[name]

    def soil_series(self, land_class: str) -> list[SoilSample]:
        return sorted((s for s in self.soil_samples if s.land_class == land_class),
                      key=lambda s: s.year)


# ---------------------------------------------------------------------- #
#  product labels
# ---------------------------------------------------------------------- #

_NPK_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)-(\d+(?:\.\d+)?)-(\d+(?:\.\d+)?)\s*$")
_PCT_RE = re.compile(r"(\d+(?:\.\d+)?)\s*%")


def parse_product_label(label: str) -> Composition:
    """Mineral fertilizer composition from its commercial label.

    Two label shapes are understood: "N-P-K" triplets ("8-24-8" means 8% N,
    24% P2O5, 8% K2O) and "<name> <p>%" nitrogen grades ("CAN 27%" means 27%
    nitrogen). Percentages must be numeric and sum to at most 100.
    """
    m = _NPK_RE.match(label)
    if m:
        n, p, k = (float(g) for g in m.groups())
        if n + p + k > 100.0:
            raise FarmFileError(f"label {label!r}: percentages sum above 100")
        return Composition(n / 100.0, p / 100.0, k / 100.0)
    pcts = _PCT_RE.findall(label)
    if pcts:
        n = float(pcts[0])
        if n > 100.0:
            raise FarmFileError(f"label {label!r}: nitrogen fraction above 100%")
        return Composition(n=n / 100.0)
    raise FarmFileError(f"label {label!r} has no numeric composition")


# ---------------------------------------------------------------------- #
#  section readers
# ---------------------------------------------------------------------- #

_FRACTION_KEYS = ("n_fraction", "p_fraction", "k_fraction")


def _read_product(reader: SectionReader) -> ProductSpec | None:
    entries, report = reader.entries, reader.report
    if reserved := _RESERVED_FLOWS.get(reader.path[1]):
        report.error(reader.name, reserved)
    reader.require("kind")
    kind = reader.text("kind")
    label = reader.text("label")
    if kind not in ("fertilizer", "herbicide", "seed"):
        if kind is not None:
            reader.error("kind", "kind must be fertilizer, herbicide or seed")
        return None  # which keys the product may have depends on its kind
    composition = Composition()
    active = 0.0
    if kind == "fertilizer":
        fractions = [reader.fraction(key) for key in _FRACTION_KEYS]
        if any(key in entries for key in _FRACTION_KEYS):
            composition = Composition(*(f or 0.0 for f in fractions))
        elif "label" not in entries:
            report.error(reader.name,
                         "fertilizer needs a label or explicit fractions")
        elif label is not None:
            try:
                composition = parse_product_label(label)
            except FarmFileError as exc:
                report.error(reader.name, str(exc))
    elif kind == "herbicide":
        reader.require("active_fraction")
        active = reader.fraction("active_fraction", 0.0)
    reader.finish()
    return ProductSpec(product_id=reader.path[1], kind=kind, label=label or "",
                       composition=composition, active_fraction=active)


def _read_soil(reader: SectionReader) -> SoilSample | None:
    land_class = reader.path[1]
    if land_class not in LAND_CLASSES:
        reader.report.error(reader.name, f"unknown land class {land_class!r}")
        return None
    try:
        year = int(reader.path[2])
    except ValueError:
        reader.report.error(reader.name,
                            "soil section needs a numeric year segment")
        return None
    depth = reader.quantity("depth", "m")
    if depth is not None and depth <= 0:
        reader.error("depth", "must be above 0 m")
    density = reader.quantity("bulk_density", "Mg/m3")
    if density is not None and not 0.5 <= density <= 2.5:
        reader.error("bulk_density", f"{density!r} Mg/m3 is outside the "
                     "plausible 0.5-2.5 range")
    coarse = reader.fraction("coarse_fraction")
    om = reader.fraction("organic_matter")
    oc = reader.fraction("organic_carbon")
    reader.finish()
    reader.require("depth", "bulk_density", "coarse_fraction", "organic_matter",
                   "organic_carbon")
    return SoilSample(land_class=land_class, year=year, depth_m=depth,
                      bulk_density_mg_m3=density, coarse_fraction=coarse,
                      organic_matter=om, organic_carbon=oc)


_PER_HA_DOSES = ("L/ha", "Mg/ha")


def _read_crop(reader: SectionReader, sub: dict[str, list[SectionReader]],
               prices: dict[str, float], marginal_area: float) -> CropPlan:
    name = reader.path[1]
    entries, report = reader.entries, reader.report

    land_class = reader.choice("land_class", LAND_CLASSES)
    reader.require("land_class")

    perennial = reader.boolean("perennial", False)
    life_span = reader.years("life_span", 1)
    area = reader.non_negative("area", "ha", 0.0)
    if land_class == "marginal":  # the alternatives share that land
        if area:
            reader.error("area",
                         "marginal alternatives take the shared marginal_area")
        area = marginal_area

    sowing_dose = reader.non_negative("sowing_dose", "Mg/ha", 0.0)
    sowing_timing = reader.choice("sowing_timing", TIMINGS, "recurrent")
    seed_source = reader.choice("seed_source", SEED_SOURCES,
                                "own" if sowing_dose else "none")
    seed_flow = reader.text("seed_flow")
    if reserved := _RESERVED_FLOWS.get(seed_flow):
        reader.error("seed_flow", reserved)
    seed_yield = reader.non_negative("seed_yield", "Mg/ha")

    fertilizations = []
    for role in ("base", "top"):
        product = reader.text(f"{role}_product")
        dose = reader.non_negative(f"{role}_dose", "Mg/ha")
        timing = reader.choice(f"{role}_timing", TIMINGS, "recurrent")
        if (f"{role}_product" in entries) != (f"{role}_dose" in entries):
            report.error(reader.name,
                         f"{role} fertilization needs both product and dose")
        if product is not None and dose is not None:
            fertilizations.append(FertilizerApplication(
                product_id=product, dose_mg_ha=dose, timing=timing, role=role))

    grain_yield = reader.non_negative("grain_yield", "Mg/ha", 0.0)
    straw_yield = reader.non_negative("straw_yield", "Mg/ha")
    if straw_yield is None:
        straw_yield = reader.non_negative("biomass_yield", "Mg/ha", 0.0)
    sales_override = reader.quantity("sales", "EUR/ha")
    soc_equilibrium = reader.boolean("soc_equilibrium", False)
    soc_fixation = reader.quantity("soc_fixation", "Mg/ha")
    reader.finish()

    herbicides = []
    for hreader in sub.get("herbicide", []):
        dose = hreader.raw_quantity("dose")
        timing = hreader.choice("timing", TIMINGS, "recurrent")
        hreader.finish()
        hreader.require("dose")
        if dose is None:
            continue
        dose, unit = dose
        if unit not in _PER_HA_DOSES or not math.isfinite(dose):
            hreader.error("dose", "must be a finite volume or mass per ha")
        elif dose < 0:
            hreader.error("dose", "cannot be negative")
        else:
            herbicides.append(HerbicideApplication(
                product_id=hreader.path[3], dose=dose, timing=timing,
                liquid=unit == "L/ha"))

    operations = []
    for oreader in sub.get("op", []):
        timing = oreader.choice("timing", TIMINGS, "recurrent")
        diesel = oreader.non_negative("diesel", "L/ha", 0.0)
        machinery = {}
        for key in MACHINERY_FLOWS:
            mass = oreader.non_negative(key, "Mg/ha")
            if mass is not None:
                machinery[key] = mass
        oreader.finish()
        operations.append(FieldOperation(name=oreader.path[3], timing=timing,
                                         diesel_l_ha=diesel,
                                         machinery_mg_ha=machinery))

    costs = CostBlock()
    if "costs" in sub:
        # the keys are the CostBlock field names
        creader = sub["costs"][0]
        costs = CostBlock._make(creader.quantity(part, "EUR/ha", 0.0)
                                for part in CostBlock._fields)
        creader.finish()

    return CropPlan(
        name=name, land_class=land_class, perennial=perennial,
        life_span_years=life_span, area_ha=area,
        sowing_dose_mg_ha=sowing_dose, sowing_timing=sowing_timing,
        seed_source=seed_source, seed_flow=seed_flow, seed_yield_mg_ha=seed_yield,
        fertilizations=tuple(fertilizations), herbicides=tuple(herbicides),
        operations=tuple(operations), grain_yield_mg_ha=grain_yield,
        straw_yield_mg_ha=straw_yield,
        grain_price=prices.get(f"{name}_grain"),
        straw_price=prices.get(f"{name}_straw", prices.get("straw")),
        sales_override=sales_override, costs=costs,
        soc_equilibrium=soc_equilibrium, soc_fixation_mg_c_ha=soc_fixation)


# ---------------------------------------------------------------------- #
#  document -> model
# ---------------------------------------------------------------------- #

def build_farm_model(doc: Document) -> tuple[FarmModel | None, ValidationReport]:
    """Assemble a FarmModel from a parsed document, collecting diagnostics.

    :func:`validate_model` runs only if reading found no error; a model
    returned with errors holds defaults in place of the rejected keys."""
    report = ValidationReport()
    # path order: section order changes no crop, total or diagnostic
    readers = {path: SectionReader(path, doc[path], report)
               for path in sorted(doc)}

    freader = readers.get(("farm",))
    if freader is None:
        report.error("farm", "document has no [farm] section")
        return None, report
    name = freader.text("name", "")
    total_area = freader.non_negative("total_area", "ha")
    cap_aid = freader.non_negative("cap_aid", "EUR/ha", 0.0)
    horizon = freader.years("amortization_horizon", DEFAULT_AMORTIZATION_YEARS)
    if problem := horizon_problem(horizon):  # years() checked the lower bound
        freader.error("amortization_horizon", problem)
        horizon = DEFAULT_AMORTIZATION_YEARS
    marginal_area = freader.non_negative("marginal_area", "ha", 0.0)
    pair = freader.ident_list("marginal_pair")
    factors_ref = freader.text("factors")
    freader.finish()
    freader.require("total_area")
    if pair is not None and len(pair) != 2:  # None: reported already
        freader.error("marginal_pair",
                      "exactly one comparison pair of two crops is required")

    prices: dict[str, float] = {}
    preader = readers.get(("prices",))
    if preader is not None:
        for key in preader.entries:  # a crop the farm lacks is no error
            if key == "straw" or key.endswith(("_grain", "_straw")):
                value = preader.quantity(key, "EUR/Mg")
                if value is not None:
                    prices[key] = value
        preader.finish()

    kinds: dict[str, list[SectionReader]] = {}  # by the first path segment
    for reader in readers.values():
        kinds.setdefault(reader.path[0], []).append(reader)
    products: dict[str, ProductSpec] = {}
    for reader in kinds.get("product", ()):
        if len(reader.path) != 2:
            report.error(reader.name, "product sections are [product.<id>]")
            continue
        spec = _read_product(reader)
        if spec is not None:
            products[spec.product_id] = spec

    samples: list[SoilSample] = []
    first_analysis: dict[tuple[str, int], str] = {}
    for reader in kinds.get("soil", ()):
        if len(reader.path) != 3:
            report.error(reader.name, "soil sections are [soil.<class>.<year>]")
            continue
        sample = _read_soil(reader)
        if sample is None:
            continue
        # "2013", "02013" and "2_013" are distinct paths but one year
        land_year = (sample.land_class, sample.year)
        if land_year in first_analysis:
            report.error(reader.name, f"two analyses of "
                         f"{sample.land_class} land in {sample.year}: "
                         f"this one and [{first_analysis[land_year]}]")
            continue
        first_analysis[land_year] = reader.name
        samples.append(sample)

    crop_readers = kinds.get("crop", ())
    crop_subsections: dict[str, dict[str, list[SectionReader]]] = {}
    for reader in crop_readers:
        if len(reader.path) in (3, 4):
            kind = reader.path[2]
            if kind not in ("herbicide", "op", "costs"):
                report.error(reader.name, f"unknown crop subsection {kind!r}")
                continue
            if (kind in ("herbicide", "op")) != (len(reader.path) == 4):
                report.error(reader.name, "malformed crop subsection path")
                continue
            crop_subsections.setdefault(reader.path[1], {}).setdefault(
                kind, []).append(reader)
        elif len(reader.path) != 2:
            report.error(reader.name, "malformed crop section path")
    crops = {
        reader.path[1]: _read_crop(
            reader, crop_subsections.get(reader.path[1], {}), prices,
            marginal_area)
        for reader in crop_readers if len(reader.path) == 2}
    for crop_name in crop_subsections:
        if crop_name not in crops:
            report.error(f"crop.{crop_name}",
                         "subsections without a [crop.{}] section".format(crop_name))

    for reader in readers.values():
        if reader.path[0] not in ("farm", "prices", "product", "soil", "crop"):
            report.error(reader.name, "unknown section")
        elif reader.path[0] in ("farm", "prices") and len(reader.path) != 1:
            report.error(reader.name, "unknown section")

    model = FarmModel(
        name=name, total_area_ha=total_area, cap_aid_eur_ha=cap_aid,
        amortization_horizon_years=horizon, marginal_area_ha=marginal_area,
        marginal_pair=tuple(pair or ()), crops=crops, products=products,
        soil_samples=tuple(samples), factors_ref=factors_ref)
    if report.ok:  # checks across keys would see the defaults of rejected ones
        report.extend(validate_model(model))
    return model, report


def validate_model(model: FarmModel) -> ValidationReport:
    """Rules across keys of a built model; empty report means valid. The
    range of each single value is checked where its key is read."""
    report = ValidationReport()

    # land bookkeeping: every hectare accounted for exactly once
    # a left fold, as in impact.characterize
    fixed = reduce(add, (p.area_ha for p in model.crops.values()
                         if p.land_class != "marginal"), 0.0)
    declared = fixed + model.marginal_area_ha
    if not math.isclose(declared, model.total_area_ha, rel_tol=1e-12,
                        abs_tol=1e-6):
        report.error("farm.total_area",
                     f"crop areas sum to {declared!r} ha, "
                     f"declared total is {model.total_area_ha!r} ha")

    marginal = [p.name for p in model.crops.values()
                if p.land_class == "marginal"]
    for crop_name in model.marginal_pair:
        if crop_name not in model.crops:
            report.error("farm.marginal_pair", f"unknown crop {crop_name!r}")
        elif crop_name not in marginal:
            report.error("farm.marginal_pair",
                         f"{crop_name!r} is not a marginal-class crop")
    for crop_name in marginal:
        if crop_name not in model.marginal_pair:
            report.error(f"crop.{crop_name}",
                         "marginal crop outside the comparison pair")
    if model.marginal_pair[0] == model.marginal_pair[1]:
        report.error("farm.marginal_pair", "pair must name two distinct crops")

    for plan in model.crops.values():
        where = f"crop.{plan.name}"
        if plan.perennial and plan.life_span_years == 1:
            report.warning(f"{where}.life_span",
                           "perennial crop with a one-year life span")
        if not plan.perennial and plan.life_span_years > 1:
            report.warning(f"{where}.life_span",
                           "annual crop with multi-year span")
        if not plan.perennial and (
                (plan.sowing_timing == "establishment"
                 and plan.sowing_dose_mg_ha)
                or any(entry.timing == "establishment" for entry in (
                    *plan.fertilizations, *plan.herbicides, *plan.operations))):
            report.error(where,
                         "establishment-only entries on a non-perennial crop")
        for kind, applications in (("fertilizer", plan.fertilizations),
                                   ("herbicide", plan.herbicides)):
            for application in applications:
                product = model.products.get(application.product_id)
                if product is None:
                    report.error(where, f"undefined product "
                                        f"{application.product_id!r}")
                elif product.kind != kind:
                    report.error(where, f"{application.product_id!r} "
                                        f"is not a {kind}")
        if plan.seed_source == "own" and not plan.seed_yield_mg_ha:
            report.error(where, "own seed production needs seed_yield > 0")
        if plan.seed_source == "external" and not plan.seed_flow:
            report.error(where, "external seed needs a seed_flow reference")
        if plan.grain_yield_mg_ha > 0 and plan.grain_price is None:
            report.error(where, f"no price for {plan.name!r} grain")
        if plan.straw_yield_mg_ha > 0 and plan.straw_price is None:
            report.error(where, f"no straw price for {plan.name!r}")
        if plan.soc_fixation_mg_c_ha is not None and plan.soc_equilibrium:
            report.warning(where,
                           "soc_fixation is ignored for equilibrium crops")
        if plan.name == "exhaust":
            report.warning(where, "field N2O takes the Tier 1 default: "
                           "[emissions.exhaust] holds the diesel factors")

    for sample in model.soil_samples:
        where = f"soil.{sample.land_class}.{sample.year}"
        if sample.organic_carbon > sample.organic_matter:
            report.error(where, "organic carbon above organic matter")

    return report


def parse_farm_document(text: str) -> FarmModel:
    """Parse and validate a farm file: the model, its warnings included.

    Raises:
        SectionSyntaxError: grammar problems, with line and column.
        FarmValidationError: any error-severity diagnostic, all collected.
    """
    model, report = build_farm_model(parse_document(text))
    if model is None or not report.ok:
        raise FarmValidationError(report)
    return model._replace(warnings=tuple(report.warnings))
