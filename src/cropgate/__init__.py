"""Cradle-to-farm-gate assessment of crop alternatives.

The package answers three questions about a crop grown on one hectare for
one year: what gross margin it leaves, what greenhouse-gas balance it
causes (GWP100, soil carbon included), and how much primary energy its
inputs embody, split renewable against non-renewable. Farm data and
characterization factors come from two plain-text files; results come back
as plain objects or deterministic CSV/JSON reports.

Importing the package loads none of its modules. An exported name or a
submodule loads on first access, so a command compiles and runs only the
modules it uses.

Typical use::

    from cropgate import assess, bundled_data_path

    model = assess.load_farm(bundled_data_path("farm_soria.cg"))
    db = assess.load_factors(bundled_data_path("factors_calibrated.cg"))
    result = assess.assess_crop(model, db, "tall_wheatgrass")
    print(result.gwp.net_total)
"""

# the one version string: packaging metadata and the report run hash read it
__version__ = "1.0.0"


class CropgateError(ValueError):
    """Anything a farm file, a factor file or a flag can get wrong. The
    command line prints ``prefix`` and the message, and exits ``exit_code``."""
    exit_code = 1
    prefix = "error: "


class InputError(CropgateError):
    """An input that cannot be read or used at all: a bad flag or syntax."""
    exit_code = 2


# the flows characterized through the IPCC 2013 GWP100 table, not through
# [flow.*] records, in the field order of factors.ExhaustFactors
GASES = ("co2", "ch4", "n2o")

# an amortization horizon longer than this is a typo, not a question about
# the farm
MAX_HORIZON_YEARS = 1000


def horizon_problem(years: float) -> str | None:
    """Why ``years`` is no amortization horizon, None if it is one: a
    horizon runs from 1 to ``MAX_HORIZON_YEARS`` years. NaN, the infinities
    and ints too large for a float fail a comparison too."""
    if not years >= 1:
        return "must be at least 1 year"
    if not years <= MAX_HORIZON_YEARS:
        return f"must be at most {MAX_HORIZON_YEARS} years"
    return None


# exported name -> its module, resolved on first access (PEP 562)
_EXPORTS = {
    "assess": ("CropAssessment", "PairComparison", "assess_crop",
               "compare_pair", "sweep_shares", "load_farm", "load_factors",
               "resolve_factors_path", "bundled_data_path"),
    "economics": ("EconomicBalance", "FarmIncome", "SweepPoint",
                  "crop_balance", "farm_income", "marginal_share_sweep"),
    "factors": ("FactorDB", "FactorFileError", "FactorRecord",
                "MissingFlowError", "load_factor_db"),
    "farmspec": ("CropPlan", "FarmModel", "FarmFileError",
                 "FarmValidationError", "LandClass", "SeedSource", "Timing",
                 "ValidationReport", "parse_farm_document", "validate_model"),
    "impact": ("EnergyBreakdown", "GwpBreakdown", "phase_shares"),
    "inventory": ("Flow", "Inventory", "InventoryError", "Phase",
                  "SeedRecursionError", "annualize_schedule", "build_lci",
                  "soc_annual_change", "soc_co2_credit", "soc_stock"),
    "sections": ("SectionSyntaxError", "parse_document"),
    "units": ("Quantity", "Unit", "UnitError", "parse_quantity", "parse_unit"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {"cli", "reports", *_EXPORTS}

__all__ = ["__version__", "CropgateError", "InputError", "GASES",
           "MAX_HORIZON_YEARS", "horizon_problem", "assess", *_HOME]


def __getattr__(name: str):
    if name in _SUBMODULES:
        # __import__, unlike importlib.import_module, is logged by -X importtime
        __import__(f"{__name__}.{name}")
        return globals()[name]
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_HOME[name]), name)
    return value
