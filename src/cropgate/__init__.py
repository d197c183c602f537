"""Cradle-to-farm-gate assessment of crop alternatives.

The package answers three questions about a crop grown on one hectare for
one year: what gross margin it leaves, what greenhouse-gas balance it
causes (GWP100, soil carbon included), and how much primary energy its
inputs embody, split renewable against non-renewable. Farm data and
characterization factors come from two plain-text files; results come back
as plain objects or deterministic CSV/JSON reports.

Importing the package loads none of its modules. A submodule loads on
first access, so a command compiles and runs only the modules it uses; each
public name is imported from the module that defines it.

Typical use::

    from cropgate.assess import (assess_crop, bundled_data_path,
                                 load_factors, load_farm)

    model = load_farm(bundled_data_path("farm_soria.cg"))
    db = load_factors(bundled_data_path("factors_calibrated.cg"))
    result = assess_crop(model, db, "tall_wheatgrass")
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
# [flow.*] records
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


# loaded on first access (PEP 562), so a command compiles only what it uses
_SUBMODULES = {"assess", "cli", "economics", "factors", "farmspec", "impact",
               "inventory", "reports", "sections", "units"}

__all__ = ["__version__", "CropgateError", "InputError", "GASES",
           "MAX_HORIZON_YEARS", "horizon_problem"]


def __getattr__(name: str):
    if name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, is logged by -X importtime
    __import__(f"{__name__}.{name}")
    return globals()[name]
