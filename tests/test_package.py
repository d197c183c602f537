"""The public surface of the package."""

import importlib
import pkgutil

import pytest

import cropgate

MODULES = ["cropgate"] + [f"cropgate.{info.name}"
                          for info in pkgutil.iter_modules(cropgate.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_error_derives_from_the_package_base(name):
    module = importlib.import_module(name)
    errors = [getattr(module, attr) for attr in module.__all__
              if isinstance(getattr(module, attr), type)
              and issubclass(getattr(module, attr), Exception)]
    assert all(issubclass(error, cropgate.CropgateError) for error in errors)


def test_error_classes_carry_the_exit_policy():
    from cropgate.farmspec import UnknownCropError
    assert issubclass(cropgate.CropgateError, ValueError)
    assert (cropgate.CropgateError.exit_code, cropgate.InputError.exit_code) \
        == (1, 2)
    syntax = cropgate.SectionSyntaxError("bad", 3, 4)
    assert (syntax.exit_code, syntax.prefix) == (2, "syntax error: ")
    assert cropgate.FactorFileError.prefix == ""
    assert cropgate.FarmValidationError.prefix == ""
    # both KeyError kinds print their message as it is, without quotes
    assert isinstance(cropgate.MissingFlowError("x"), KeyError)
    assert str(cropgate.MissingFlowError("x")) \
        == "no factor record for flow 'x'"
    assert isinstance(UnknownCropError("no crop"), KeyError)
    assert str(UnknownCropError("no crop")) == "no crop"
