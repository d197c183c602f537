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
