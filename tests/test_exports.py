import importlib
import pkgutil

import pytest

import byzfl

MODULES = [f"byzfl.{info.name}" for info in pkgutil.iter_modules(byzfl.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # A deleted name left in __all__ would break only `from ... import *`.
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
