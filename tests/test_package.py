"""Package surface: every name a melan module exports is defined."""

import importlib
import pkgutil

import pytest

import melan

MODULES = ["melan"] + [f"melan.{m.name}" for m in pkgutil.iter_modules(melan.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    # a name deleted from a module but left in its __all__ breaks only
    # `from module import *`, which nothing else in the suite runs
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert not missing
