"""Every name a contactopt module lists in ``__all__`` must resolve, so a
deleted function cannot linger in a module's public list."""

import importlib
import pkgutil

import pytest

import contactopt

MODULES = [
    name
    for name in ["contactopt"]
    + [f"contactopt.{m.name}" for m in pkgutil.iter_modules(contactopt.__path__)]
    if hasattr(importlib.import_module(name), "__all__")
]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
