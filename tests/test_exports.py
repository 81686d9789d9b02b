"""Every name a module exports in ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import slantsurf

MODULES = ["slantsurf", *(f"slantsurf.{m.name}" for m in pkgutil.iter_modules(slantsurf.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_export(name):
    module = importlib.import_module(name)
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert [n for n in getattr(module, "__all__", ()) if n not in namespace] == []
