"""Every name the package and its modules export resolves."""

import importlib
import pkgutil

import pytest

import horizon_lab

_MODULES = ["horizon_lab"] + [
    f"horizon_lab.{info.name}"
    for info in pkgutil.iter_modules(horizon_lab.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_star_import_binds_every_export():
    ns = {}
    exec("from horizon_lab import *", ns)
    assert set(horizon_lab.__all__) <= set(ns)
