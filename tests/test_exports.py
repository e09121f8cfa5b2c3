"""Every name the package exports resolves, and none is listed twice."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import hgkit

MODULES = [hgkit] + [
    importlib.import_module(f"hgkit.{info.name}") for info in pkgutil.iter_modules(hgkit.__path__)
]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__)
def test_all_names_resolve_once(module):
    names = module.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(module, name)] == []
