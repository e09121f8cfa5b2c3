"""Whole-package guards: the package runs on the standard library alone,
and only ``hypercore`` writes the dual index."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import hgkit

PACKAGE_DIR = Path(hgkit.__file__).resolve().parent

# The four slots of ``Hypergraph`` that only hypercore.py may write.
INDEX_ATTRS = frozenset({"_v2he", "_he2v", "_vmeta", "_hemeta"})
MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "pop", "popitem", "remove", "clear",
    "update", "setdefault", "sort", "reverse", "__setitem__", "__delitem__",
})


def test_package_imports_with_the_standard_library_only():
    # -I drops PYTHONPATH and the user site, -S the site packages, so a
    # third-party import anywhere in the package fails here.
    probe = (
        "import sys, pkgutil, importlib; sys.path.insert(0, sys.argv[1]); "
        "import hgkit, hgkit.cli; "
        "[importlib.import_module('hgkit.' + m.name) for m in pkgutil.iter_modules(hgkit.__path__)]; "
        "print('ok')"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", probe, str(PACKAGE_DIR.parent)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # Each costs every command's start-up several milliseconds.  -S keeps
    # site hooks, which may import either module themselves, out.
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import hgkit.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(PACKAGE_DIR.parent)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout == "[]\n"


def _through_index(node: ast.expr) -> bool:
    """Whether an attribute/subscript chain passes through one of the index attributes."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute) and node.attr in INDEX_ATTRS:
            return True
        node = node.value
    return False


def index_writes(source: str) -> list[int]:
    """Line numbers of stores, ``del``s and mutating calls through the index attributes."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(node.ctx, (ast.Store, ast.Del)):
            hit = _through_index(node)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            hit = node.func.attr in MUTATING_METHODS and _through_index(node.func.value)
        else:
            continue
        if hit:
            lines.append(node.lineno)
    return sorted(set(lines))


@pytest.mark.parametrize(
    "source",
    [
        "h._v2he = []",
        "h._v2he, h._he2v = a, b",
        "h._vmeta[0] = 'x'",
        "h._v2he[v - 1][e] = 1.0",
        "h._he2v[e - 1][v] += 1.0",
        "del h._he2v[e - 1][v]",
        "h._hemeta.append(None)",
        "h._v2he[0].update({1: 1.0})",
        "h._he2v[0].pop(1)",
        "for h._vmeta[0] in items: pass",
    ],
)
def test_guard_sees_each_kind_of_write(source):
    assert index_writes(source) == [1]


@pytest.mark.parametrize(
    "source",
    [
        "row = h._v2he[v - 1]",
        "n = len(h._he2v[e - 1])",
        "for e in h._v2he[v - 1]: pass",
        "members = sorted(h._he2v[e - 1])",
        "w = h._v2he[v - 1].get(e)",
        "Hypergraph._from_rows(v2he, he2v, vmeta, hemeta)",
        "v2he[v - 1][e] = w",
    ],
)
def test_guard_lets_reads_and_local_rows_pass(source):
    assert index_writes(source) == []


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "hypercore.py"),
    ids=lambda p: p.name,
)
def test_only_hypercore_writes_the_dual_index(path):
    assert index_writes(path.read_text(encoding="utf-8")) == []
