"""Whole-package guards: the package runs on the standard library alone,
only ``hypercore`` writes the dual index, only the callers that hold both
of its sides adopt them through ``Hypergraph._from_rows``, only ``hgio``
reads numbers from text, only ``hgio._json`` decodes JSON, only ``hypercore``
tests whether a value is an integer, the builtin ``sum`` adds only
integers, and no function outside an ``__eq__`` branches on hgkit's own
classes."""

from __future__ import annotations

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Callable

import pytest

import hgkit

PACKAGE_DIR = Path(hgkit.__file__).resolve().parent

# The four slots of ``Hypergraph`` that only hypercore.py may write.
INDEX_ATTRS = frozenset({"_v2he", "_he2v", "_vmeta", "_hemeta"})
# The modules, and the functions of other modules, that hold both sides of
# the index and may adopt them through ``_from_rows``.  Every other builder
# hands over its hyperedges to ``_from_columns``.
ROWS_ADOPTING_MODULES = frozenset({"hypercore.py"})
ROWS_ADOPTING_FUNCTIONS = {"hgio.py": {"read_json"}, "cli.py": {"_load_hypergraph"}}
# The builtins that would read a number from text past hgio's grammar, and
# the calls that may still be handed them.
NUMBER_TYPES = frozenset({"int", "float"})
NUMBER_TYPE_USERS = frozenset({"isinstance", "_number"})
# The ``json`` names that decode a document; only ``hgio._json`` may use them.
JSON_DECODERS = frozenset({"loads", "load", "JSONDecoder"})
# The types that a hand-written integer test names; ``hypercore.check_int`` is
# the one place that may name them.
INTEGER_TYPES = frozenset({"int", "bool"})
TYPE_COMPARISONS = (ast.Is, ast.IsNot, ast.Eq, ast.NotEq)
# Each builtin ``sum`` in the package, by module and function; every one adds
# integers.  From Python 3.12 ``sum`` adds floats with compensation, so a float
# sum would give other bits on other interpreters: floats go through ``fsum``.
INTEGER_SUMS = {
    ("analytics.py", "usable_hyperedges"): 1,
    ("analytics.py", "degree_summary"): 1,
    ("centrality.py", "_dense_masks"): 2,
    ("centrality.py", "_brandes"): 1,
    ("forecast.py", "evaluation_size"): 1,
    ("hypercore.py", "incidence_count"): 1,
}
# hgkit's own concrete classes.  Each function takes one kind of argument and
# reads every graph through the ``Graph`` protocol, so only an ``__eq__``, which
# must answer for any other object, tests for one of them.
HGKIT_CLASSES = frozenset({
    "Hypergraph", "SAdjacency", "CentralityVector", "TwoSectionView", "BipartiteView",
    "Partition", "CoMemberTable",
})
MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "pop", "popitem", "remove", "clear",
    "update", "setdefault", "sort", "reverse", "__setitem__", "__delitem__",
})


def test_package_imports_with_the_standard_library_only():
    # -I drops PYTHONPATH and the user site, -S the site packages, so a
    # third-party import anywhere in the package fails here.  -I also drops
    # PYTHONDONTWRITEBYTECODE, so -B keeps the probe from writing __pycache__.
    probe = (
        "import sys, pkgutil, importlib; sys.path.insert(0, sys.argv[1]); "
        "import hgkit, hgkit.cli; "
        "[importlib.import_module('hgkit.' + m.name) for m in pkgutil.iter_modules(hgkit.__path__)]; "
        "print('ok')"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", probe, str(PACKAGE_DIR.parent)],
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


def scoped_hits(source: str, hit: Callable[[ast.AST], bool]) -> list[tuple[str, int]]:
    """(function, line) of each node that ``hit`` accepts, ``<module>`` outside any function."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if hit(child):
                found.append((scope, child.lineno))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope)

    visit(ast.parse(source), "<module>")
    return found


def rows_adoptions(source: str) -> list[tuple[str, int]]:
    """(function, line) of each reference to ``_from_rows``.

    A call, a bound reference and the name spelt for ``getattr`` all count.
    """
    return scoped_hits(source, lambda node: (
        (isinstance(node, ast.Attribute) and node.attr == "_from_rows")
        or (isinstance(node, ast.Name) and node.id == "_from_rows")
        or (isinstance(node, ast.Constant) and node.value == "_from_rows")
    ))


@pytest.mark.parametrize(
    "source, where",
    [
        ("h = Hypergraph._from_rows(a, b, c, d)", ("<module>", 1)),
        ("def build():\n    return Hypergraph._from_rows(a, b, c, d)", ("build", 2)),
        ("class C:\n    def copy(self):\n        return type(self)._from_rows(*rows)", ("copy", 3)),
        ("def f():\n    def g():\n        Hypergraph._from_rows(a, b, c, d)", ("g", 3)),
        ("def f():\n    make = Hypergraph._from_rows\n    return make(a, b, c, d)", ("f", 2)),
        ("make = getattr(Hypergraph, '_from_rows')", ("<module>", 1)),
        ("async def load():\n    return _from_rows(a, b, c, d)", ("load", 2)),
    ],
)
def test_rows_guard_sees_each_adoption(source, where):
    assert rows_adoptions(source) == [where]


@pytest.mark.parametrize(
    "source",
    [
        "h = Hypergraph._from_columns(he2v, n, vmeta, hemeta)",
        "h = Hypergraph.from_incidence(rows)",
        "def _from_rows(cls, v2he, he2v, vmeta, hemeta): pass",
        '"""Built through ``Hypergraph._from_rows``."""',
        "rows = h._v2he",
    ],
)
def test_rows_guard_lets_other_builders_pass(source):
    assert rows_adoptions(source) == []


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name not in ROWS_ADOPTING_MODULES),
    ids=lambda p: p.name,
)
def test_only_holders_of_both_sides_adopt_rows(path):
    allowed = ROWS_ADOPTING_FUNCTIONS.get(path.name, set())
    adoptions = rows_adoptions(path.read_text(encoding="utf-8"))
    assert [(f, line) for f, line in adoptions if f not in allowed] == []


def number_parses(source: str) -> list[int]:
    """Line numbers of calls to ``int`` or ``float``, or of calls handed one, as ``type=int`` is."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
        handed = [*node.args, *(k.value for k in node.keywords)]
        if callee in NUMBER_TYPES or (
            callee not in NUMBER_TYPE_USERS
            and any(isinstance(a, ast.Name) and a.id in NUMBER_TYPES for a in handed)
        ):
            lines.append(node.lineno)
    return sorted(set(lines))


@pytest.mark.parametrize(
    "source",
    [
        "v = int(text)",
        "w = float(row[2])",
        "v, w = int(a), b",
        "f(int(x))",
        "w = builtins.float(x)",
        "p.add_argument('--s', type=int)",
        "cells = list(map(float, row))",
    ],
)
def test_number_guard_sees_each_parse(source):
    assert number_parses(source) == [1]


@pytest.mark.parametrize(
    "source",
    [
        "ok = isinstance(v, int)",
        "ok = isinstance(v, (int, float))",
        "v = hgio._number(text, int, FormatError, 'vertex')",
        "w = _number(text, float, FormatError, 'weight')",
        "labels: dict[int, int] = {}",
        "def f(x: int) -> float: pass",
    ],
)
def test_number_guard_lets_type_checks_and_the_grammar_pass(source):
    assert number_parses(source) == []


@pytest.mark.parametrize("name", ["cli.py", "partition.py"])
def test_only_hgio_reads_numbers_from_text(name):
    assert number_parses((PACKAGE_DIR / name).read_text(encoding="utf-8")) == []


def json_decodes(source: str) -> list[tuple[str, int]]:
    """(function, line) of each ``json`` decoder named through the module, or imported from it."""
    modules = {"json"} | {
        alias.asname for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "json" and alias.asname
    }
    return scoped_hits(source, lambda node: (
        (
            isinstance(node, ast.Attribute) and node.attr in JSON_DECODERS
            and isinstance(node.value, ast.Name) and node.value.id in modules
        )
        or (
            isinstance(node, ast.ImportFrom) and node.module == "json"
            and any(alias.name in JSON_DECODERS for alias in node.names)
        )
    ))


@pytest.mark.parametrize(
    "source, where",
    [
        ("doc = json.loads(text)", ("<module>", 1)),
        ("def f(fh):\n    return json.load(fh)", ("f", 2)),
        ("decoder = json.JSONDecoder(object_pairs_hook=dict)", ("<module>", 1)),
        ("def f(text):\n    parse = json.loads\n    return parse(text)", ("f", 2)),
        ("import json as jsonlib\ndoc = jsonlib.loads(text)", ("<module>", 2)),
        ("from json import loads", ("<module>", 1)),
        ("from json import dumps, load as read", ("<module>", 1)),
        ("def f():\n    from json import JSONDecoder", ("f", 2)),
    ],
)
def test_json_guard_sees_each_decode(source, where):
    assert json_decodes(source) == [where]


@pytest.mark.parametrize(
    "source",
    [
        "text = json.dumps(doc, indent=2)",
        "from json import dumps",
        "encoder = json.JSONEncoder(indent=2)",
        "doc = hgio._json(text, dict, FormatError, 'manifest')",
        "rows = table.loads(text)",
        '"""Decoded by ``json.loads``."""',
    ],
)
def test_json_guard_lets_encoders_and_the_reader_pass(source):
    assert json_decodes(source) == []


def test_only_hgio_json_decodes_json():
    found = [
        (path.name, scope)
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for scope, _ in json_decodes(path.read_text(encoding="utf-8"))
    ]
    assert found == [("hgio.py", "_json")]


def _is_type_call(node: ast.expr) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "type"


def integer_checks(source: str) -> list[tuple[str, int]]:
    """(function, line) of each hand-written integer test.

    ``isinstance(x, int)``, ``isinstance(x, bool)``, and ``type(x)``
    compared with ``int`` by ``is``, ``is not``, ``==`` or ``!=`` count; a
    type tuple, as in a filter on several kinds of value, does not.
    """
    def hit(node: ast.AST) -> bool:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            return len(node.args) == 2 and isinstance(node.args[1], ast.Name) and node.args[1].id in INTEGER_TYPES
        if isinstance(node, ast.Compare) and all(isinstance(op, TYPE_COMPARISONS) for op in node.ops):
            operands = [node.left, *node.comparators]
            names = {o.id for o in operands if isinstance(o, ast.Name)}
            return "int" in names and any(map(_is_type_call, operands))
        return False

    return scoped_hits(source, hit)


@pytest.mark.parametrize(
    "source, found",
    [
        ("ok = isinstance(v, int)", [("<module>", 1)]),
        ("if isinstance(v, bool):\n    pass", [("<module>", 1)]),
        (
            "def _check_s(s):\n"
            "    if not isinstance(s, int) or isinstance(s, bool) or s < 1:\n"
            "        raise ValueError(s)",
            [("_check_s", 2), ("_check_s", 2)],
        ),
        ("def f(v):\n    return type(v) is int", [("f", 2)]),
        ("if type(doc.get('n')) is not int:\n    pass", [("<module>", 1)]),
        ("ok = int is type(v)", [("<module>", 1)]),
        ("ok = type(v) == int", [("<module>", 1)]),
        ("class C:\n    def m(self, v):\n        return [x for x in v if isinstance(x, int)]", [("m", 3)]),
    ],
)
def test_integer_guard_sees_each_check(source, found):
    assert integer_checks(source) == found


@pytest.mark.parametrize(
    "source",
    [
        "ok = isinstance(value, (str, int, float, bool, list, type(None)))",
        "ok = isinstance(g, Hypergraph)",
        "ok = type(rows) is tuple",
        "ok = type(w) is float",
        "v = check_int(v, 1, n, FormatError, 'vertex')",
        "v = hypercore.check_int(v, None, None, ValueError, 'seed')",
        "def f(x: int) -> bool: pass",
        "labels: dict[int, int] = {}",
        '"""Not ``isinstance(v, int)``."""',
    ],
)
def test_integer_guard_lets_type_tuples_and_the_one_check_pass(source):
    assert integer_checks(source) == []


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "hypercore.py"),
    ids=lambda p: p.name,
)
def test_only_hypercore_checks_integers(path):
    assert integer_checks(path.read_text(encoding="utf-8")) == []


def sum_uses(source: str) -> list[tuple[str, int]]:
    """(function, line) of each reference to the builtin ``sum``: a call, a bound name or ``builtins.sum``."""
    return scoped_hits(source, lambda node: (
        (isinstance(node, ast.Name) and node.id == "sum")
        or (
            isinstance(node, ast.Attribute) and node.attr == "sum"
            and isinstance(node.value, ast.Name) and node.value.id == "builtins"
        )
    ))


@pytest.mark.parametrize(
    "source, where",
    [
        ("total = sum(weights)", ("<module>", 1)),
        ("def f(xs):\n    return sum(x * 0.5 for x in xs)", ("f", 2)),
        ("class C:\n    def m(self, rows):\n        return list(map(sum, rows))", ("m", 3)),
        ("def f(xs):\n    add = sum\n    return add(xs)", ("f", 2)),
        ("total = builtins.sum(weights)", ("<module>", 1)),
    ],
)
def test_sum_guard_sees_each_use(source, where):
    assert sum_uses(source) == [where]


@pytest.mark.parametrize(
    "source",
    [
        "total = fsum(weights)",
        "total = math.fsum(weights)",
        "total = table.sum()",
        '"""The sum of the weights."""',
        "summed = total + 1",
    ],
)
def test_sum_guard_lets_fsum_and_other_names_pass(source):
    assert sum_uses(source) == []


def test_every_builtin_sum_is_a_listed_integer_sum():
    found = Counter(
        (path.name, scope)
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for scope, _ in sum_uses(path.read_text(encoding="utf-8"))
    )
    assert dict(found) == INTEGER_SUMS


def _class_names(node: ast.expr) -> set[str]:
    """The class names that the second argument of ``isinstance`` spells, through tuples and ``|``."""
    if isinstance(node, ast.Tuple):
        return set().union(*map(_class_names, node.elts))
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _class_names(node.left) | _class_names(node.right)
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return {node.id} if isinstance(node, ast.Name) else set()


def type_dispatches(source: str) -> list[tuple[str, int]]:
    """(function, line) of each ``isinstance`` against one of hgkit's own classes outside an ``__eq__``."""
    hits = scoped_hits(source, lambda node: (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
        and len(node.args) == 2 and bool(_class_names(node.args[1]) & HGKIT_CLASSES)
    ))
    return [(scope, line) for scope, line in hits if scope != "__eq__"]


@pytest.mark.parametrize(
    "source, where",
    [
        ("ok = isinstance(g, Hypergraph)", ("<module>", 1)),
        ("def f(g):\n    return TwoSectionView(g) if isinstance(g, Hypergraph) else g", ("f", 2)),
        ("def f(x):\n    return x.scores if isinstance(x, CentralityVector) else x", ("f", 2)),
        ("ok = isinstance(g, (dict, SAdjacency))", ("<module>", 1)),
        ("ok = isinstance(g, views.BipartiteView)", ("<module>", 1)),
        ("ok = isinstance(g, MaterializedGraph | TwoSectionView)", ("<module>", 1)),
        ("class C:\n    def __hash__(self):\n        return isinstance(self, Partition)", ("__hash__", 3)),
    ],
)
def test_dispatch_guard_sees_each_test_for_an_own_class(source, where):
    assert type_dispatches(source) == [where]


@pytest.mark.parametrize(
    "source",
    [
        "def __eq__(self, other):\n    if not isinstance(other, Hypergraph):\n        return NotImplemented",
        "if not isinstance(g, Graph):\n    raise TypeError(g)",
        "ok = isinstance(doc, dict)",
        "ok = isinstance(members, list)",
        "label = meta if isinstance(meta, str) else ''",
        "ok = isinstance(memberships, Mapping)",
        "g = TwoSectionView(h)",
        '"""Not ``isinstance(g, Hypergraph)``."""',
    ],
)
def test_dispatch_guard_lets_eq_the_protocol_and_input_shapes_pass(source):
    assert type_dispatches(source) == []


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_no_function_branches_on_an_own_class(path):
    assert type_dispatches(path.read_text(encoding="utf-8")) == []
