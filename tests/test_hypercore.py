"""Core storage: dual indexes, mutation, remaps, metadata."""

from __future__ import annotations

import enum
import json
import math
import random
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Callable

import pytest
from helpers import (
    random_hypergraph,
    reference_add_hyperedge,
    reference_add_vertex,
    reference_check_dual_consistency,
)

from hgkit import Hypergraph, Partition
from hgkit.analytics import induced_subhypergraph, random_walk_step
from hgkit.centrality import s_adjacency
from hgkit.cli import main
from hgkit.community import LpConfig
from hgkit.errors import (
    ContractError,
    FormatError,
    HgkitError,
    InvalidSError,
    MalformedHeaderError,
    NonFiniteWeightError,
    NonNumericWeightError,
    NonRectangularError,
    SchemaViolationError,
    UnknownHyperedgeError,
    UnknownVertexError,
)
from hgkit.hgio import MAX_HGF_VERTICES, read_hgf, read_json, write_json


class TestConstruction:
    def test_empty(self):
        h = Hypergraph()
        assert h.nhv == 0 and h.nhe == 0
        assert h.incidence_count == 0

    def test_preallocated(self):
        h = Hypergraph(3, 2)
        assert h.nhv == 3 and h.nhe == 2
        assert h.get_hyperedges(1) == {}
        assert h.get_vertices(2) == {}

    @pytest.mark.parametrize(
        "n, k",
        [(-1, 0), (0, -1), (True, 0), (0, False), (2.5, 0), ("3", 0), (0, None)],
        ids=["negative-n", "negative-k", "bool-n", "bool-k", "float-n", "str-n", "none-k"],
    )
    def test_negative_counts_rejected(self, n, k):
        with pytest.raises(ValueError):
            Hypergraph(n, k)

    def test_from_incidence(self):
        h = Hypergraph.from_incidence([[2.5, None], [1.0, 1.0], [None, 1.0]])
        assert h.nhv == 3 and h.nhe == 2
        assert h.get_weight(1, 1) == 2.5
        assert h.get_weight(1, 2) is None
        assert h.get_vertices(2) == {2: 1.0, 3: 1.0}

    def test_from_incidence_round_trip(self):
        matrix = [[1.0, None, 3.0], [None, None, None]]
        assert Hypergraph.from_incidence(matrix).to_incidence() == matrix

    def test_from_incidence_ragged(self):
        with pytest.raises(NonRectangularError):
            Hypergraph.from_incidence([[1.0], [1.0, 2.0]])

    def test_from_incidence_nan(self):
        with pytest.raises(NonFiniteWeightError):
            Hypergraph.from_incidence([[float("nan")]])


class TestWeights:
    def test_set_get_clear(self):
        h = Hypergraph(2, 1)
        assert h.set_weight(1, 1, 2.0) is None
        assert h.get_weight(1, 1) == 2.0
        assert h.set_weight(1, 1, 3.0) == 2.0
        assert h.set_weight(1, 1, None) == 3.0
        assert h.get_weight(1, 1) is None
        assert h.set_weight(1, 1, None) is None  # clearing twice is a no-op

    def test_default_weight_on_bare_ids(self):
        h = Hypergraph(3, 0)
        e = h.add_hyperedge([1, 3])
        assert h.get_vertices(e) == {1: 1.0, 3: 1.0}

    def test_non_finite_rejected(self):
        h = Hypergraph(1, 1)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(NonFiniteWeightError):
                h.set_weight(1, 1, bad)
        assert h.get_weight(1, 1) is None

    def test_only_ints_and_floats_are_weights(self):
        # Strings, bools and other non-numbers are rejected by every mutator,
        # not coerced with float(); ints are stored as floats.
        assert issubclass(NonNumericWeightError, ContractError)
        for bad in ("2.5", "3", "x", True, False, b"1", [1.0], None.__class__):
            h = Hypergraph(1, 1)
            with pytest.raises(NonNumericWeightError):
                h.set_weight(1, 1, bad)
            with pytest.raises(NonNumericWeightError):
                h.add_vertex({1: bad})
            with pytest.raises(NonNumericWeightError):
                h.add_hyperedge({1: bad})
            with pytest.raises(NonNumericWeightError):
                Hypergraph.from_incidence([[bad]])
            assert h == Hypergraph(1, 1)
        with pytest.raises(NonFiniteWeightError):
            Hypergraph(1, 1).set_weight(1, 1, 10**400)
        h = Hypergraph(1, 1)
        h.set_weight(1, 1, 3)
        v = h.add_vertex({1: 2})
        assert [type(w) for w in (h.get_weight(1, 1), h.get_weight(v, 1))] == [float, float]

    def test_unknown_ids(self):
        h = Hypergraph(2, 2)
        with pytest.raises(UnknownVertexError):
            h.set_weight(3, 1, 1.0)
        with pytest.raises(UnknownHyperedgeError):
            h.set_weight(1, 3, 1.0)
        with pytest.raises(UnknownVertexError):
            h.get_hyperedges(0)
        with pytest.raises(UnknownHyperedgeError):
            h.get_vertices(-1)


class TestMutation:
    def test_add_vertex_with_memberships(self):
        h = Hypergraph(1, 2)
        v = h.add_vertex({1: 2.0, 2: 1.0}, meta="fresh")
        assert v == 2
        assert h.get_hyperedges(2) == {1: 2.0, 2: 1.0}
        assert h.get_vertices(1) == {2: 2.0}
        assert h.get_vertex_meta(2) == "fresh"

    def test_add_vertex_atomic_on_bad_hyperedge(self):
        h = Hypergraph(1, 1)
        with pytest.raises(UnknownHyperedgeError):
            h.add_vertex({1: 1.0, 9: 1.0})
        assert h.nhv == 1
        assert h.get_vertices(1) == {}

    def test_remove_last_vertex_no_remap(self):
        h = Hypergraph(3, 1)
        h.set_weight(3, 1, 1.0)
        assert h.remove_vertex(3) == {}
        assert h.nhv == 2
        assert h.get_vertices(1) == {}

    def test_remove_vertex_swaps_last_into_slot(self):
        h = Hypergraph(3, 2)
        h.set_weight(1, 1, 1.0)
        h.set_weight(3, 1, 5.0)
        h.set_weight(3, 2, 7.0)
        h.set_vertex_meta(3, "mover")
        remap = h.remove_vertex(1)
        assert remap == {3: 1}
        assert h.nhv == 2
        assert h.get_hyperedges(1) == {1: 5.0, 2: 7.0}
        assert h.get_vertex_meta(1) == "mover"
        assert h.get_vertices(1) == {1: 5.0}
        assert h.get_vertices(2) == {1: 7.0}

    def test_remove_hyperedge_swaps_last_into_slot(self):
        h = Hypergraph(2, 3)
        h.set_weight(1, 1, 1.0)
        h.set_weight(2, 3, 4.0)
        h.set_hyperedge_meta(3, {"tag": 9})
        remap = h.remove_hyperedge(1)
        assert remap == {3: 1}
        assert h.nhe == 2
        assert h.get_vertices(1) == {2: 4.0}
        assert h.get_hyperedge_meta(1) == {"tag": 9}
        assert h.get_hyperedges(1) == {}
        assert h.get_hyperedges(2) == {1: 4.0}

    def test_empty_hyperedges_and_isolated_vertices_are_legal(self):
        h = Hypergraph(2, 0)
        e = h.add_hyperedge()
        assert h.hyperedge_size(e) == 0
        assert h.degree(1) == 0

    def test_snapshots_are_copies(self):
        h = Hypergraph(1, 1)
        h.set_weight(1, 1, 1.0)
        snap = h.get_hyperedges(1)
        snap[99] = 123.0
        assert h.get_hyperedges(1) == {1: 1.0}


class TestEqualityAndCopy:
    def test_copy_independent(self):
        h = Hypergraph(2, 1)
        h.set_weight(1, 1, 1.0)
        h.set_vertex_meta(1, "a")
        dup = h.copy()
        assert dup == h
        dup.set_weight(2, 1, 2.0)
        assert dup != h

    def test_metadata_counts_for_equality(self):
        a, b = Hypergraph(1, 0), Hypergraph(1, 0)
        assert a == b
        b.set_vertex_meta(1, "x")
        assert a != b


def _random_mutation(h: Hypergraph, rng: random.Random, cap: int = 40) -> None:
    op = rng.randrange(6)
    if op == 0 and h.nhv < cap:
        pool = list(h.hyperedges())
        picks = rng.sample(pool, min(len(pool), rng.randint(0, 3)))
        h.add_vertex({e: rng.choice((1.0, 2.5)) for e in picks})
    elif op == 1 and h.nhe < cap:
        pool = list(h.vertices())
        h.add_hyperedge(rng.sample(pool, min(len(pool), rng.randint(0, 3))))
    elif op == 2 and h.nhv:
        h.remove_vertex(rng.randint(1, h.nhv))
    elif op == 3 and h.nhe:
        h.remove_hyperedge(rng.randint(1, h.nhe))
    elif op == 4 and h.nhv and h.nhe:
        h.set_weight(rng.randint(1, h.nhv), rng.randint(1, h.nhe), rng.uniform(0.5, 4.0))
    elif op == 5 and h.nhv and h.nhe:
        h.set_weight(rng.randint(1, h.nhv), rng.randint(1, h.nhe), None)


class TestMemberIds:
    def test_bool_float_and_str_member_ids_rejected(self):
        h = Hypergraph(3, 1)
        before = h.copy()
        with pytest.raises(UnknownVertexError, match=r"^vertex must be an integer in 1\.\.3, got True$"):
            h.add_hyperedge([True, 2.9, "3"])
        with pytest.raises(UnknownHyperedgeError, match=r"^hyperedge must be the integer 1, got True$"):
            h.add_vertex({True: 1})
        for bad in ([2.9], ("3",), {1.0: 1.0}, [1, True], [2, 2.0], (i for i in (1, "1"))):
            with pytest.raises(UnknownVertexError):
                h.add_hyperedge(bad)
        for bad in ([1.0], {"1": 2.0}, (False,)):
            with pytest.raises(UnknownHyperedgeError):
                h.add_vertex(bad)
        assert h == before
        assert h.check_dual_consistency()

    def test_int_subclass_ids_are_stored_as_plain_ints(self):
        class Id(enum.IntEnum):
            ONE = 1
            TWO = 2

        h = Hypergraph(2, 0)
        e = h.add_hyperedge([Id.TWO, Id.ONE])
        v = h.add_vertex({Id.ONE: 2.0})
        cells = [*h._he2v, *h._v2he]
        assert {type(i) for row in cells for i in row} == {int}
        assert h.get_vertices(e) == {1: 1.0, 2: 1.0, v: 2.0}

    def test_nan_weight_raises_before_bad_id(self):
        nan = float("nan")
        for members in ({0: 1.0, 1: nan}, {1: nan, 9: 1.0}, {-2: nan}):
            h = Hypergraph(2, 2)
            with pytest.raises(NonFiniteWeightError):
                h.add_vertex(members)
            with pytest.raises(NonFiniteWeightError):
                h.add_hyperedge(members)
            with pytest.raises(NonFiniteWeightError):
                reference_add_vertex(h.copy(), members)
            assert h == Hypergraph(2, 2)


def _membership_shapes(ids: list, weights: list) -> dict:
    """One factory per accepted membership shape, each giving the same ids."""
    return {
        "list": lambda: list(ids),
        "tuple": lambda: tuple(ids),
        "set": lambda: set(ids),
        "generator": lambda: (i for i in ids),
        "mapping": lambda: dict(zip(ids, weights)),
    }


def test_batched_id_check_matches_per_member_reference():
    rng = random.Random(20261018)
    mutators = (
        (Hypergraph.add_vertex, reference_add_vertex, Hypergraph.nhe.fget),
        (Hypergraph.add_hyperedge, reference_add_hyperedge, Hypergraph.nhv.fget),
    )
    for _ in range(60):
        h = random_hypergraph(rng, max_n=7, max_k=7, weighted=True)
        for add, reference_add, bound in mutators:
            n = bound(h)
            good = rng.sample(range(1, n + 1), rng.randint(0, min(n, 4)))
            bad = rng.choice((0, n + 1, -rng.randint(1, 5)))
            placed = {
                "none": good,
                "first": [bad, *good],
                "middle": [*good[:1], bad, *good[1:]],
                "last": [*good, bad],
            }
            for where, ids in placed.items():
                weights = [rng.choice((0.5, 1.0, 2.0)) for _ in ids]
                for shape, make in _membership_shapes(ids, weights).items():
                    expected = h.copy()  # the reference checks before it writes
                    try:
                        result = reference_add(expected, make(), meta=shape)
                    except HgkitError as exc:
                        with pytest.raises(type(exc)) as info:
                            add(h, make(), meta=shape)
                        assert (type(info.value), str(info.value)) == (type(exc), str(exc)), (where, shape)
                    else:
                        assert add(h, make(), meta=shape) == result, (where, shape)
                    assert h == expected, (where, shape)
                    assert h.check_dual_consistency()
        # None and the empty shapes add a member-less vertex and hyperedge.
        for make in (lambda: None, list, tuple, set, dict, lambda: iter(())):
            expected = h.copy()
            assert h.add_vertex(make()) == reference_add_vertex(expected, make())
            assert h.add_hyperedge(make()) == reference_add_hyperedge(expected, make())
            assert h == expected


def test_dual_consistency_flags_cells_outside_the_id_ranges():
    h = Hypergraph(2, 1)
    h.set_weight(2, 1, 1.0)
    h._he2v[0][0] = 1.0  # vertex 0 would be read through _v2he[-1], vertex 2's row
    assert not h.check_dual_consistency()
    h = Hypergraph(2, 1)
    h.set_weight(2, 1, 1.0)
    h._he2v[0][3] = 1.0  # vertex n + 1
    assert not h.check_dual_consistency()
    for bad in (0, 3):  # hyperedge 0 would be read through _he2v[-1], 3 past the end
        h = Hypergraph(2, 2)
        h.set_weight(1, 2, 1.0)
        h._v2he[0] = {bad: 1.0}
        assert not h.check_dual_consistency()


def _corrupt(h: Hypergraph, rng: random.Random) -> str:
    """Damage one side of the store in one of six ways; name the damage."""
    cells = [(v, e) for v in h.vertices() for e in h._v2he[v - 1]]
    free = [(v, e) for v in h.vertices() for e in h.hyperedges() if e not in h._v2he[v - 1]]
    kinds = ["add to vertex index", "add to hyperedge index"] if free else []
    if cells:
        kinds += [
            "reweigh in vertex index",
            "reweigh in hyperedge index",
            "drop from vertex index",
            "drop from hyperedge index",
        ]
    if not kinds:
        return "none"
    kind = rng.choice(kinds)
    v, e = rng.choice(free if kind.startswith("add") else cells)
    row, column = h._v2he[v - 1], h._he2v[e - 1]
    if kind == "add to vertex index":
        row[e] = 1.0
    elif kind == "add to hyperedge index":
        column[v] = 1.0
    elif kind == "reweigh in vertex index":
        row[e] += 0.5
    elif kind == "reweigh in hyperedge index":
        column[v] += 0.5
    elif kind == "drop from vertex index":
        del row[e]
    else:
        del column[v]
    return kind


def test_one_pass_dual_consistency_matches_two_direction_reference():
    rng = random.Random(20261019)
    seen = set()
    for _ in range(400):
        h = random_hypergraph(rng, weighted=True)
        assert h.check_dual_consistency() is reference_check_dual_consistency(h) is True
        kind = _corrupt(h, rng)
        seen.add(kind)
        expected = kind == "none"
        assert h.check_dual_consistency() is reference_check_dual_consistency(h) is expected, kind
    assert len(seen - {"none"}) == 6


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dual_consistency_check_allocates_no_copy_of_an_index():
    rng = random.Random(20261020)
    n = 20_000
    h = Hypergraph(n, 0)
    for _ in range(5_000):
        h.add_hyperedge(rng.sample(range(1, n + 1), rng.randint(2, 12)))
    index = _traced_peak(lambda: [dict(row) for row in h._v2he])
    peak = _traced_peak(h.check_dual_consistency)
    assert h.check_dual_consistency()
    assert peak < index / 100, (peak, index)


def test_dual_consistency_after_every_operation():
    rng = random.Random(20240817)
    for _ in range(300):
        h = Hypergraph(rng.randint(0, 5), rng.randint(0, 5))
        for _ in range(rng.randint(1, 12)):
            _random_mutation(h, rng)
            assert h.check_dual_consistency()


def test_incidence_queries_do_not_scale_with_structure_size():
    # 1e5 x 1e5 with a handful of incidences: per-query cost must stay flat.
    big = Hypergraph(100_000, 100_000)
    big.set_weight(50_000, 50_000, 1.0)
    t0 = time.perf_counter()
    for _ in range(100_000):
        big.degree(50_000)
        big.get_weight(50_000, 50_000)
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0  # generous absolute bound; dense scans would take minutes


class DenseModel:
    """Reference for the mutation API: a dense n-by-k weight matrix plus metadata lists."""

    def __init__(self, n: int, k: int) -> None:
        self.cells: list[list[float | None]] = [[None] * k for _ in range(n)]
        self.k = k
        self.vmeta: list[object] = [None] * n
        self.hemeta: list[object] = [None] * k

    def add_vertex(self, memberships: dict[int, float], meta: object) -> int:
        row = [None] * self.k
        for e, w in memberships.items():
            row[e - 1] = w
        self.cells.append(row)
        self.vmeta.append(meta)
        return len(self.cells)

    def add_hyperedge(self, memberships: dict[int, float], meta: object) -> int:
        for v, row in enumerate(self.cells, start=1):
            row.append(memberships.get(v))
        self.k += 1
        self.hemeta.append(meta)
        return self.k

    def remove_vertex(self, v: int) -> dict[int, int]:
        n = len(self.cells)
        self.cells[v - 1], self.vmeta[v - 1] = self.cells[n - 1], self.vmeta[n - 1]
        self.cells.pop()
        self.vmeta.pop()
        return {n: v} if v != n else {}

    def remove_hyperedge(self, e: int) -> dict[int, int]:
        k = self.k
        for row in self.cells:
            row[e - 1] = row[k - 1]
            row.pop()
        self.hemeta[e - 1] = self.hemeta[k - 1]
        self.hemeta.pop()
        self.k -= 1
        return {k: e} if e != k else {}

    def set_weight(self, v: int, e: int, w: float | None) -> float | None:
        previous = self.cells[v - 1][e - 1]
        self.cells[v - 1][e - 1] = w
        return previous


def _assert_matches_model(h: Hypergraph, model: DenseModel) -> None:
    assert (h.nhv, h.nhe) == (len(model.cells), model.k)
    assert h.to_incidence() == model.cells
    assert h.incidence_count == sum(w is not None for row in model.cells for w in row)
    assert [h.get_vertex_meta(v) for v in h.vertices()] == model.vmeta
    assert [h.get_hyperedge_meta(e) for e in h.hyperedges()] == model.hemeta
    for v in h.vertices():
        row = model.cells[v - 1]
        assert h.get_hyperedges(v) == {e: w for e, w in enumerate(row, start=1) if w is not None}
    assert h.check_dual_consistency()


def test_seeded_mutation_stream_matches_dense_model():
    rng = random.Random(44)
    tokens = iter(range(1, 10**9))
    for _ in range(40):
        n, k = rng.randint(0, 4), rng.randint(0, 4)
        h, model = Hypergraph(n, k), DenseModel(n, k)
        for _ in range(rng.randint(20, 120)):
            op = rng.randrange(8)
            if op == 0:
                picks = rng.sample(range(1, h.nhe + 1), rng.randint(0, min(h.nhe, 3)))
                meta = f"v{next(tokens)}"
                if rng.random() < 0.5:
                    memberships = {e: rng.choice((1.0, 0.5, 3.25)) for e in picks}
                    assert h.add_vertex(memberships, meta=meta) == model.add_vertex(memberships, meta)
                else:
                    assert h.add_vertex(picks, meta=meta) == model.add_vertex(dict.fromkeys(picks, 1.0), meta)
            elif op == 1:
                picks = rng.sample(range(1, h.nhv + 1), rng.randint(0, min(h.nhv, 4)))
                meta = f"e{next(tokens)}"
                assert h.add_hyperedge(picks, meta=meta) == model.add_hyperedge(dict.fromkeys(picks, 1.0), meta)
            elif op == 2 and h.nhv:
                v = rng.randint(1, h.nhv)
                assert h.remove_vertex(v) == model.remove_vertex(v)
            elif op == 3 and h.nhe:
                e = rng.randint(1, h.nhe)
                assert h.remove_hyperedge(e) == model.remove_hyperedge(e)
            elif op in (4, 5) and h.nhv and h.nhe:
                v, e = rng.randint(1, h.nhv), rng.randint(1, h.nhe)
                w = None if op == 5 else rng.choice((1.0, 2.5, 0.125))
                assert h.set_weight(v, e, w) == model.set_weight(v, e, w)
            elif op == 6:
                # Bad ids are rejected and leave everything as it was.
                with pytest.raises(UnknownHyperedgeError):
                    h.add_vertex([h.nhe + 1])
                with pytest.raises(UnknownVertexError):
                    h.add_hyperedge({h.nhv + 1: 1.0})
                with pytest.raises(UnknownVertexError):
                    h.remove_vertex(0)
                with pytest.raises(UnknownHyperedgeError):
                    h.remove_hyperedge(True)
                if h.nhv:
                    with pytest.raises(UnknownHyperedgeError):
                        h.set_weight(h.nhv, h.nhe + 1, 1.0)
                # Bool, float and str member ids are not ids, even in range.
                for bad in (True, 1.0, "1", h.nhv + 0.5):
                    with pytest.raises(UnknownVertexError):
                        h.add_hyperedge([*range(1, h.nhv + 1), bad])
                    with pytest.raises(UnknownHyperedgeError):
                        h.add_vertex({bad: 1.0, **dict.fromkeys(range(1, h.nhe + 1), 2.0)})
            elif op == 7 and h.nhv and h.nhe:
                v, e = rng.randint(1, h.nhv), rng.randint(1, h.nhe)
                meta = f"{model.vmeta[v - 1]}'"
                h.set_vertex_meta(v, meta)
                model.vmeta[v - 1] = meta
                h.set_hyperedge_meta(e, None)
                model.hemeta[e - 1] = None
            _assert_matches_model(h, model)



# --- the one value check ------------------------------------------------------------

# An integer of more digits than Python spells with ``repr`` or ``str`` (4,300 by default).
HUGE = 10**5000


def _dumps(value: object) -> str:
    """``json.dumps(value)``, for a value holding ``HUGE`` or ``-HUGE`` too."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(value)
    finally:
        sys.set_int_max_str_digits(limit)


def _label(x: object) -> str:
    """``repr(x)``, with ``HUGE`` and ``-HUGE`` spelt by name."""
    if x in (HUGE, -HUGE):
        return "HUGE" if x > 0 else "-HUGE"
    return repr(x)


def _json_doc(weight: object = 1.0, **fields: object) -> str:
    """A 3-vertex, 2-hyperedge JSON document whose cell (3, 1) weighs ``weight``, with ``fields`` replaced."""
    h = Hypergraph(3, 2)
    h.add_hyperedge([1, 2])
    doc = json.loads(write_json(h))
    doc["v2he"][2]["1"] = doc["he2v"][0]["3"] = weight
    doc.update(fields)
    return _dumps(doc)


def _manifest(version: object) -> str:
    return _dumps({"manifest_version": version, "argv": ["stats", "--input", "g.hgf"], "inputs": [], "outputs": []})


def _document(name: str, make: Callable[[object], str], *argv: str) -> Callable[[object], list[str]]:
    """A CLI form: write ``make(x)`` to ``name`` and hand that file to ``argv``."""

    def prepare(x: object) -> list[str]:
        Path(name).write_text(make(x))
        return [*argv, name]

    return prepare


def _option(command: str, option: str) -> Callable[[object], list[str]]:
    """A CLI form: the value, spelt as JSON, as ``option`` of ``command`` on a one-vertex HGF input."""

    def prepare(x: object) -> list[str]:
        Path("g.hgf").write_text("1 1\n1=1.0\n")
        return [command, "--input", "g.hgf", option, _dumps(x)]

    return prepare


def _bad_integers(low: int | None, high: int | None) -> list[object]:
    """The bad values of an integer in ``low..high``: four of other types, the next integer past
    each closed end, and ``-HUGE`` and ``HUGE``.

    An open end stops at the integers Python spells, so ``HUGE`` of either sign is bad at either
    kind of end, and no error message may spell it with ``repr``.
    """
    return [
        True, 1.0, "1", None,
        *([] if low is None else [low - 1]), -HUGE,
        *([] if high is None else [high + 1]), HUGE,
    ]


# The bad values of a weight: two of other types, and the three floats that are not finite.
BAD_WEIGHTS = [True, "1", -math.inf, math.inf, math.nan]


def _exit_code(argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse's usage errors
        return exc.code


class TestOneValueCheck:
    """Every entry point that takes an integer or a weight as a Python value refuses one table of bad values.

    Each refusal raises the entry point's documented error and leaves the
    hypergraph as it was; where the value also reaches the CLI, the
    command ends in its documented exit code and writes nothing to stdout.
    """

    # Entry point -> (call handing the value x to it, given a fresh 3-vertex,
    # 2-hyperedge hypergraph h holding cell (1, 1), or None for the CLI alone;
    # the low and high ends of the range, None where open; the error; the CLI
    # form and its exit code, or None).
    INTEGERS = {
        "Hypergraph-n": (lambda h, x: Hypergraph(x, 0), 0, None, ValueError, None),
        "Hypergraph-k": (lambda h, x: Hypergraph(0, x), 0, None, ValueError, None),
        "add_hyperedge": (lambda h, x: h.add_hyperedge([1, x]), 1, 3, UnknownVertexError, None),
        "add_vertex": (lambda h, x: h.add_vertex({x: 1.0}), 1, 2, UnknownHyperedgeError, None),
        "remove_vertex": (lambda h, x: h.remove_vertex(x), 1, 3, UnknownVertexError, None),
        "remove_hyperedge": (lambda h, x: h.remove_hyperedge(x), 1, 2, UnknownHyperedgeError, None),
        "set_weight": (lambda h, x: h.set_weight(1, x, 2.0), 1, 2, UnknownHyperedgeError, None),
        "set_vertex_meta": (lambda h, x: h.set_vertex_meta(x, "m"), 1, 3, UnknownVertexError, None),
        "induced_subhypergraph": (lambda h, x: induced_subhypergraph(h, [1, x]), 1, 3, UnknownVertexError, None),
        "random_walk_step": (
            lambda h, x: random_walk_step(h, 1, random.Random(0), vselect=lambda *_: x), 1, 3, ValueError, None,
        ),
        "s_adjacency": (lambda h, x: s_adjacency(h, x), 1, None, InvalidSError, None),
        "LpConfig-max_iterations": (lambda h, x: LpConfig(max_iterations=x), 1, None, ValueError, None),
        "LpConfig-seed": (lambda h, x: LpConfig(seed=x), None, None, ValueError, None),
        "hgf-vertex-count": (
            lambda h, x: read_hgf(f"{_dumps(x)} 0\n"), 0, MAX_HGF_VERTICES, MalformedHeaderError,
            (_document("g.hgf", lambda x: f"{_dumps(x)} 0\n", "stats", "--input"), 3),
        ),
        "hgf-hyperedge-count": (
            lambda h, x: read_hgf(f"0 {_dumps(x)}\n"), 0, None, MalformedHeaderError,
            (_document("g.hgf", lambda x: f"0 {_dumps(x)}\n", "stats", "--input"), 3),
        ),
        "json-format_version": (
            lambda h, x: read_json(_json_doc(format_version=x)), 1, 1, SchemaViolationError,
            (_document("g.json", lambda x: _json_doc(format_version=x), "stats", "--input"), 3),
        ),
        "json-n": (
            lambda h, x: read_json(_json_doc(n=x)), 0, None, SchemaViolationError,
            (_document("g.json", lambda x: _json_doc(n=x), "stats", "--input"), 3),
        ),
        "json-k": (
            lambda h, x: read_json(_json_doc(k=x)), 0, None, SchemaViolationError,
            (_document("g.json", lambda x: _json_doc(k=x), "stats", "--input"), 3),
        ),
        "partition-member": (
            lambda h, x: Partition.from_json_text(_dumps({"1": [x]})), None, None, FormatError,
            (_document("p.json", lambda x: _dumps({"1": [x]}), "nmi", "p.json"), 3),
        ),
        "manifest_version": (None, 1, 1, None, (_document("m.manifest.json", _manifest, "rerun"), 3)),
        "--max-iter": (None, 1, None, None, (_option("communities", "--max-iter"), 2)),
        "--top-k": (None, 0, None, None, (_option("betweenness", "--top-k"), 2)),
    }
    # The same for weights, whose range is the finite floats.  A library call
    # raises NonNumericWeightError or NonFiniteWeightError (error None).
    WEIGHTS = {
        "set_weight": (lambda h, x: h.set_weight(1, 1, x), None, None),
        "add_vertex": (lambda h, x: h.add_vertex({1: x}), None, None),
        "add_hyperedge": (lambda h, x: h.add_hyperedge({1: x}), None, None),
        "from_incidence": (lambda h, x: Hypergraph.from_incidence([[x]]), None, None),
        "json-weight": (
            lambda h, x: read_json(_json_doc(weight=x)), SchemaViolationError,
            (_document("g.json", lambda x: _json_doc(weight=x), "stats", "--input"), 3),
        ),
    }
    CASES = [
        *(("int", name, x) for name, (_, low, high, _, _) in INTEGERS.items() for x in _bad_integers(low, high)),
        *(("weight", name, x) for name in WEIGHTS for x in BAD_WEIGHTS),
    ]

    @pytest.mark.parametrize("kind, name, x", CASES, ids=[f"{k}-{n}-{_label(x)}" for k, n, x in CASES])
    def test_bad_value_is_refused(self, kind, name, x, tmp_path, monkeypatch, capsys):
        if kind == "int":
            call, _, _, error, cli = self.INTEGERS[name]
        else:
            call, error, cli = self.WEIGHTS[name]
            error = error or (NonFiniteWeightError if isinstance(x, float) else NonNumericWeightError)
        h = Hypergraph(3, 2)
        h.set_weight(1, 1, 1.0)
        before = h.copy()
        if call is not None:
            with pytest.raises(error):
                call(h, x)
        assert h == before and h.check_dual_consistency()
        if cli is not None:
            prepare, code = cli
            monkeypatch.chdir(tmp_path)
            assert _exit_code(prepare(x)) == code
            assert capsys.readouterr().out == ""

    def test_an_integer_too_long_to_spell_is_given_by_its_digit_count(self):
        with pytest.raises(UnknownVertexError, match="got a positive integer of 5001 digits$"):
            Hypergraph(3, 0).get_hyperedges(HUGE)
        with pytest.raises(ValueError, match="got a negative integer of 5001 digits$"):
            LpConfig(max_iterations=-HUGE)
