"""Package kernels against their reference loops in ``helpers``.

The package kernels must reproduce the reference loops exactly: the
same partition and iteration count for every seed, the same iteration
order of every s-adjacency neighbour set, and ``==`` on every
betweenness float.
"""

from __future__ import annotations

import random

import pytest

from hgkit import (
    Hypergraph,
    LpConfig,
    MaterializedGraph,
    TwoSectionView,
    build_from_reviews,
    graph_label_propagation,
    hypergraph_label_propagation,
    materialize,
    s_adjacency,
    s_betweenness,
)
from hgkit.centrality import _brandes

from helpers import (
    hypergraph_from_edges,
    random_hypergraph,
    reference_brandes,
    reference_graph_label_propagation,
    reference_hypergraph_label_propagation,
    reference_s_adjacency,
)


def _random_cases(seed: int, count: int, max_n: int, max_k: int) -> list[Hypergraph]:
    rng = random.Random(seed)
    return [random_hypergraph(rng, max_n=max_n, max_k=max_k) for _ in range(count)]


def _tie_cases() -> list[Hypergraph]:
    """Symmetric structures where nearly every choice is an exact tie."""
    cases = []
    for n in (2, 3, 5, 8):
        cases.append(hypergraph_from_edges(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]))
    cases.append(hypergraph_from_edges(12, [(i, i % 12 + 1) for i in range(1, 13)]))
    cases.append(hypergraph_from_edges(10, [(2 * i - 1, 2 * i) for i in range(1, 6)]))
    cases.append(hypergraph_from_edges(9, [(1, 2, 3), (4, 5, 6), (7, 8, 9), (1, 4, 7), (2, 5, 8), (3, 6, 9)]))
    grid = [(r * 4 + c, r * 4 + c + 1) for r in range(4) for c in range(1, 4)]
    grid += [(r * 4 + c, r * 4 + c + 4) for r in range(3) for c in range(1, 5)]
    cases.append(hypergraph_from_edges(16, grid))
    return cases


def _edge_cases() -> list[Hypergraph]:
    """Empty hyperedges, isolated vertices and singleton hyperedges."""
    return [
        Hypergraph(0, 0),
        Hypergraph(0, 3),
        Hypergraph(4, 0),
        Hypergraph(3, 2),
        hypergraph_from_edges(5, [(1,), (2,), (3, 4), ()]),
        hypergraph_from_edges(6, [(), (1, 2, 3), (3,), (), (4, 5)]),
        hypergraph_from_edges(1, [(1,), (1,)]),
    ]


def _complete(vs: list[int]) -> list[tuple[int, int]]:
    return [(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :]]


# Hand-built graphs as (n, edges): stars, paths, cycles, complete and
# complete bipartite graphs, K2 components, isolated vertices, and
# degree-1 vertices hanging off denser cores.
STRUCTURAL = [
    (7, [(1, v) for v in range(2, 8)]),
    (6, [(v, 6) for v in range(1, 6)]),
    (2, [(1, 2)]),
    (6, [(v, v + 1) for v in range(1, 6)]),
    (5, [(v, v % 5 + 1) for v in range(1, 6)]),
    (6, [(v, v % 6 + 1) for v in range(1, 7)]),
    (4, _complete([1, 2, 3, 4])),
    (6, _complete([1, 2, 3, 4, 5, 6])),
    (5, [(u, v) for u in (1, 2) for v in (3, 4, 5)]),
    (6, [(u, v) for u in (1, 3, 5) for v in (2, 4, 6)]),
    (9, [(1, 2), (4, 5), (7, 8)]),
    (8, _complete([2, 3, 4, 5]) + [(1, 2), (5, 6), (5, 7)]),
    (9, [(v, v % 4 + 1) for v in range(1, 5)] + [(1, 5), (5, 6), (3, 7), (8, 4)]),
    (10, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7), (5, 8), (9, 10)]),
]
CASES = _edge_cases() + _tie_cases() + _random_cases(7, 60, 12, 10) + _random_cases(8, 15, 40, 30)
CONFIGS = [
    LpConfig(seed=0),
    LpConfig(seed=3, max_iterations=2),
    LpConfig(seed=11, shuffle_order=False),
    LpConfig(seed=5, max_iterations=1, shuffle_order=False),
]


def _weighted_graph(h: Hypergraph, seed: int) -> MaterializedGraph:
    """Two-section edges with weights whose sums depend on summation order."""
    rng = random.Random(seed)
    edges = [(u, v, rng.choice((0.1, 0.2, 0.3, 0.7, 1e-3))) for u, v, _ in materialize(TwoSectionView(h)).edges]
    return MaterializedGraph(n_nodes=h.nhv, edges=edges)


@pytest.mark.parametrize("cfg", CONFIGS, ids=repr)
def test_hypergraph_lp_matches_reference(cfg):
    for h in CASES:
        got = hypergraph_label_propagation(h, cfg)
        want = reference_hypergraph_label_propagation(h, cfg)
        assert got[1] == want[1]
        assert got[0].labels == want[0].labels
        assert list(got[0].labels) == list(want[0].labels)


@pytest.mark.parametrize("cfg", CONFIGS, ids=repr)
def test_graph_lp_matches_reference_on_views_and_materialized(cfg):
    for i, h in enumerate(CASES):
        for g in (TwoSectionView(h), materialize(TwoSectionView(h)), _weighted_graph(h, i)):
            got = graph_label_propagation(g, cfg)
            want = reference_graph_label_propagation(g, cfg)
            assert got[1] == want[1]
            assert got[0].labels == want[0].labels
            assert list(got[0].labels) == list(want[0].labels)


def test_graph_lp_sums_weights_in_adjacency_order():
    # Vertex 9 sees one label through weights 0.1, 0.2, 0.3 and another
    # through 0.6: summed in adjacency order the first wins outright
    # (0.6000000000000001), summed in any other order it ties.
    edges = [(1, 2, 10.0), (1, 3, 10.0), (1, 4, 10.0), (2, 9, 0.1), (3, 9, 0.2), (4, 9, 0.3), (8, 9, 0.6)]
    g = MaterializedGraph(n_nodes=9, edges=edges)
    for seed in range(20):
        for shuffle in (False, True):
            cfg = LpConfig(seed=seed, shuffle_order=shuffle)
            got = graph_label_propagation(g, cfg)
            want = reference_graph_label_propagation(g, cfg)
            assert (got[0].labels, got[1]) == (want[0].labels, want[1])


def test_graph_lp_still_rejects_non_graphs():
    with pytest.raises(TypeError):
        graph_label_propagation(Hypergraph(2, 0))


@pytest.mark.parametrize("s", [1, 2, 3])
def test_brandes_matches_reference_bit_for_bit(s):
    # Each structural edge is repeated s times, so the graph survives at threshold s.
    structural = []
    for n, edges in STRUCTURAL:
        h = hypergraph_from_edges(n, [e for e in edges for _ in range(s)])
        assert s_adjacency(h, s).edges() == sorted(tuple(sorted(e)) for e in edges)
        structural.append(h)
    for h in CASES + structural:
        nbrs = s_adjacency(h, s)._nbrs
        want = reference_brandes(nbrs)
        got = _brandes(nbrs)
        assert list(got) == list(want)
        assert all(got[v] == want[v] for v in want)
        assert s_betweenness(h, s).scores == want


def test_brandes_on_dense_overlaps_with_many_geodesics():
    rng = random.Random(2024)
    for _ in range(5):
        h = Hypergraph(60, 0)
        for _ in range(90):
            h.add_hyperedge(rng.sample(range(1, 61), rng.randint(2, 6)))
        for s in (1, 2, 3):
            nbrs = s_adjacency(h, s)._nbrs
            assert _brandes(nbrs) == reference_brandes(nbrs)


def _overlap_cases(seed: int, count: int) -> list[Hypergraph]:
    """Repeated hyperedges, so pairs reach s=2 and s=3, with members added unsorted.

    Also empty and singleton hyperedges, isolated vertices, and a few
    large hyperedges whose neighbour sets grow past several table resizes.
    """
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        large = i % 10 == 0
        n = rng.randint(60, 120) if large else rng.randint(1, 40)
        h = Hypergraph(n, 0)
        for _ in range(rng.randint(0, 30 if large else 60)):
            members = rng.sample(range(1, n + 1), rng.randint(0, min(n, 30 if large else 6)))
            for _ in range(rng.choice((1, 1, 2, 3))):
                h.add_hyperedge(members)
        cases.append(h)
    return cases


@pytest.mark.parametrize("s", [1, 2, 3])
def test_s_adjacency_matches_reference_in_iteration_order(s):
    for h in CASES + _overlap_cases(9, 80):
        got = s_adjacency(h, s)
        want = reference_s_adjacency(h, s)
        assert (got.s, got.n) == (want.s, want.n)
        assert [list(x) for x in got._nbrs] == [list(x) for x in want._nbrs]
        assert _brandes(got._nbrs) == _brandes(want._nbrs)


def _review_shaped_case(seed: int) -> Hypergraph:
    """About 3k uniform reviews: items are vertices, users hyperedges.

    Many items are reviewed once (degree 1), a tail of users wrote a
    single review (single-member hyperedges), and a few heavy users have
    rows long and varied enough to count with one ``Counter`` pass.
    """
    rng = random.Random(seed)
    reviews = [(f"u{rng.randrange(300)}", f"b{rng.randrange(1500)}", 3) for _ in range(3000)]
    reviews += [(f"solo{i}", f"b{rng.randrange(1500)}", 3) for i in range(80)]
    reviews += [(f"heavy{i}", f"b{rng.randrange(1500)}", 3) for i in range(3) for _ in range(60)]
    rng.shuffle(reviews)
    h, _, _ = build_from_reviews(reviews)
    return h


@pytest.mark.parametrize("max_iterations", [20, 100])
def test_hypergraph_lp_matches_reference_at_review_scale(max_iterations):
    h = _review_shaped_case(31)
    degrees = [len(row) for row in h._v2he]
    sizes = [len(row) for row in h._he2v]
    assert degrees.count(1) > 100 and sizes.count(1) >= 80 and max(sizes) >= 50
    for seed in (0, 1):
        cfg = LpConfig(seed=seed, max_iterations=max_iterations)
        got = hypergraph_label_propagation(h, cfg)
        want = reference_hypergraph_label_propagation(h, cfg)
        assert got[1] == want[1]
        assert got[0].labels == want[0].labels
        assert list(got[0].labels) == list(want[0].labels)
