"""Package kernels against their reference loops in ``helpers``.

The package kernels must reproduce the reference loops exactly: the
same partition and iteration count for every seed, the same iteration
order of every s-adjacency row, and ``==`` on every
betweenness float.
"""

from __future__ import annotations

import math
import random

import pytest

from hgkit import (
    BipartiteView,
    CoMemberTable,
    Graph,
    Hypergraph,
    LpConfig,
    Partition,
    TwoSectionView,
    build_from_reviews,
    forecast_graph,
    forecast_hypergraph,
    graph_degree_centrality,
    graph_label_propagation,
    graph_modularity,
    hypergraph_label_propagation,
    s_adjacency,
    s_betweenness,
    s_shortest_path_length,
)
from hgkit.centrality import _DENSE_RECIPROCAL, _brandes, _dense_masks
from hgkit.errors import DomainMismatchError, EmptyGraphError, UnknownNodeError
from hgkit.views import graph_rows

from helpers import (
    EdgeListGraph,
    RowsGraph,
    hypergraph_from_edges,
    random_hypergraph,
    random_partition,
    reference_brandes,
    reference_forecast_graph,
    reference_forecast_hypergraph,
    reference_graph_label_propagation,
    reference_graph_modularity,
    reference_hypergraph_label_propagation,
    reference_materialize,
    reference_s_adjacency,
    reference_two_section_neighbors,
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
]


def _weighted_graph(h: Hypergraph, seed: int) -> EdgeListGraph:
    """Two-section edges with weights whose sums depend on summation order."""
    rng = random.Random(seed)
    edges = [(u, v, rng.choice((0.1, 0.2, 0.3, 0.7, 1e-3))) for u, v, _ in reference_materialize(TwoSectionView(h)).edges]
    return EdgeListGraph(n_nodes=h.nhv, edges=edges)


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
        view, weighted = TwoSectionView(h), _weighted_graph(h, i)
        for reference_input, g in ((view, view), (view, CoMemberTable.of(h)), (weighted, weighted)):
            got = graph_label_propagation(g, cfg)
            want = reference_graph_label_propagation(reference_input, cfg)
            assert got[1] == want[1]
            assert got[0].labels == want[0].labels
            assert list(got[0].labels) == list(want[0].labels)


def test_graph_lp_sums_weights_in_adjacency_order():
    # Vertex 9 sees one label through weights 0.1, 0.2, 0.3 and another
    # through 0.6: summed in adjacency order the first wins outright
    # (0.6000000000000001), summed in any other order it ties.
    edges = [(1, 2, 10.0), (1, 3, 10.0), (1, 4, 10.0), (2, 9, 0.1), (3, 9, 0.2), (4, 9, 0.3), (8, 9, 0.6)]
    g = EdgeListGraph(n_nodes=9, edges=edges)
    for seed in range(20):
        cfg = LpConfig(seed=seed)
        got = graph_label_propagation(g, cfg)
        want = reference_graph_label_propagation(g, cfg)
        assert (got[0].labels, got[1]) == (want[0].labels, want[1])


def _frozen_rows(g: Graph) -> RowsGraph:
    """The rows of ``g``, each read once and served as it is."""
    return RowsGraph(list(map(g.neighbors, range(1, g.n_nodes + 1))))


def test_graph_lp_on_cached_rows_matches_reference_on_the_graph():
    for i, h in enumerate(CASES):
        weighted = _weighted_graph(h, i)
        for g, cached in (
            (TwoSectionView(h), CoMemberTable.of(h)),
            (weighted, _frozen_rows(weighted)),
            (_unsorted_rows(weighted, i), _frozen_rows(_unsorted_rows(weighted, i))),
        ):
            for cfg in CONFIGS:
                got = graph_label_propagation(cached, cfg)
                want = reference_graph_label_propagation(g, cfg)
                assert (got[0].labels, got[1]) == (want[0].labels, want[1])
                assert list(got[0].labels) == list(want[0].labels)


def test_graph_lp_still_rejects_non_graphs():
    with pytest.raises(TypeError):
        graph_label_propagation(Hypergraph(2, 0))


NON_GRAPHS = {
    "object": object(),
    "dict": {1: {2: 1.0}, 2: {1: 1.0}},
    "Hypergraph": hypergraph_from_edges(2, [(1, 2)]),
}
GRAPH_KERNELS = {
    "graph_label_propagation": graph_label_propagation,
    "graph_modularity": lambda g: graph_modularity(g, Partition({1: 1, 2: 1})),
    "graph_degree_centrality": graph_degree_centrality,
    "forecast_graph": lambda g: forecast_graph(g, {1: 1.0, 2: 2.0}),
    "graph_rows": lambda g: [(list(ids), list(weights)) for ids, weights in graph_rows(g)],
    "s_shortest_path_length": lambda g: s_shortest_path_length(g, 1, 2),
}


@pytest.mark.parametrize("kernel, given", [(kernel, given) for kernel in GRAPH_KERNELS for given in NON_GRAPHS])
def test_graph_kernels_reject_non_graphs(kernel, given):
    with pytest.raises(TypeError):
        GRAPH_KERNELS[kernel](NON_GRAPHS[given])


def rows_attribute_graph(rows: list[dict[int, float]]) -> RowsGraph:
    g = RowsGraph(rows)
    g.rows = rows
    return g


def instance_trusted_rows_graph(rows: list[dict[int, float]]) -> RowsGraph:
    g = RowsGraph(rows)
    g._trusted_rows = lambda: ((row, row.values()) for row in rows)
    return g


# A caller's graph, as it is or with a public ``rows`` data attribute or an
# instance ``_trusted_rows``: neither makes it one of hgkit's own, whose
# rows the kernels trust through a method looked up on the class.  Keys
# are test id suffixes; the plain graph's is empty, so its ids stay put.
CALLER_GRAPHS = {
    "": RowsGraph,
    "-rows-attribute": rows_attribute_graph,
    "-instance-trusted-rows": instance_trusted_rows_graph,
}


@pytest.mark.parametrize(
    "kernel, bad, graph",
    [
        pytest.param(kernel, bad, graph, id=f"{kernel}-{bad}{graph}")
        for kernel in GRAPH_KERNELS
        for bad in (0, -1, 3, 1.5, "2", True)
        for graph in CALLER_GRAPHS
    ],
)
def test_graph_kernels_refuse_a_row_naming_an_unknown_node(kernel, bad, graph):
    # Node 1's row names something other than an int in 1..2, which no
    # kernel may read as another node's label, rating or strength.
    with pytest.raises(UnknownNodeError):
        GRAPH_KERNELS[kernel](CALLER_GRAPHS[graph]([{2: 1.0, bad: 1.0}, {1: 1.0}]))


@pytest.mark.parametrize("kernel", GRAPH_KERNELS)
def test_graph_kernels_run_on_s_adjacency(kernel):
    # The one edge is three hyperedges, so it holds at every s up to 3.
    h = hypergraph_from_edges(2, [(1, 2)] * 3)
    run = GRAPH_KERNELS[kernel]
    want = run(EdgeListGraph(n_nodes=2, edges=[(1, 2, 1.0)]))
    for s in (1, 2, 3):
        assert run(s_adjacency(h, s)) == want


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
        assert s_betweenness(h, s) == want


def test_brandes_on_dense_overlaps_with_many_geodesics():
    rng = random.Random(2024)
    for _ in range(5):
        h = Hypergraph(60, 0)
        for _ in range(90):
            h.add_hyperedge(rng.sample(range(1, 61), rng.randint(2, 6)))
        for s in (1, 2, 3):
            nbrs = s_adjacency(h, s)._nbrs
            assert _brandes(nbrs) == reference_brandes(nbrs)


# --- Brandes' two forward passes ------------------------------------------------
#
# _brandes runs a bitset forward pass on dense components and the plain
# queue loop on sparse ones.  Each family below pins one side of that
# choice, and both must match the reference bit for bit.


def _assert_brandes_matches_reference(nbrs: list[set[int]]) -> None:
    want = reference_brandes(nbrs)
    got = _brandes(nbrs)
    assert list(got) == list(want)
    assert all(got[v] == want[v] for v in want)


def _dense_vertices(nbrs: list[tuple[int, ...]]) -> set[int]:
    bit, _, _ = _dense_masks([(), *nbrs])
    return {v for v in range(1, len(nbrs) + 1) if bit[v]}


def _sigma_levels(nbrs: list[set[int]], src: int) -> list[set[int]]:
    """The distinct shortest-path counts at each BFS level from src."""
    sigma = {src: 1}
    levels = [[src]]
    while True:
        nxt: dict[int, int] = {}
        for x in levels[-1]:
            for y in nbrs[x - 1]:
                if y not in sigma:
                    nxt[y] = nxt.get(y, 0) + sigma[x]
        if not nxt:
            return [{sigma[v] for v in level} for level in levels]
        sigma.update(nxt)
        levels.append(list(nxt))


def _graph(n: int, edges: list[tuple[int, int]], rng: random.Random, s: int = 1) -> list[tuple[int, ...]]:
    """The s-adjacency of the edges under shuffled vertex ids, each edge repeated s times."""
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    h = hypergraph_from_edges(n, [(ids[u - 1], ids[v - 1]) for u, v in edges for _ in range(s)])
    return s_adjacency(h, s)._nbrs


def _connected_edges(rng: random.Random, vs: list[int], m: int) -> list[tuple[int, int]]:
    """A random spanning tree of vs plus random further edges, m in all."""
    edges = {tuple(sorted((v, rng.choice(vs[:i])))) for i, v in enumerate(vs) if i}
    pairs = [p for p in _complete(sorted(vs)) if p not in edges]
    return sorted(edges) + rng.sample(pairs, m - len(edges))


def _bridged_near_cliques(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """Five blocks, each missing a fifth of its pairs, chained by one edge each."""
    edges, blocks, n = [], [], 0
    for _ in range(5):
        size = rng.randint(6, 8)
        block = list(range(n + 1, n + size + 1))
        n += size
        path = list(zip(block, block[1:]))
        edges += path + [p for p in _complete(block) if p not in path and rng.random() < 0.8]
        if blocks:
            edges.append((rng.choice(blocks[-1]), rng.choice(block)))
        blocks.append(block)
    return n, edges


@pytest.mark.parametrize("s", [1, 2])
def test_brandes_dense_pass_on_bridged_near_cliques(s):
    rng = random.Random(15)
    for _ in range(12):
        n, edges = _bridged_near_cliques(rng)
        nbrs = _graph(n, edges, rng, s)
        assert _dense_vertices(nbrs) == set(range(1, n + 1))
        levels = [_sigma_levels(nbrs, v) for v in range(1, n + 1)]
        assert max(map(len, levels)) >= 4
        # A frontier with several distinct counts, feeding a further level.
        assert any(len(sigmas) >= 3 for lv in levels for sigmas in lv[1:-1])
        _assert_brandes_matches_reference(nbrs)


def test_brandes_chooses_the_pass_at_the_density_constant():
    rng = random.Random(16)
    for c in (25, 30, 41):
        at = -(-c * (c - 1) // (2 * _DENSE_RECIPROCAL))
        assert 2 * at * _DENSE_RECIPROCAL >= c * (c - 1) > 2 * (at - 1) * _DENSE_RECIPROCAL
        for _ in range(3):
            dense = _connected_edges(rng, list(range(1, c + 1)), at)
            sparse = _connected_edges(rng, list(range(c + 1, 2 * c + 1)), at - 1)
            for edges, want in ((dense, c), (sparse, 0), (dense + sparse, c)):
                nbrs = _graph(2 * c, edges, rng)
                assert len(_dense_vertices(nbrs)) == want
                _assert_brandes_matches_reference(nbrs)


def test_brandes_on_two_and_three_vertex_components():
    rng = random.Random(17)
    for _ in range(10):
        edges, n = [], 0
        for _ in range(rng.randint(1, 12)):
            size = rng.choice((2, 3, 3))
            block = list(range(n + 1, n + size + 1))
            n += size
            edges += _connected_edges(rng, block, rng.randint(size - 1, size * (size - 1) // 2))
        nbrs = _graph(n + 2, edges, rng)
        assert len(_dense_vertices(nbrs)) == n
        _assert_brandes_matches_reference(nbrs)


def test_brandes_on_a_sparse_giant_component_beside_dense_ones():
    rng = random.Random(18)
    for _ in range(3):
        giant = _connected_edges(rng, list(range(1, 301)), 330)
        cliques = _complete([301, 302, 303, 304, 305]) + _complete([306, 307, 308])
        nbrs = _graph(310, giant + cliques, rng)
        assert len(_dense_vertices(nbrs)) == 8
        _assert_brandes_matches_reference(nbrs)


def _scene_shaped_case(seed: int) -> Hypergraph:
    """Scenes drawn from groups of 12 characters, a fifth with one guest."""
    rng = random.Random(seed)
    h = Hypergraph(120, 0)
    for _ in range(200):
        g = rng.randrange(10)
        members = [g * 12 + j for j in rng.sample(range(1, 13), rng.randint(3, 8))]
        if rng.random() < 0.2:
            other = rng.choice([x for x in range(10) if x != g])
            members.append(other * 12 + rng.randint(1, 12))
        h.add_hyperedge(members)
    return h


def test_brandes_on_scene_shaped_hypergraphs_at_s2():
    for seed in range(4):
        nbrs = s_adjacency(_scene_shaped_case(seed), 2)._nbrs
        assert len(_dense_vertices(nbrs)) >= 100
        _assert_brandes_matches_reference(nbrs)


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
        assert (got.s, got.n_nodes) == (want.s, want.n_nodes)
        assert [list(x) for x in got._nbrs] == [list(x) for x in want._nbrs]
        assert _brandes(got._nbrs) == _brandes(want._nbrs)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_s_adjacency_rows_are_the_tuples_brandes_reads(s):
    empty = ()
    for h in CASES + _overlap_cases(10, 80):
        want = reference_s_adjacency(h, s)._nbrs
        for got in (s_adjacency(h, s)._nbrs, s_adjacency(h, s, CoMemberTable.of(h))._nbrs):
            assert all(type(row) is tuple for row in got)
            # Every vertex without s-neighbours shares the one empty tuple.
            assert all(row is empty for row in got if not row)
            # The reference's sets iterate in the rows' order, and score the same.
            assert [list(x) for x in want] == [list(row) for row in got]
            assert _brandes(got) == _brandes(want)


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


def _cached_tie_case(seed: int) -> Hypergraph:
    """Six planted clusters joined by small random bridge hyperedges.

    Each cluster of ten is covered by two overlapping core hyperedges,
    which settle on one label and keep it; the bridges join members of
    different clusters, tie between their labels and keep relabelling.
    A vertex in one core hyperedge and one bridge then ties or not
    depending on the bridge's latest label, so a vertex whose tie list
    is reused after its bridge relabelled draws from the wrong list.
    """
    rng = random.Random(seed)
    clusters, size = 6, 10
    edges = []
    for c in range(clusters):
        vs = list(range(c * size + 1, c * size + size + 1))
        rng.shuffle(vs)
        edges += [tuple(sorted(vs[:6])), tuple(sorted(vs[4:]))]
    for _ in range(30):
        a, b = rng.sample(range(clusters), 2)
        bridge = {rng.randint(a * size + 1, a * size + size), rng.randint(b * size + 1, b * size + size)}
        if rng.random() < 0.3:
            bridge.add(rng.randint(1, clusters * size))
        edges.append(tuple(sorted(bridge)))
    rng.shuffle(edges)
    return hypergraph_from_edges(clusters * size, edges)


@pytest.mark.parametrize("max_iterations", [20, 100])
def test_hypergraph_lp_recounts_every_member_of_a_relabelled_hyperedge(max_iterations):
    sweeps = []
    for case in range(3):
        h = _cached_tie_case(case)
        assert all(len(row) >= 1 for row in h._v2he) and max(len(row) for row in h._v2he) >= 3
        for seed in range(5):
            cfg = LpConfig(seed=seed, max_iterations=max_iterations)
            got = hypergraph_label_propagation(h, cfg)
            want = reference_hypergraph_label_propagation(h, cfg)
            assert got[1] == want[1]
            assert got[0].labels == want[0].labels
            sweeps.append(want[1])
    # Some runs still relabel in their last sweep, so the comparison
    # covers late sweeps as well as the first, where every vertex is stale.
    assert max_iterations in sweeps


# --- two-section rows, forecasts and modularity -----------------------------------------


def _mutated_cases(seed: int, count: int) -> list[Hypergraph]:
    """Random hypergraphs edited by ``remove_*`` and ``add_*``.

    Removing an id moves the last one into its slot, which appends the
    moved hyperedge to its members' rows, so rows leave ascending id
    order; added vertices and hyperedges land in arbitrary rows.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        h = random_hypergraph(rng, max_n=14, max_k=12)
        for _ in range(rng.randint(1, 8)):
            op = rng.randrange(4)
            if op == 0 and h.nhe:
                h.remove_hyperedge(rng.randint(1, h.nhe))
            elif op == 1 and h.nhv:
                h.remove_vertex(rng.randint(1, h.nhv))
            elif op == 2 and h.nhv:
                h.add_hyperedge(rng.sample(range(1, h.nhv + 1), rng.randint(0, min(h.nhv, 6))))
            elif op == 3 and h.nhe:
                h.add_vertex(rng.sample(range(1, h.nhe + 1), rng.randint(0, min(h.nhe, 4))))
        out.append(h)
    return out


GRAPH_CASES = CASES + _mutated_cases(12, 80)


def test_mutated_cases_have_rows_out_of_id_order():
    rows = [list(row) for h in GRAPH_CASES for row in h._v2he + h._he2v]
    assert sum(row != sorted(row) for row in rows) > 50


def test_two_section_neighbors_match_reference_in_value_and_order():
    for h in GRAPH_CASES:
        view = TwoSectionView(h)
        for v in h.vertices():
            got = view.neighbors(v)
            want = reference_two_section_neighbors(view, v)
            assert type(got) is dict
            assert got == want and list(got) == list(want)


def _outcome(f, *args):
    """A kernel's result as (vertex, repr) pairs in order, or the type of what it raised."""
    try:
        result = f(*args)
    except (OverflowError, ValueError) as exc:
        return type(exc)
    return [(v, repr(p)) for v, p in result.items()]


def _rating_tables(h: Hypergraph, rng: random.Random) -> list[dict[int, float]]:
    vs = list(h.vertices())
    return [
        {v: rng.uniform(1.0, 5.0) for v in vs},
        {v: rng.randint(1, 5) for v in vs},
        {v: rng.choice((1e-300, 3e-300, -2e-300)) for v in vs},
        {v: rng.choice((1e308, -1e308, 9e307, -9e307, 1.0)) for v in vs},
    ]


def test_forecasts_match_reference_bit_for_bit():
    rng = random.Random(41)
    outcomes = set()
    for h in GRAPH_CASES:
        view = TwoSectionView(h)
        for ratings in _rating_tables(h, rng):
            want = _outcome(reference_forecast_hypergraph, h, ratings)
            assert _outcome(forecast_hypergraph, h, ratings) == want
            outcomes.add(want if isinstance(want, type) else list)
            want = _outcome(reference_forecast_graph, h, ratings)
            assert _outcome(forecast_graph, view, ratings) == want
            outcomes.add(want if isinstance(want, type) else list)
    # Between them the cases reach finite results, overflow and inf - inf.
    assert outcomes == {list, OverflowError, ValueError}


# Signed zeros, the smallest subnormal and normal, the float extremes, both
# infinities and nan, beside ordinary ratings.
SPECIAL_RATINGS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, math.inf, -math.inf, math.nan)


def test_hypergraph_forecast_matches_reference_on_special_values():
    # Every leave-one-out sum must keep the reference's bits, errors included.
    rng = random.Random(4243)
    outcomes = set()
    for _ in range(1500):
        n = rng.randint(2, 9)
        h = hypergraph_from_edges(n, [tuple(rng.sample(range(1, n + 1), rng.randint(2, n))) for _ in range(rng.randint(1, 3))])
        ratings = {v: rng.choice(SPECIAL_RATINGS) if rng.random() < 0.4 else rng.uniform(-5.0, 5.0) for v in h.vertices()}
        want = _outcome(reference_forecast_hypergraph, h, ratings)
        assert _outcome(forecast_hypergraph, h, ratings) == want, ratings
        outcomes.add(want if isinstance(want, type) else "nan" if "nan" in str(want) else list)
    assert outcomes == {list, "nan", OverflowError, ValueError}


def test_hypergraph_forecast_of_a_3000_member_hyperedge_matches_reference():
    rng = random.Random(4244)
    m = 3_000
    h = hypergraph_from_edges(m, [tuple(rng.sample(range(1, m + 1), m)), (1, 2), (3, 4, 5)])
    ratings = {v: rng.uniform(1.0, 5.0) for v in h.vertices()}
    got = forecast_hypergraph(h, ratings)
    sample = [1, 2, 3, 4, 5, *rng.sample(range(6, m + 1), 60)]
    want = reference_forecast_hypergraph(h, ratings, sample)
    assert [(v, repr(got[v])) for v in sample] == [(v, repr(want[v])) for v in sample]


def test_hypergraph_forecast_keeps_member_and_row_order():
    # Vertex 2's leave-one-out ratings are 1e308, 1e308, -1e308 in member
    # order: that order overflows, and so does no rotation of it.
    h = hypergraph_from_edges(4, [(1, 2, 3, 4)])
    ratings = {1: 1e308, 2: -1e308, 3: 1e308, 4: -1e308}
    assert _outcome(reference_forecast_hypergraph, h, ratings) is OverflowError
    assert _outcome(forecast_hypergraph, h, ratings) is OverflowError
    # Vertex 1's hyperedges give means 1e308, 1e308 and -1e308 in row
    # order but 1e308, -1e308 and 1e308 in id order: only the row order
    # overflows.
    h = hypergraph_from_edges(5, [(1, 2), (1, 5), (1, 3), (1, 4)])
    h.remove_hyperedge(2)
    assert list(h._v2he[0]) == [1, 3, 2]
    ratings = {1: 0.0, 2: 1e308, 3: 1e308, 4: -1e308, 5: 0.0}
    assert _outcome(reference_forecast_hypergraph, h, ratings) is OverflowError
    assert _outcome(forecast_hypergraph, h, ratings) is OverflowError
    ratings[3] = -1e308
    ratings[4] = 1e308
    want = _outcome(reference_forecast_hypergraph, h, ratings)
    assert want is not OverflowError
    assert _outcome(forecast_hypergraph, h, ratings) == want


def _unsorted_rows(g: EdgeListGraph, seed: int) -> EdgeListGraph:
    """The same edges, grouped by lower endpoint, each group shuffled.

    Each node's higher neighbours then reach its row out of id order,
    in the order the edge list gives them.
    """
    rng = random.Random(seed)
    groups: dict[int, list[tuple[int, int, float]]] = {}
    for edge in g.edges:
        groups.setdefault(edge[0], []).append(edge)
    edges = []
    for u in sorted(groups):
        rng.shuffle(groups[u])
        edges += groups[u]
    return EdgeListGraph(n_nodes=g.n_nodes, edges=edges)


def test_graph_modularity_matches_reference_bit_for_bit():
    rng = random.Random(43)
    for i, h in enumerate(GRAPH_CASES):
        view = TwoSectionView(h)
        weighted = _weighted_graph(h, i)
        unsorted = _unsorted_rows(weighted, i)
        graphs = [
            (view, view),
            (view, CoMemberTable.of(h)),
            (weighted, weighted),
            (unsorted, unsorted),
            (unsorted, _frozen_rows(unsorted)),
        ]
        for _ in range(3):
            p = random_partition(rng, h.vertices())
            for reference_input, g in graphs:
                try:
                    want = reference_graph_modularity(reference_input, p)
                except EmptyGraphError:
                    with pytest.raises(EmptyGraphError):
                        graph_modularity(g, p)
                    continue
                assert graph_modularity(g, p) == want


def test_graph_kernels_on_bipartite_views_match_reference():
    # The incidence graph is a unit-weight graph: every graph kernel
    # runs on it as on any other, and on its rows frozen apart from it.
    rng = random.Random(47)
    for h in GRAPH_CASES:
        view = BipartiteView(h)
        frozen = reference_materialize(view)
        for g in (view, _frozen_rows(view)):
            for cfg in CONFIGS:
                got = graph_label_propagation(g, cfg)
                want = reference_graph_label_propagation(frozen, cfg)
                assert (got[0].labels, got[1]) == (want[0].labels, want[1])
            degrees = graph_degree_centrality(g)
            assert degrees == {v: float(len(row)) for v, row in frozen.adjacency().items()}
            for _ in range(2):
                p = random_partition(rng, range(1, view.n_nodes + 1))
                try:
                    want = reference_graph_modularity(frozen, p)
                except EmptyGraphError:
                    with pytest.raises(EmptyGraphError):
                        graph_modularity(g, p)
                    continue
                assert graph_modularity(g, p) == want
            ratings = {v: rng.uniform(1.0, 5.0) for v in range(1, view.n_nodes + 1)}
            want = _outcome(reference_forecast_graph, view, ratings)
            assert _outcome(forecast_graph, g, ratings) == want


@pytest.mark.parametrize("s", [1, 2, 3])
def test_graph_kernels_on_s_adjacency_match_reference(s):
    # The s-adjacency graph is a unit-weight graph: every graph kernel
    # reads it as it reads the same edges listed with weight 1.0.
    rng = random.Random(53 + s)
    for h in GRAPH_CASES[::3]:
        adj = s_adjacency(h, s)
        frozen = EdgeListGraph(n_nodes=h.nhv, edges=[(u, v, 1.0) for u, v in adj.edges()])
        assert graph_degree_centrality(adj) == {v: float(len(adj._nbrs[v - 1])) for v in h.vertices()}
        for cfg in CONFIGS:
            got = graph_label_propagation(adj, cfg)
            want = reference_graph_label_propagation(frozen, cfg)
            assert (got[0].labels, got[1]) == (want[0].labels, want[1])
        p = random_partition(rng, h.vertices())
        try:
            want = reference_graph_modularity(frozen, p)
        except EmptyGraphError:
            with pytest.raises(EmptyGraphError):
                graph_modularity(adj, p)
        else:
            assert graph_modularity(adj, p) == want
        ratings = {v: rng.uniform(1.0, 5.0) for v in h.vertices()}
        assert _outcome(forecast_graph, adj, ratings) == _outcome(reference_forecast_graph, frozen, ratings)


def test_graph_rows_pair_each_row_with_its_weights_in_node_and_row_order():
    for i, h in enumerate(GRAPH_CASES):
        table = CoMemberTable.of(h)
        for g in (TwoSectionView(h), BipartiteView(h), _unsorted_rows(_weighted_graph(h, i), i), table):
            rows = list(graph_rows(g))
            assert len(rows) == g.n_nodes
            for v, (ids, weights) in enumerate(rows, start=1):
                assert list(zip(ids, weights)) == list(g.neighbors(v).items())
    with pytest.raises(TypeError):
        graph_rows(Hypergraph(2, 0))


# --- the packed co-member table ---------------------------------------------------------


def test_co_member_tables_pack_the_two_section_graph():
    for h in GRAPH_CASES:
        table = CoMemberTable.of(h)
        view = TwoSectionView(h)
        assert table.n_nodes == h.nhv and len(table.ids) == len(table.counts) == table.ends[-1]
        for v, (ids, counts) in zip(h.vertices(), table.rows()):
            # The rows of the walk: first shared hyperedge, then co-member id.
            edges = sorted(h._v2he[v - 1])
            want = list(dict.fromkeys(u for e in edges for u in sorted(h._he2v[e - 1]) if u != v))
            assert list(ids) == want
            assert dict(zip(ids, counts)) == view.neighbors(v) == table.neighbors(v)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_table_filtered_s_adjacency_matches_the_walk_in_iteration_order(s):
    for h in GRAPH_CASES + _overlap_cases(9, 80):
        got = s_adjacency(h, s, CoMemberTable.of(h))
        want = s_adjacency(h, s)
        assert [list(x) for x in got._nbrs] == [list(x) for x in want._nbrs]
        assert [list(x) for x in want._nbrs] == [list(x) for x in reference_s_adjacency(h, s)._nbrs]
        assert s_betweenness(h, s, CoMemberTable.of(h)) == s_betweenness(h, s)


def test_a_table_of_another_hypergraph_is_refused():
    with pytest.raises(DomainMismatchError):
        s_adjacency(Hypergraph(3, 0), 1, CoMemberTable.of(Hypergraph(4, 0)))


def test_forecast_from_the_table_matches_reference_bit_for_bit():
    # Rating tables whose sums cannot overflow: fsum then rounds the exact
    # sum, whatever the order the table walks each row in.
    rng = random.Random(59)
    for h in GRAPH_CASES:
        table = CoMemberTable.of(h)
        for ratings in _rating_tables(h, rng)[:3]:
            want = _outcome(reference_forecast_graph, h, ratings)
            assert _outcome(forecast_graph, table, ratings) == want


def test_graph_forecast_gives_none_where_the_weights_sum_to_zero():
    # Vertex 1's weights cancel, as an empty row's sum is 0: neither divides.
    g = RowsGraph([{2: 1.0, 3: -1.0}, {1: 1.0}, {1: -1.0}, {}])
    ratings = {1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0}
    want = {1: None, 2: 1.0, 3: 1.0, 4: None}
    assert forecast_graph(g, ratings) == reference_forecast_graph(g, ratings) == want


def _permuted_rows(g: Graph, rng: random.Random) -> RowsGraph:
    """The same rows, each in a shuffled order."""
    rows = []
    for v in range(1, g.n_nodes + 1):
        items = list(g.neighbors(v).items())
        rng.shuffle(items)
        rows.append(dict(items))
    return RowsGraph(rows)


def test_graph_lp_and_modularity_ignore_row_order_under_integer_weights():
    # Each label's weight is a float sum of small integers, which is exact
    # in any order, and tied labels are sorted: so the bare co-member
    # table's slices serve every graph kernel as the view's rows do.
    rng = random.Random(61)
    for i, h in enumerate(GRAPH_CASES):
        view, table = TwoSectionView(h), CoMemberTable.of(h)
        weights = {(u, v): rng.randint(1, 9) for u, v, _ in reference_materialize(view).edges}
        g = EdgeListGraph(n_nodes=h.nhv, edges=[(u, v, w) for (u, v), w in weights.items()])
        for reordered, original in ((_permuted_rows(g, rng), g), (_permuted_rows(g, rng), g), (table, view)):
            for cfg in (*CONFIGS, LpConfig(seed=i)):
                got = graph_label_propagation(reordered, cfg)
                want = graph_label_propagation(original, cfg)
                assert (got[0].labels, got[1]) == (want[0].labels, want[1])
            for _ in range(3):
                p = random_partition(rng, h.vertices())
                try:
                    want = graph_modularity(original, p)
                except EmptyGraphError:
                    with pytest.raises(EmptyGraphError):
                        graph_modularity(reordered, p)
                    continue
                assert graph_modularity(reordered, p) == want
        assert graph_degree_centrality(table) == graph_degree_centrality(view)
        for ratings in _rating_tables(h, rng)[:3]:
            assert _outcome(forecast_graph, table, ratings) == _outcome(forecast_graph, view, ratings)
