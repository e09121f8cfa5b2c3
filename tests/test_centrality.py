"""Line-graph adjacency, shortest paths, betweenness, and correlation."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hgkit import (
    Hypergraph,
    TwoSectionView,
    degree_centrality,
    pearson,
    s_adjacency,
    s_betweenness,
    s_shortest_path_length,
)
from hgkit.errors import DomainMismatchError, InvalidSError, UnknownVertexError, ZeroVarianceError

from helpers import (
    enumerated_betweenness,
    hypergraph_from_edges,
    random_hypergraph,
    textbook_betweenness,
    two_section_adjacency,
)


def path_hypergraph(n: int) -> Hypergraph:
    return hypergraph_from_edges(n, [(i, i + 1) for i in range(1, n)])


def cycle_hypergraph(n: int) -> Hypergraph:
    edges = [(i, i + 1) for i in range(1, n)] + [(n, 1)]
    return hypergraph_from_edges(n, edges)


def star_hypergraph(n: int) -> Hypergraph:
    return hypergraph_from_edges(n, [(1, i) for i in range(2, n + 1)])


class TestSAdjacency:
    def test_s_must_be_positive(self):
        h = path_hypergraph(3)
        with pytest.raises(InvalidSError):
            s_adjacency(h, 0)
        with pytest.raises(InvalidSError):
            s_adjacency(h, -2)

    def test_s1_matches_twosection_structure(self):
        rng = random.Random(51)
        for _ in range(60):
            h = random_hypergraph(rng, max_n=10, max_k=8)
            adj = s_adjacency(h, 1)
            expected = two_section_adjacency(h)
            for v in h.vertices():
                assert adj.neighbors(v) == set(expected[v])

    def test_threshold_filters_weak_ties(self):
        h = hypergraph_from_edges(3, [(1, 2, 3), (1, 2)])
        adj1 = s_adjacency(h, 1)
        adj2 = s_adjacency(h, 2)
        assert adj1.neighbors(1) == {2, 3}
        assert adj2.neighbors(1) == {2}
        assert adj2.neighbors(3) == set()

    @pytest.mark.parametrize("bad", [True, False, 1.0, "1", None, 0, 4])
    def test_neighbors_rejects_what_hypergraph_rejects(self, bad):
        h = path_hypergraph(3)
        adj = s_adjacency(h, 1)
        with pytest.raises(UnknownVertexError):
            h.degree(bad)
        with pytest.raises(UnknownVertexError):
            adj.neighbors(bad)

    def test_edges_listing(self):
        h = hypergraph_from_edges(3, [(1, 2, 3), (1, 2)])
        assert s_adjacency(h, 2).edges() == [(1, 2)]
        assert s_adjacency(h, 1).edges() == [(1, 2), (1, 3), (2, 3)]


class TestShortestPaths:
    def test_path_graph_distances(self):
        h = path_hypergraph(4)
        assert s_shortest_path_length(h, 1, 1) == 0
        assert s_shortest_path_length(h, 1, 2) == 1
        assert s_shortest_path_length(h, 1, 4) == 3

    def test_disconnected_returns_none(self):
        h = hypergraph_from_edges(3, [(1, 2)])
        assert s_shortest_path_length(h, 1, 3) is None

    def test_higher_s_can_disconnect(self):
        h = hypergraph_from_edges(3, [(1, 2, 3), (1, 2)])
        assert s_shortest_path_length(h, 1, 3, s=1) == 1
        assert s_shortest_path_length(h, 1, 3, s=2) is None

    def test_prebuilt_adjacency_fixes_s(self):
        h = path_hypergraph(3)
        adj = s_adjacency(h, 1)
        assert s_shortest_path_length(adj, 1, 3) == 2
        assert s_shortest_path_length(adj, 1, 3, s=1) == 2
        for bad in (5, 2, 0, True, 1.0, "1"):
            with pytest.raises(InvalidSError) as info:
                s_shortest_path_length(adj, 1, 3, s=bad)
            assert info.value.exit_code == 4
        assert s_shortest_path_length(s_adjacency(h, 2), 1, 2) is None
        assert s_shortest_path_length(s_adjacency(h, 2), 1, 2, s=2) is None

    def test_hypergraph_s_defaults_to_one(self):
        h = hypergraph_from_edges(3, [(1, 2, 3), (1, 2)])
        assert s_shortest_path_length(h, 1, 3) == s_shortest_path_length(h, 1, 3, s=1) == 1
        with pytest.raises(InvalidSError):
            s_shortest_path_length(h, 1, 3, s=0)


class TestSBetweenness:
    def test_path_graph_hand_values(self):
        scores = s_betweenness(path_hypergraph(5))
        assert scores.scores == {1: 0.0, 2: 3.0, 3: 4.0, 4: 3.0, 5: 0.0}

    def test_star_center_carries_everything(self):
        scores = s_betweenness(star_hypergraph(5))
        # center mediates all C(4,2) leaf pairs
        assert scores.scores == {1: 6.0, 2: 0.0, 3: 0.0, 4: 0.0, 5: 0.0}

    def test_cycle_is_uniform(self):
        scores = s_betweenness(cycle_hypergraph(6))
        values = list(scores.scores.values())
        assert max(values) - min(values) < 1e-9

    def test_single_big_hyperedge_is_all_zero(self):
        scores = s_betweenness(hypergraph_from_edges(4, [(1, 2, 3, 4)]))
        assert set(scores.scores.values()) == {0.0}

    def test_s2_restricts_to_strong_ties(self):
        # strong path 1-2-3 plus a weakly attached 4
        h = hypergraph_from_edges(
            4, [(1, 2), (1, 2), (2, 3), (2, 3), (1, 4)]
        )
        scores = s_betweenness(h, s=2)
        assert scores.scores == {1: 0.0, 2: 1.0, 3: 0.0, 4: 0.0}

    def test_matches_independent_brandes(self):
        rng = random.Random(53)
        for _ in range(60):
            h = random_hypergraph(rng, max_n=10, max_k=8)
            for s in (1, 2):
                got = s_betweenness(h, s=s)
                adj = {v: s_adjacency(h, s).neighbors(v) for v in h.vertices()}
                want = textbook_betweenness(adj)
                for v in h.vertices():
                    assert abs(got[v] - want[v]) < 1e-9

    def test_matches_geodesic_enumeration(self):
        rng = random.Random(54)
        for _ in range(40):
            h = random_hypergraph(rng, max_n=7, max_k=6)
            got = s_betweenness(h, s=1)
            adj = {v: s_adjacency(h, 1).neighbors(v) for v in h.vertices()}
            want = enumerated_betweenness(adj)
            for v in h.vertices():
                assert abs(got[v] - float(want[v])) < 1e-9

    def test_equivalence_check_accepts_random_inputs(self):
        # s=1 betweenness against exact geodesic enumeration over the
        # two-section view, which shares no code with s_adjacency.
        rng = random.Random(55)
        for _ in range(30):
            h = random_hypergraph(rng, max_n=8, max_k=6)
            fast = s_betweenness(h, 1).scores
            view = TwoSectionView(h)
            nodes = range(1, view.n_nodes + 1)
            exact = enumerated_betweenness({v: sorted(view.neighbors(v)) for v in nodes})
            worst = max((abs(fast[v] - float(exact[v])) for v in nodes), default=0.0)
            assert worst < 1e-9

    def test_ranked_and_top(self):
        scores = s_betweenness(path_hypergraph(5))
        assert scores.ranked()[0] == (3, 4.0)
        assert scores.top(2) == [(3, 4.0), (2, 3.0)]


class TestPearson:
    def test_perfect_positive(self):
        a = {1: 1.0, 2: 2.0, 3: 3.0}
        b = {1: 10.0, 2: 20.0, 3: 30.0}
        assert pearson(a, b) == 1.0

    def test_perfect_negative(self):
        a = {1: 1.0, 2: 2.0, 3: 3.0}
        b = {1: 3.0, 2: 2.0, 3: 1.0}
        assert pearson(a, b) == -1.0

    def test_known_value(self):
        a = {1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0}
        b = {1: 1.0, 2: 3.0, 3: 2.0, 4: 4.0}
        assert abs(pearson(a, b) - 0.8) < 1e-12

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatchError):
            pearson({1: 1.0}, {2: 1.0})

    def test_constant_vector(self):
        a = {1: 1.0, 2: 1.0, 3: 1.0}
        b = {1: 1.0, 2: 2.0, 3: 3.0}
        with pytest.raises(ZeroVarianceError):
            pearson(a, b)

    def test_too_few_points(self):
        with pytest.raises(ZeroVarianceError):
            pearson({1: 1.0}, {1: 2.0})

    def test_degree_vs_betweenness_smoke(self):
        h = star_hypergraph(6)
        r = pearson(degree_centrality(h).scores, s_betweenness(h).scores)
        assert abs(r - 1.0) < 1e-12
