"""Bipartite and two-section views plus materialization."""

from __future__ import annotations

import random

import pytest

from hgkit import BipartiteView, CoMemberTable, Hypergraph, TwoSectionView, materialize
from hgkit.errors import UnknownNodeError, UnknownVertexError

from helpers import hypergraph_from_edges, random_hypergraph, two_section_adjacency


@pytest.fixture
def triangle_pair():
    # e1={1,2}, e2={1,2,3}: vertices 1 and 2 share two hyperedges
    return hypergraph_from_edges(3, [(1, 2), (1, 2, 3)])


class TestBipartiteView:
    def test_node_universe(self, triangle_pair):
        view = BipartiteView(triangle_pair)
        assert view.n_nodes == 5
        assert all(view.neighbors(v) for v in range(1, 6))

    def test_vertex_side_neighbors(self, triangle_pair):
        view = BipartiteView(triangle_pair)
        assert view.neighbors(1) == {4: 1, 5: 1}
        assert view.neighbors(3) == {5: 1}

    def test_hyperedge_side_neighbors(self, triangle_pair):
        view = BipartiteView(triangle_pair)
        assert view.neighbors(4) == {1: 1, 2: 1}
        assert view.neighbors(5) == {1: 1, 2: 1, 3: 1}

    def test_unknown_node(self, triangle_pair):
        view = BipartiteView(triangle_pair)
        with pytest.raises(UnknownNodeError):
            view.neighbors(6)
        with pytest.raises(UnknownNodeError):
            view.neighbors(0)

    def test_view_tracks_mutation(self, triangle_pair):
        view = BipartiteView(triangle_pair)
        triangle_pair.set_weight(3, 1, 1.0)
        assert view.neighbors(3) == {4: 1, 5: 1}

    def test_rows_keep_incidence_order(self):
        h = hypergraph_from_edges(5, [(3, 1), (1, 5), (1, 3), (1, 4)])
        h.remove_hyperedge(2)
        assert list(h._v2he[0]) == [1, 3, 2]
        view = BipartiteView(h)
        assert list(view.neighbors(1)) == [6, 8, 7]
        assert list(view.neighbors(6)) == [3, 1]


class TestTwoSectionView:
    def test_shared_count_weights(self, triangle_pair):
        view = TwoSectionView(triangle_pair)
        assert view.neighbors(1) == {2: 2, 3: 1}
        assert view.neighbors(3) == {1: 1, 2: 1}

    def test_no_self_loops(self, triangle_pair):
        view = TwoSectionView(triangle_pair)
        for v in range(1, view.n_nodes + 1):
            assert v not in view.neighbors(v)

    def test_small_hyperedges_contribute_nothing(self):
        h = hypergraph_from_edges(3, [(1,), ()])
        view = TwoSectionView(h)
        assert all(view.neighbors(v) == {} for v in range(1, view.n_nodes + 1))

    def test_unknown_vertex(self, triangle_pair):
        with pytest.raises(UnknownVertexError):
            TwoSectionView(triangle_pair).neighbors(4)

    def test_matches_direct_pair_counting(self):
        rng = random.Random(5)
        for _ in range(60):
            h = random_hypergraph(rng, max_n=9, max_k=7)
            view = TwoSectionView(h)
            oracle = two_section_adjacency(h)
            for v in h.vertices():
                assert view.neighbors(v) == oracle[v]


class TestMaterialize:
    def test_bipartite_single_edge(self):
        h = hypergraph_from_edges(2, [(1, 2)])
        g = materialize(BipartiteView(h))
        assert g.n_nodes == 3
        assert g.edges == [(1, 3, 1.0), (2, 3, 1.0)]

    def test_twosection_canonical_order(self, triangle_pair):
        g = materialize(TwoSectionView(triangle_pair))
        assert g.n_nodes == 3
        assert g.edges == [(1, 2, 2.0), (1, 3, 1.0), (2, 3, 1.0)]
        assert all(u < v for u, v, _ in g.edges)

    def test_adjacency_round_trip(self, triangle_pair):
        # Rows keep the view's int weights; only ``edges`` gives floats.
        g = materialize(TwoSectionView(triangle_pair))
        assert g.neighbors(1) == {2: 2, 3: 1}
        assert g.neighbors(3) == {1: 1, 2: 1}
        assert {type(w) for v in range(1, 4) for w in g.neighbors(v).values()} == {int}
        with pytest.raises(UnknownNodeError):
            g.neighbors(4)

    def test_empty_hypergraph(self):
        h = Hypergraph()
        assert materialize(BipartiteView(h)).edges == []
        assert materialize(TwoSectionView(h)).n_nodes == 0

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            materialize(object())


class TestCoMemberTable:
    def test_rows_follow_the_walk(self, triangle_pair):
        table = CoMemberTable.of(triangle_pair)
        assert table.n_nodes == 3
        assert [(list(ids), list(counts)) for ids, counts in table.rows()] == [
            ([2, 3], [2, 1]), ([1, 3], [2, 1]), ([1, 2], [1, 1]),
        ]
        assert table.neighbors(1) == {2: 2, 3: 1}
        with pytest.raises(UnknownVertexError):
            table.neighbors(4)

    def test_each_array_is_as_narrow_as_the_input_allows(self, triangle_pair):
        table = CoMemberTable.of(triangle_pair)
        assert (table.ids.typecode, table.counts.typecode, table.ends.typecode) == ("B", "B", "B")
        # 300 vertices need 2-byte ids; a degree of 256 needs 2-byte counts;
        # 300 * 299 entries need 4-byte ends.
        h = hypergraph_from_edges(300, [tuple(range(1, 301))] + [(1, 2)] * 255)
        table = CoMemberTable.of(h)
        assert (table.ids.typecode, table.counts.typecode, table.ends.typecode) == ("H", "H", "I")
        assert table.neighbors(1)[2] == 256 and table.ends[-1] == 300 * 299
        assert CoMemberTable.of(Hypergraph()).ends.tolist() == [0]

    def test_rows_share_one_int_per_vertex(self):
        h = hypergraph_from_edges(400, [(1, 300, 399), (2, 300, 399)])
        table = CoMemberTable.of(h)
        keys = [next(k for k in table.neighbors(v) if k == 300) for v in (1, 2, 399)]
        assert keys[0] is keys[1] is keys[2]

    def test_matches_direct_pair_counting(self):
        rng = random.Random(6)
        for _ in range(60):
            h = random_hypergraph(rng, max_n=9, max_k=7)
            table = CoMemberTable.of(h)
            oracle = two_section_adjacency(h)
            assert [table.neighbors(v) for v in h.vertices()] == [oracle[v] for v in h.vertices()]
