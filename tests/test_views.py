"""Bipartite and two-section views and the packed co-member table."""

from __future__ import annotations

import random

import pytest

from hgkit import BipartiteView, CoMemberTable, Hypergraph, TwoSectionView
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

    def test_matches_direct_pair_counting(self):
        rng = random.Random(6)
        for _ in range(60):
            h = random_hypergraph(rng, max_n=9, max_k=7)
            table = CoMemberTable.of(h)
            oracle = two_section_adjacency(h)
            assert [table.neighbors(v) for v in h.vertices()] == [oracle[v] for v in h.vertices()]

    @staticmethod
    def table_rows(table: CoMemberTable) -> list[tuple[list[int], list[int]]]:
        return [(list(ids), list(counts)) for ids, counts in table.rows()]

    def test_a_payload_casts_back_to_the_same_table(self, triangle_pair):
        rng = random.Random(7)
        wide = hypergraph_from_edges(300, [tuple(range(1, 301))] + [(1, 2)] * 255)
        for h in [triangle_pair, wide, Hypergraph()] + [random_hypergraph(rng, max_n=9, max_k=7) for _ in range(30)]:
            packed = CoMemberTable.of(h)
            cast = CoMemberTable.from_payload(packed.payload())
            # A packed table holds arrays, a cast one memoryviews over the payload's bytes.
            assert type(packed.ids) is not type(cast.ids)
            for table in (packed, cast):
                back = CoMemberTable.from_payload(table.payload())
                assert back.n_nodes == table.n_nodes == h.nhv
                assert self.table_rows(back) == self.table_rows(table) == self.table_rows(packed)
                assert back.payload() == packed.payload()

    # Each payload of the wrong shape, made from a table's own (codes, ids, counts, ends).
    WRONG_PAYLOADS = {
        "list": lambda codes, ids, counts, ends: [codes, ids, counts, ends],
        "3-tuple": lambda codes, ids, counts, ends: (codes, ids, counts),
        "two-codes": lambda codes, ids, counts, ends: (codes[:2], ids, counts, ends),
        "float-codes": lambda codes, ids, counts, ends: ("ddd", ids, counts, ends),
        "part-item": lambda codes, ids, counts, ends: (codes, ids + b"\0", counts, ends),
        "fewer-counts": lambda codes, ids, counts, ends: (codes, ids, counts[:-1], ends),
        "short-ends": lambda codes, ids, counts, ends: (codes, ids, counts, ends[: len(ends) // 2]),
        "no-ends": lambda codes, ids, counts, ends: (codes, ids, counts, b""),
        "text-ids": lambda codes, ids, counts, ends: (codes, ids.decode("latin-1"), counts, ends),
    }

    @pytest.mark.parametrize("shape", list(WRONG_PAYLOADS))
    def test_a_payload_of_another_shape_is_refused(self, shape):
        # 300 vertices: 2-byte ids, so one more byte is part of an item.
        h = hypergraph_from_edges(300, [tuple(range(1, 301))] + [(1, 2)] * 3)
        payload = CoMemberTable.of(h).payload()
        assert payload[0] == "HBI"
        assert CoMemberTable.from_payload(self.WRONG_PAYLOADS[shape](*payload)) is None

    def test_a_hypergraph_payload_is_refused(self, triangle_pair):
        h = triangle_pair
        rows = (h._v2he, h._he2v, h._vmeta, h._hemeta)
        for payload in ((*rows, None), rows, None, ()):
            assert CoMemberTable.from_payload(payload) is None
