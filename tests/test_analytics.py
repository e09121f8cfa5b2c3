"""Components, random walks, degrees, and both modularity scores."""

from __future__ import annotations

import math
import random
from collections import Counter, deque
from fractions import Fraction

import pytest

from hgkit import (
    BipartiteView,
    CoMemberTable,
    Hypergraph,
    Partition,
    TwoSectionView,
    connected_components,
    degree_centrality,
    degree_summary,
    graph_degree_centrality,
    graph_modularity,
    hypergraph_modularity,
    one_step_distribution,
    random_walk_step,
    ranked,
)
from hgkit.analytics import component_sizes
from hgkit.errors import (
    EmptyGraphError,
    IsolatedVertexError,
    NoHyperedgesError,
    NoUsableHyperedgesError,
    PartitionNotTotalError,
)

from helpers import (
    hyper_modularity_exact,
    hypergraph_from_edges,
    newman_modularity_exact,
    random_hypergraph,
    random_partition,
    reference_connected_components,
    reference_degree_tallies,
    reference_materialize,
    two_section_adjacency,
)


class TestConnectedComponents:
    def test_hand_case(self):
        h = hypergraph_from_edges(6, [(1, 2), (2, 3), (4, 5)])
        assert connected_components(h) == [{1, 2, 3}, {4, 5}, {6}]

    def test_empty(self):
        assert connected_components(Hypergraph()) == []

    def test_empty_hyperedges_connect_nothing(self):
        h = hypergraph_from_edges(2, [(), ()])
        assert connected_components(h) == [{1}, {2}]

    def test_matches_bipartite_reachability(self):
        rng = random.Random(21)
        for _ in range(50):
            h = random_hypergraph(rng, max_n=10, max_k=8)
            view = BipartiteView(h)
            seen: set[int] = set()
            comps = []
            for v in range(1, h.nhv + 1):
                if v in seen:
                    continue
                block = {v}
                seen.add(v)
                queue = deque([v])
                while queue:
                    node = queue.popleft()
                    for enode in view.neighbors(node):
                        for w in view.neighbors(enode):
                            if w not in seen:
                                seen.add(w)
                                block.add(w)
                                queue.append(w)
                comps.append(block)
            assert connected_components(h) == comps

    def test_matches_twosection_reachability_plus_isolated(self):
        rng = random.Random(22)
        for _ in range(50):
            h = random_hypergraph(rng, max_n=10, max_k=8)
            adj = two_section_adjacency(h)
            seen: set[int] = set()
            comps = []
            for v in h.vertices():
                if v in seen:
                    continue
                block = {v}
                seen.add(v)
                queue = deque([v])
                while queue:
                    x = queue.popleft()
                    for y in adj[x]:
                        if y not in seen:
                            seen.add(y)
                            block.add(y)
                            queue.append(y)
                comps.append(block)
            assert connected_components(h) == comps

    def test_matches_union_find_after_seeded_mutation_streams(self):
        # Swap-removals move rows, cleared cells leave isolated vertices and
        # empty hyperedges; the oracle reads only the hyperedge index.
        rng = random.Random(2028)
        shapes = {"remap": 0, "isolated": 0, "empty": 0}
        for _ in range(40):
            h = random_hypergraph(rng, max_n=30, max_k=20)
            for step in range(rng.randint(10, 80)):
                op = rng.randrange(6)
                if op == 0:
                    h.add_vertex(rng.sample(range(1, h.nhe + 1), min(h.nhe, rng.randint(0, 3))))
                elif op == 1:
                    h.add_hyperedge(rng.sample(range(1, h.nhv + 1), min(h.nhv, rng.randint(0, 6))))
                elif op == 2 and h.nhv:
                    shapes["remap"] += bool(h.remove_vertex(rng.randint(1, h.nhv)))
                elif op == 3 and h.nhe:
                    shapes["remap"] += bool(h.remove_hyperedge(rng.randint(1, h.nhe)))
                elif h.nhv and h.nhe:
                    h.set_weight(rng.randint(1, h.nhv), rng.randint(1, h.nhe), None if op == 4 else 2.0)
                if step % 10 == 0:
                    self.assert_matches_references(h)
            self.assert_matches_references(h)
            shapes["isolated"] += sum(not row for row in h._v2he)
            shapes["empty"] += sum(not column for column in h._he2v)
        assert all(shapes.values()), shapes

    def test_many_isolated_vertices(self):
        h = Hypergraph(200_000, 0)
        h.add_hyperedge([199_999, 3, 200_000])
        h.add_hyperedge([])
        h.add_hyperedge([5, 3])
        components = connected_components(h)
        assert len(components) == 200_000 - 3
        assert components[:5] == [{1}, {2}, {3, 5, 199_999, 200_000}, {4}, {6}]
        assert component_sizes(h) == {1: 200_000 - 4, 4: 1}
        self.assert_matches_references(h)

    @staticmethod
    def assert_matches_references(h: Hypergraph) -> None:
        reference = reference_connected_components(h)
        assert connected_components(h) == reference
        assert component_sizes(h) == Counter(map(len, reference))
        degrees, size_counts, cells = reference_degree_tallies(h)
        summary = degree_summary(h)
        assert (summary.degrees, summary.size_counts, summary.volume) == (degrees, size_counts, cells)
        assert h.incidence_count == cells


class TestRandomWalk:
    def walk_instance(self) -> Hypergraph:
        return hypergraph_from_edges(3, [(1, 2), (1, 2, 3)])

    def test_kernel_hand_values(self):
        dist = one_step_distribution(self.walk_instance(), 1)
        assert abs(dist[1] - 5 / 12) < 1e-15
        assert abs(dist[2] - 5 / 12) < 1e-15
        assert abs(dist[3] - 1 / 6) < 1e-15

    def test_kernel_rows_sum_to_one(self):
        rng = random.Random(23)
        for _ in range(60):
            h = random_hypergraph(rng, max_n=10, max_k=8)
            for v in h.vertices():
                if h.degree(v) == 0:
                    continue
                assert abs(math.fsum(one_step_distribution(h, v).values()) - 1.0) < 1e-12

    def test_isolated_vertex_raises(self):
        h = Hypergraph(1, 0)
        with pytest.raises(IsolatedVertexError):
            random_walk_step(h, 1, random.Random(0))
        with pytest.raises(IsolatedVertexError):
            one_step_distribution(h, 1)

    def test_step_lands_in_chosen_hyperedge(self):
        h = self.walk_instance()
        rng = random.Random(7)
        for _ in range(200):
            u = random_walk_step(h, 1, rng)
            assert u in (1, 2, 3)

    def test_self_step_possible(self):
        h = self.walk_instance()
        rng = random.Random(1)
        assert any(random_walk_step(h, 1, rng) == 1 for _ in range(50))

    def test_seeded_determinism(self):
        h = self.walk_instance()
        a = [random_walk_step(h, 1, random.Random(99)) for _ in range(20)]
        b = [random_walk_step(h, 1, random.Random(99)) for _ in range(20)]
        assert a == b

    def test_custom_selectors(self):
        h = self.walk_instance()
        rng = random.Random(0)
        # force hyperedge 1, then always pick its smallest member
        u = random_walk_step(
            h,
            1,
            rng,
            heselect=lambda hg, v, r: 1,
            vselect=lambda hg, v, e, r: min(hg.get_vertices(e)),
        )
        assert u == 1

    def test_selector_must_return_member(self):
        h = self.walk_instance()
        with pytest.raises(ValueError):
            random_walk_step(
                h, 1, random.Random(0), heselect=lambda hg, v, r: 1, vselect=lambda hg, v, e, r: 3
            )

    # True and 1.0 equal member 1 of hyperedge 1, but neither is a vertex id.
    @pytest.mark.parametrize("chosen", [True, 1.0])
    def test_selector_must_return_a_vertex_id(self, chosen):
        h = self.walk_instance()
        with pytest.raises(ValueError):
            random_walk_step(
                h, 1, random.Random(0), heselect=lambda hg, v, r: 1, vselect=lambda hg, v, e, r: chosen
            )

    def test_empirical_distribution_tracks_kernel(self):
        h = self.walk_instance()
        rng = random.Random(0)
        samples = 20_000
        counts = {1: 0, 2: 0, 3: 0}
        for _ in range(samples):
            counts[random_walk_step(h, 1, rng)] += 1
        for u, p in one_step_distribution(h, 1).items():
            se = math.sqrt(p * (1 - p) / samples)
            assert abs(counts[u] / samples - p) < 4 * se


class TestDegrees:
    def test_degree_centrality(self):
        h = hypergraph_from_edges(3, [(1, 2), (1, 3)])
        scores = degree_centrality(h)
        assert scores == {1: 2.0, 2: 1.0, 3: 1.0}
        assert ranked(scores) == [(1, 2.0), (2, 1.0), (3, 1.0)]

    def test_graph_degree_centrality_counts_distinct_comembers(self):
        h = hypergraph_from_edges(3, [(1, 2), (1, 3), (1, 2)])
        scores = graph_degree_centrality(TwoSectionView(h))
        assert scores == {1: 2.0, 2: 1.0, 3: 1.0}

    def test_ranking_ties_break_by_vertex_id(self):
        h = hypergraph_from_edges(3, [(3, 2), (2, 3)])
        assert ranked(degree_centrality(h)) == [(2, 2.0), (3, 2.0), (1, 0.0)]

    def test_degree_summary(self):
        h = hypergraph_from_edges(3, [(1, 2), (1, 2, 3), ()])
        summary = degree_summary(h)
        assert summary.degrees == {1: 2, 2: 2, 3: 1}
        assert summary.volume == 5
        assert summary.size_counts == {2: 1, 3: 1}
        assert summary.usable_hyperedges == 2


def modularity_fixture() -> Hypergraph:
    return hypergraph_from_edges(4, [(1, 2), (3, 4), (1, 3)])


class TestHypergraphModularity:
    def test_hand_partition(self):
        q = hypergraph_modularity(modularity_fixture(), Partition.from_communities([{1, 2}, {3, 4}]))
        assert abs(q - 1 / 6) < 1e-12

    def test_single_community_is_zero(self):
        h = modularity_fixture()
        q = hypergraph_modularity(h, Partition({v: 1 for v in h.vertices()}))
        assert abs(q) < 1e-12

    def test_all_singletons(self):
        h = modularity_fixture()
        q = hypergraph_modularity(h, Partition({v: v for v in h.vertices()}))
        assert abs(q + 5 / 18) < 1e-12

    def test_empty_hyperedges_ignored(self):
        h = modularity_fixture()
        base = hypergraph_modularity(h, Partition.from_communities([{1, 2}, {3, 4}]))
        h.add_hyperedge(())
        again = hypergraph_modularity(h, Partition.from_communities([{1, 2}, {3, 4}]))
        assert base == again

    def test_partition_must_be_total(self):
        h = modularity_fixture()
        with pytest.raises(PartitionNotTotalError):
            hypergraph_modularity(h, Partition({1: 1, 2: 1}))
        with pytest.raises(PartitionNotTotalError):
            hypergraph_modularity(h, Partition({v: 1 for v in range(1, 6)}))

    def test_no_hyperedges(self):
        with pytest.raises(NoHyperedgesError):
            hypergraph_modularity(Hypergraph(2, 0), Partition({1: 1, 2: 1}))

    def test_all_hyperedges_empty(self):
        h = hypergraph_from_edges(2, [(), ()])
        with pytest.raises(NoUsableHyperedgesError):
            hypergraph_modularity(h, Partition({1: 1, 2: 1}))

    def test_matches_exact_arithmetic_on_random_inputs(self):
        rng = random.Random(31)
        done = 0
        while done < 80:
            h = random_hypergraph(rng, max_n=8, max_k=6)
            if h.nhv == 0 or not any(h.hyperedge_size(e) for e in h.hyperedges()):
                continue
            p = random_partition(rng, h.vertices())
            expected = hyper_modularity_exact(h, p)
            assert abs(hypergraph_modularity(h, p) - float(expected)) < 1e-12
            done += 1


class TestGraphModularity:
    def test_two_disjoint_edges(self):
        g = CoMemberTable.of(hypergraph_from_edges(4, [(1, 2), (3, 4)]))
        q = graph_modularity(g, Partition.from_communities([{1, 2}, {3, 4}]))
        assert q == 0.5

    def test_single_edge_cases(self):
        g = CoMemberTable.of(hypergraph_from_edges(2, [(1, 2)]))
        assert graph_modularity(g, Partition({1: 1, 2: 1})) == 0.0
        assert graph_modularity(g, Partition({1: 1, 2: 2})) == -0.5

    def test_accepts_view_directly(self):
        view = TwoSectionView(hypergraph_from_edges(4, [(1, 2), (3, 4)]))
        assert graph_modularity(view, Partition.from_communities([{1, 2}, {3, 4}])) == 0.5

    def test_empty_graph(self):
        with pytest.raises(EmptyGraphError):
            graph_modularity(
                CoMemberTable.of(Hypergraph(2, 0)), Partition({1: 1, 2: 1})
            )

    def test_matches_exact_arithmetic_on_random_inputs(self):
        rng = random.Random(33)
        done = 0
        while done < 80:
            h = random_hypergraph(rng, max_n=8, max_k=6)
            g = CoMemberTable.of(h)
            edges = reference_materialize(TwoSectionView(h)).edges
            if not edges:
                continue
            p = random_partition(rng, range(1, g.n_nodes + 1))
            expected = newman_modularity_exact(
                g.n_nodes, [(u, v, int(w)) for u, v, w in edges], p
            )
            assert abs(graph_modularity(g, p) - float(expected)) < 1e-12
            done += 1


def test_size_two_hypergraph_modularity_degenerates_to_newman():
    # hypergraphs whose hyperedges all have exactly two members behave
    # like multigraphs: both scores must agree
    rng = random.Random(35)
    done = 0
    while done < 60:
        n = rng.randint(2, 8)
        k = rng.randint(1, 10)
        h = Hypergraph(n, 0)
        for _ in range(k):
            u, v = rng.sample(range(1, n + 1), 2)
            h.add_hyperedge((u, v))
        p = random_partition(rng, h.vertices())
        qh = hypergraph_modularity(h, p)
        qg = graph_modularity(CoMemberTable.of(h), p)
        assert abs(qh - qg) < 1e-9
        done += 1
