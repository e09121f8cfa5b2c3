"""Label propagation (both variants) and partition similarity."""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from hgkit import (
    Hypergraph,
    LpConfig,
    Partition,
    TwoSectionView,
    connected_components,
    graph_label_propagation,
    hypergraph_label_propagation,
    materialize,
    nmi,
)
from hgkit.community import _draw, _shuffle
from hgkit.errors import DomainMismatchError, EmptyDomainError

from helpers import hypergraph_from_edges, planted_two_cluster, random_hypergraph, same_blocks


def complete_graph(n: int) -> Hypergraph:
    h = Hypergraph(n, 0)
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            h.add_hyperedge((u, v))
    return h


class TestLpConfig:
    def test_defaults(self):
        cfg = LpConfig()
        assert cfg.max_iterations == 100
        assert cfg.seed == 0

    def test_rejects_nonpositive_iteration_cap(self):
        with pytest.raises(ValueError):
            LpConfig(max_iterations=0)

    def test_rejects_a_float_iteration_cap(self):
        with pytest.raises(ValueError):
            LpConfig(max_iterations=2.5)

    def test_rejects_a_bool_iteration_cap(self):
        with pytest.raises(ValueError):
            LpConfig(max_iterations=True)

    def test_rejects_a_string_iteration_cap(self):
        with pytest.raises(ValueError):
            LpConfig(max_iterations="3")

    @pytest.mark.parametrize("seed", [None, True, 1.0, "7", random.Random(0)])
    def test_rejects_a_seed_that_is_not_an_int(self, seed):
        # None would seed from OS entropy and make every run different.
        with pytest.raises(ValueError, match="seed must be an int"):
            LpConfig(seed=seed)

    def test_accepts_negative_and_large_int_seeds(self):
        assert LpConfig(seed=-1).seed == -1
        assert LpConfig(seed=2**80).seed == 2**80

    def test_refuses_a_seed_too_long_to_spell(self):
        # repr would end in a bare ValueError past Python's 4,300 digits.
        with pytest.raises(ValueError, match="^seed must be an integer, got a positive integer of 5001 digits$"):
            repr(LpConfig(seed=10**5000))


# Every length from 1 to 130 covers each 2**k and 2**k + 1 up to 129,
# where the number of bits drawn per index changes.
DRAW_LENGTHS = range(1, 131)


class TestDrawsMatchRandom:
    """The LPs' own draws consume the generator as ``random``'s methods do."""

    def test_shuffle_matches_random_shuffle(self):
        for seed in range(50):
            ours, theirs = random.Random(seed), random.Random(seed)
            for n in DRAW_LENGTHS:
                x, y = list(range(n)), list(range(n))
                _shuffle(x, ours.getrandbits)
                theirs.shuffle(y)
                assert x == y
                assert ours.getstate() == theirs.getstate()

    def test_draw_matches_randrange(self):
        for seed in range(50):
            ours, theirs = random.Random(seed), random.Random(seed)
            for n in DRAW_LENGTHS:
                tied = list(range(100, 100 + n))
                assert _draw(tied, ours.getrandbits) == tied[theirs.randrange(len(tied))]
                assert ours.getstate() == theirs.getstate()


class TestGraphLabelPropagation:
    def test_complete_graph_collapses_to_one_community(self):
        g = materialize(TwoSectionView(complete_graph(4)))
        for seed in range(30):
            part, iters = graph_label_propagation(g, LpConfig(seed=seed))
            assert part.community_count == 1
            assert iters <= 100

    def test_two_triangles(self):
        h = hypergraph_from_edges(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
        g = materialize(TwoSectionView(h))
        for seed in range(30):
            part, _ = graph_label_propagation(g, LpConfig(seed=seed))
            assert same_blocks(part, Partition.from_communities([{1, 2, 3}, {4, 5, 6}]))

    def test_isolated_vertices_stay_singletons(self):
        h = hypergraph_from_edges(4, [(1, 2)])
        g = materialize(TwoSectionView(h))
        part, _ = graph_label_propagation(g, LpConfig(seed=3))
        assert same_blocks(part, Partition.from_communities([{1, 2}, {3}, {4}]))

    def test_empty_graph(self):
        g = materialize(TwoSectionView(Hypergraph()))
        part, iters = graph_label_propagation(g, LpConfig())
        assert len(part) == 0 and iters == 0

    def test_seeded_determinism(self):
        g = materialize(TwoSectionView(complete_graph(8)))
        a, ia = graph_label_propagation(g, LpConfig(seed=11))
        b, ib = graph_label_propagation(g, LpConfig(seed=11))
        assert a == b and ia == ib

    def test_weights_dominate_majority(self):
        # vertex 2 hears label(1) with weight 10 and label(3) with weight 1
        h = Hypergraph(3, 0)
        for _ in range(10):
            h.add_hyperedge((1, 2))
        h.add_hyperedge((2, 3))
        g = materialize(TwoSectionView(h))
        for seed in range(20):
            part, _ = graph_label_propagation(g, LpConfig(seed=seed))
            assert part.labels[1] == part.labels[2]

    def test_never_merges_across_components(self):
        rng = random.Random(41)
        for _ in range(30):
            h = random_hypergraph(rng, max_n=12, max_k=8)
            g = materialize(TwoSectionView(h))
            part, _ = graph_label_propagation(g, LpConfig(seed=rng.randrange(1000)))
            blocks = {}
            for v, lab in part.labels.items():
                blocks.setdefault(lab, set()).add(v)
            comps = connected_components(h)
            for block in blocks.values():
                assert any(block <= comp for comp in comps)


class TestHypergraphLabelPropagation:
    def test_single_hyperedge_reaches_consensus_fast(self):
        h = hypergraph_from_edges(4, [(1, 2, 3, 4)])
        for seed in range(30):
            part, iters = hypergraph_label_propagation(h, LpConfig(seed=seed))
            assert part.community_count == 1
            assert iters <= 2

    def test_two_disjoint_blocks(self):
        h = hypergraph_from_edges(6, [(1, 2, 3), (1, 2, 3), (4, 5, 6), (4, 5, 6)])
        for seed in range(30):
            part, _ = hypergraph_label_propagation(h, LpConfig(seed=seed))
            assert same_blocks(part, Partition.from_communities([{1, 2, 3}, {4, 5, 6}]))

    def test_chain_splits_with_converging_seed(self):
        # overlapping chain: a seed known to settle on the two-block answer
        h = hypergraph_from_edges(5, [(1, 2, 3), (3, 4, 5), (1, 2), (4, 5)])
        part, _ = hypergraph_label_propagation(h, LpConfig(seed=2))
        assert part.community_count == 2

    def test_isolated_vertices_and_empty_hyperedges(self):
        h = hypergraph_from_edges(3, [(1, 2), ()])
        part, _ = hypergraph_label_propagation(h, LpConfig(seed=5))
        assert same_blocks(part, Partition.from_communities([{1, 2}, {3}]))

    def test_empty_hypergraph(self):
        part, iters = hypergraph_label_propagation(Hypergraph(), LpConfig())
        assert len(part) == 0 and iters == 0

    def test_seeded_determinism(self):
        h, _ = planted_two_cluster(seed=4)
        a, ia = hypergraph_label_propagation(h, LpConfig(seed=7))
        b, ib = hypergraph_label_propagation(h, LpConfig(seed=7))
        assert a == b and ia == ib

    def test_never_merges_across_components(self):
        rng = random.Random(43)
        for _ in range(30):
            h = random_hypergraph(rng, max_n=12, max_k=8)
            part, _ = hypergraph_label_propagation(h, LpConfig(seed=rng.randrange(1000)))
            blocks = {}
            for v, lab in part.labels.items():
                blocks.setdefault(lab, set()).add(v)
            comps = connected_components(h)
            for block in blocks.values():
                assert any(block <= comp for comp in comps)

    def test_recovers_planted_clusters(self):
        for seed in range(10):
            h, truth = planted_two_cluster(seed=seed)
            part, iters = hypergraph_label_propagation(h, LpConfig(seed=seed))
            assert part.community_count == 2
            assert nmi(part, truth) == 1.0
            assert iters <= 100


def independent_nmi(x: Partition, y: Partition) -> float:
    """Contingency-table recomputation with Fractions for the counts."""
    n = len(x)
    joint: Counter = Counter()
    for v in x.labels:
        joint[(x.labels[v], y.labels[v])] += 1
    xc = Counter(x.labels.values())
    yc = Counter(y.labels.values())
    hx = -sum((c / n) * math.log(c / n) for c in xc.values())
    hy = -sum((c / n) * math.log(c / n) for c in yc.values())
    mi = sum(
        (c / n) * math.log(Fraction(c * n, xc[a] * yc[b]))
        for (a, b), c in joint.items()
    )
    if hx + hy == 0:
        return 1.0
    return 2 * mi / (hx + hy)


class TestNmi:
    def test_identical_partitions_score_one_exactly(self):
        x = Partition.from_communities([{1, 2}, {3, 4, 5}])
        assert nmi(x, x) == 1.0
        relabeled = Partition({v: x.labels[v] + 40 for v in x.labels})
        assert nmi(x, relabeled) == 1.0

    def test_independent_partitions_score_zero_exactly(self):
        x = Partition.from_communities([{1, 2}, {3, 4}])
        y = Partition.from_communities([{1, 3}, {2, 4}])
        assert nmi(x, y) == 0.0

    def test_everything_vs_singletons(self):
        whole = Partition({v: 1 for v in range(1, 5)})
        split = Partition({v: v for v in range(1, 5)})
        assert nmi(whole, split) == 0.0

    def test_two_trivial_partitions(self):
        whole = Partition({v: 1 for v in range(1, 5)})
        assert nmi(whole, whole) == 1.0

    def test_symmetry_and_range(self):
        rng = random.Random(47)
        for _ in range(300):
            n = rng.randint(1, 12)
            x = Partition({v: rng.randint(1, 4) for v in range(1, n + 1)})
            y = Partition({v: rng.randint(1, 4) for v in range(1, n + 1)})
            a, b = nmi(x, y), nmi(y, x)
            assert a == b
            assert 0.0 <= a <= 1.0

    def test_matches_independent_recomputation(self):
        rng = random.Random(48)
        for _ in range(200):
            n = rng.randint(2, 15)
            x = Partition({v: rng.randint(1, 5) for v in range(1, n + 1)})
            y = Partition({v: rng.randint(1, 5) for v in range(1, n + 1)})
            expected = independent_nmi(x, y)
            assert abs(nmi(x, y) - min(1.0, max(0.0, expected))) < 1e-12

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatchError):
            nmi(Partition({1: 1, 2: 1}), Partition({1: 1, 3: 1}))

    def test_empty_domain(self):
        with pytest.raises(EmptyDomainError):
            nmi(Partition({}), Partition({}))

    def test_known_fraction_case(self):
        # 3-vs-1 split against 2-vs-2 on four vertices
        x = Partition.from_communities([{1, 2, 3}, {4}])
        y = Partition.from_communities([{1, 2}, {3, 4}])
        got = nmi(x, y)
        assert abs(got - independent_nmi(x, y)) < 1e-12
        assert 0.0 < got < 1.0
