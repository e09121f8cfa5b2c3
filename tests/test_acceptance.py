"""Acceptance gate: one test per release criterion, one verdict line each.

Every test prints ``[acceptance] <criterion>: PASS`` or ``FAIL`` so the
suite output doubles as a release checklist.  Tolerances and budgets
are pinned here on purpose; loosening them is an API change.
"""

from __future__ import annotations

import contextlib
import math
import random
import time

import pytest

from hgkit import (
    CoMemberTable,
    Hypergraph,
    LpConfig,
    Partition,
    TwoSectionView,
    average_error,
    connected_components,
    degree_summary,
    forecast_graph,
    forecast_hypergraph,
    graph_label_propagation,
    hypergraph_label_propagation,
    hypergraph_modularity,
    nmi,
    one_step_distribution,
    random_walk_step,
    read_hgf,
    read_json,
    read_reviews_csv,
    build_from_reviews,
    s_adjacency,
    s_betweenness,
    write_hgf,
    write_json,
)

from helpers import (
    enumerated_betweenness,
    hyper_modularity_exact,
    hypergraph_from_edges,
    newman_modularity_exact,
    planted_two_cluster,
    random_hypergraph,
    random_json_meta,
    reference_materialize,
    textbook_betweenness,
    two_section_adjacency,
)

GOLDEN = "3 2\n1=1.0 2=1.0\n2=1.5 3=1.0\n"


@pytest.fixture(autouse=True)
def _live_verdicts(capfd):
    """Let the verdict lines through pytest's capture."""
    with capfd.disabled():
        yield


@contextlib.contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def _random_mutation(h: Hypergraph, rng: random.Random) -> None:
    op = rng.randrange(5)
    if op == 0:
        members = (
            {e: rng.choice((0.5, 1.0, 2.0)) for e in rng.sample(range(1, h.nhe + 1), min(h.nhe, rng.randint(0, 3)))}
            if h.nhe
            else None
        )
        h.add_vertex(members)
    elif op == 1:
        members = (
            rng.sample(range(1, h.nhv + 1), min(h.nhv, rng.randint(0, 4)))
            if h.nhv
            else None
        )
        h.add_hyperedge(members)
    elif op == 2 and h.nhv:
        h.remove_vertex(rng.randint(1, h.nhv))
    elif op == 3 and h.nhe:
        h.remove_hyperedge(rng.randint(1, h.nhe))
    elif op == 4 and h.nhv and h.nhe:
        v, e = rng.randint(1, h.nhv), rng.randint(1, h.nhe)
        h.set_weight(v, e, rng.choice((None, 1.0, 2.5)))


def test_dual_index_consistency_under_fuzz():
    with criterion("dual-index consistency fuzz"):
        rng = random.Random(2026)
        start = time.perf_counter()
        for i in range(10_000):
            cap_n, cap_k = (200, 200) if i % 100 == 0 else (12, 10)
            n = rng.randint(0, cap_n)
            h = Hypergraph(n, 0)
            for _ in range(rng.randint(0, cap_k)):
                size = min(n, rng.randint(0, 8))
                h.add_hyperedge(rng.sample(range(1, n + 1), size) if n else None)
            assert h.check_dual_consistency()
            for _ in range(6):
                _random_mutation(h, rng)
                assert h.check_dual_consistency()
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"fuzz took {elapsed:.1f}s"


def test_serialization_round_trips():
    with criterion("serialization round-trips"):
        golden = Hypergraph(3, 2)
        for v, e, w in ((1, 1, 1.0), (2, 1, 1.0), (2, 2, 1.5), (3, 2, 1.0)):
            golden.set_weight(v, e, w)
        assert write_hgf(golden) == GOLDEN
        assert read_hgf(GOLDEN) == golden
        rng = random.Random(7)
        for _ in range(1_000):
            h = random_hypergraph(rng, max_n=12, max_k=10, weighted=True)
            assert read_hgf(write_hgf(h)) == h
            if h.nhv and rng.random() < 0.5:
                h.set_vertex_meta(rng.randint(1, h.nhv), random_json_meta(rng))
            if h.nhe and rng.random() < 0.5:
                h.set_hyperedge_meta(rng.randint(1, h.nhe), random_json_meta(rng))
            assert read_json(write_json(h)) == h


def test_betweenness_matches_independent_oracles():
    with criterion("s-betweenness vs independent oracles"):
        rng = random.Random(11)
        # small membership patterns against a separately written Brandes
        for _ in range(10_000):
            n = rng.randint(1, 5)
            h = Hypergraph(n, 0)
            for _ in range(rng.randint(0, 4)):
                h.add_hyperedge([v for v in range(1, n + 1) if rng.random() < 0.5])
            got = s_betweenness(h, 1).scores
            want = textbook_betweenness(two_section_adjacency(h))
            assert all(abs(got[v] - want[v]) <= 1e-9 for v in h.vertices())
        # mid-size random instances
        for _ in range(100):
            h = Hypergraph(30, 0)
            for _ in range(rng.randint(10, 40)):
                h.add_hyperedge(rng.sample(range(1, 31), rng.randint(2, 6)))
            got = s_betweenness(h, 1).scores
            want = textbook_betweenness(two_section_adjacency(h))
            assert all(abs(got[v] - want[v]) <= 1e-9 for v in h.vertices())
        # exact geodesic enumeration, s = 1 and s = 2
        for _ in range(150):
            h = random_hypergraph(rng, max_n=12, max_k=8)
            for s in (1, 2):
                adj = s_adjacency(h, s)
                got = s_betweenness(h, s).scores
                want = enumerated_betweenness(
                    {v: adj.neighbors(v) for v in h.vertices()}
                )
                assert all(
                    abs(got[v] - float(want[v])) <= 1e-9 for v in h.vertices()
                )


def test_hypergraph_modularity_anchors():
    with criterion("hypergraph modularity anchors"):
        hand = hypergraph_from_edges(4, [(1, 2), (3, 4), (1, 3)])
        q = hypergraph_modularity(hand, Partition.from_communities([{1, 2}, {3, 4}]))
        assert abs(q - 1 / 6) <= 1e-12
        rng = random.Random(13)
        done = 0
        while done < 1_000:
            h = random_hypergraph(rng, max_n=10, max_k=8)
            if h.nhv == 0 or not any(h.hyperedge_size(e) for e in h.hyperedges()):
                continue
            whole = Partition({v: 1 for v in h.vertices()})
            assert abs(hypergraph_modularity(h, whole)) <= 1e-12
            done += 1
        # size-2-only structures score like the weighted pair graph
        done = 0
        while done < 200:
            n = rng.randint(2, 9)
            h = Hypergraph(n, 0)
            for _ in range(rng.randint(1, 12)):
                h.add_hyperedge(rng.sample(range(1, n + 1), 2))
            p = Partition({v: rng.randint(1, 3) for v in h.vertices()})
            g = reference_materialize(TwoSectionView(h))
            want = newman_modularity_exact(
                g.n_nodes, [(u, v, int(w)) for u, v, w in g.edges], p
            )
            assert abs(hypergraph_modularity(h, p) - float(want)) <= 1e-9
            done += 1


def test_random_walk_distribution():
    with criterion("random-walk distribution"):
        h = hypergraph_from_edges(3, [(1, 2), (1, 2, 3)])
        kernel = one_step_distribution(h, 1)
        for u, p in ((1, 5 / 12), (2, 5 / 12), (3, 1 / 6)):
            assert abs(kernel[u] - p) <= 1e-12
        samples = 100_000
        rng = random.Random(0)
        counts = {1: 0, 2: 0, 3: 0}
        for _ in range(samples):
            counts[random_walk_step(h, 1, rng)] += 1
        for u, p in kernel.items():
            se = math.sqrt(p * (1 - p) / samples)
            assert abs(counts[u] / samples - p) <= 3 * se
        rng = random.Random(17)
        for _ in range(200):
            g = random_hypergraph(rng, max_n=10, max_k=8)
            for v in g.vertices():
                if g.degree(v):
                    row = one_step_distribution(g, v)
                    assert abs(math.fsum(row.values()) - 1.0) <= 1e-12


def test_label_propagation_recovers_planted_clusters():
    with criterion("label propagation on planted clusters"):
        for seed in range(50):
            h, truth = planted_two_cluster(seed=seed)
            cfg = LpConfig(seed=seed)
            hyper, hyper_iters = hypergraph_label_propagation(h, cfg)
            g = CoMemberTable.of(h)
            graph, graph_iters = graph_label_propagation(g, cfg)
            for part, iters in ((hyper, hyper_iters), (graph, graph_iters)):
                assert part.community_count == 2
                assert nmi(part, truth) == 1.0
                assert iters <= 100
            if seed % 10 == 0:
                assert hypergraph_label_propagation(h, cfg)[0] == hyper
                assert graph_label_propagation(g, cfg)[0] == graph


def test_nmi_properties():
    with criterion("nmi properties"):
        rng = random.Random(19)
        for _ in range(50):
            n = rng.randint(1, 20)
            x = Partition({v: rng.randint(1, 5) for v in range(1, n + 1)})
            shifted = Partition({v: lab + 100 for v, lab in x.labels.items()})
            assert nmi(x, x) == 1.0
            assert nmi(x, shifted) == 1.0
        independent = (
            Partition.from_communities([{1, 2}, {3, 4}]),
            Partition.from_communities([{1, 3}, {2, 4}]),
        )
        assert nmi(*independent) == 0.0
        whole = Partition({v: 1 for v in range(1, 6)})
        singles = Partition({v: v for v in range(1, 6)})
        assert nmi(whole, singles) == 0.0
        for _ in range(1_000):
            n = rng.randint(1, 15)
            x = Partition({v: rng.randint(1, 4) for v in range(1, n + 1)})
            y = Partition({v: rng.randint(1, 4) for v in range(1, n + 1)})
            forward = nmi(x, y)
            assert forward == nmi(y, x)
            assert 0.0 <= forward <= 1.0


def test_forecast_anchors():
    with criterion("rating forecast anchors"):
        h = hypergraph_from_edges(3, [(1, 2), (2, 3)])
        ratings = {1: 5.0, 2: 3.0, 3: 1.0}
        hyper = forecast_hypergraph(h, ratings)
        graph = forecast_graph(TwoSectionView(h), ratings)
        assert hyper[2] == 3.0
        assert graph[2] == 3.0
        assert average_error(hyper, ratings) == (2.0 + 0.0 + 2.0) / 3
        rng = random.Random(23)
        done = 0
        while done < 100:
            g = random_hypergraph(rng, max_n=10, max_k=10, allow_empty=False)
            if g.nhv < 2 or len(connected_components(g)) != 1:
                continue
            const = rng.choice((1.0, 2.0, 3.0, 4.0, 5.0, 2.5))
            flat = {v: const for v in g.vertices()}
            assert average_error(forecast_hypergraph(g, flat), flat) == 0.0
            assert average_error(forecast_graph(TwoSectionView(g), flat), flat) == 0.0
            done += 1


def _synthetic_reviews(records: int, items: int, users: int) -> str:
    rng = random.Random(29)
    lines = ["user_id,item_id,stars"]
    lines += [
        f"u{rng.randrange(users)},b{rng.randrange(items)},{rng.randint(1, 5)}"
        for _ in range(records)
    ]
    return "\n".join(lines) + "\n"


def test_desk_scale_performance():
    with criterion("desk-scale performance"):
        text = _synthetic_reviews(100_000, items=20_000, users=10_000)
        start = time.perf_counter()
        h, _, _ = build_from_reviews(read_reviews_csv(text))
        components = connected_components(h)
        summary = degree_summary(h)
        pipeline = time.perf_counter() - start
        assert h.nhv > 15_000 and h.nhe > 9_000
        assert components and summary.volume > 0
        assert pipeline < 5.0, f"review pipeline took {pipeline:.2f}s"

        rng = random.Random(5)
        big = Hypergraph(2_000, 0)
        for _ in range(2_500):
            big.add_hyperedge(rng.sample(range(1, 2_001), rng.randint(2, 4)))
        start = time.perf_counter()
        scores = s_betweenness(big, 1)
        betweenness_time = time.perf_counter() - start
        assert len(scores.scores) == 2_000
        assert betweenness_time < 60.0, f"betweenness took {betweenness_time:.2f}s"
