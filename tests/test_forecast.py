"""Neighborhood-mean rating predictors and their error metric."""

from __future__ import annotations

import random

import pytest

from hgkit import (
    Hypergraph,
    TwoSectionView,
    average_error,
    evaluation_size,
    forecast_graph,
    forecast_hypergraph,
)
from hgkit.errors import DomainMismatchError, EmptyEvaluationSetError

from helpers import hypergraph_from_edges, random_hypergraph


def hand_instance():
    # items 1..3 with ratings 5,3,1; two users as hyperedges
    h = hypergraph_from_edges(3, [(1, 2), (2, 3)])
    ratings = {1: 5.0, 2: 3.0, 3: 1.0}
    return h, ratings


class TestHypergraphForecast:
    def test_hand_values(self):
        h, ratings = hand_instance()
        pred = forecast_hypergraph(h, ratings)
        assert pred == {1: 3.0, 2: 3.0, 3: 3.0}

    def test_edges_below_two_members_are_unusable(self):
        h = hypergraph_from_edges(2, [(1,), ()])
        pred = forecast_hypergraph(h, {1: 4.0, 2: 2.0})
        assert pred == {1: None, 2: None}

    def test_mean_of_per_edge_means(self):
        # vertex 1 sees edge {1,2} (others mean 2) and edge {1,3,4} (others mean 4)
        h = hypergraph_from_edges(4, [(1, 2), (1, 3, 4)])
        ratings = {1: 1.0, 2: 2.0, 3: 3.0, 4: 5.0}
        pred = forecast_hypergraph(h, ratings)
        assert pred[1] == 3.0

    def test_missing_rating_raises(self):
        h, ratings = hand_instance()
        del ratings[3]
        with pytest.raises(DomainMismatchError):
            forecast_hypergraph(h, ratings)


class TestGraphForecast:
    def test_hand_values(self):
        h, ratings = hand_instance()
        pred = forecast_graph(TwoSectionView(h), ratings)
        assert pred == {1: 3.0, 2: 3.0, 3: 3.0}

    def test_weighted_neighbor_mean(self):
        # vertex 1 shares two hyperedges with 2 and one with 3
        h = hypergraph_from_edges(3, [(1, 2), (1, 2), (1, 3)])
        ratings = {1: 1.0, 2: 3.0, 3: 9.0}
        pred = forecast_graph(TwoSectionView(h), ratings)
        assert pred[1] == (2 * 3.0 + 9.0) / 3

    def test_no_neighbors_means_undefined(self):
        h = hypergraph_from_edges(2, [(1,)])
        pred = forecast_graph(TwoSectionView(h), {1: 4.0, 2: 2.0})
        assert pred == {1: None, 2: None}

    def test_defined_sets_agree_between_routes(self):
        rng = random.Random(61)
        for _ in range(80):
            h = random_hypergraph(rng, max_n=10, max_k=8)
            ratings = {v: float(rng.randint(1, 5)) for v in h.vertices()}
            ph = forecast_hypergraph(h, ratings)
            pg = forecast_graph(TwoSectionView(h), ratings)
            defined_h = {v for v, p in ph.items() if p is not None}
            defined_g = {v for v, p in pg.items() if p is not None}
            assert defined_h == defined_g


class TestAverageError:
    def test_hand_value(self):
        h, ratings = hand_instance()
        pred = forecast_hypergraph(h, ratings)
        err = average_error(pred, ratings)
        assert err == (2.0 + 0.0 + 2.0) / 3

    def test_skips_undefined_entries(self):
        err = average_error({1: 3.0, 2: None}, {1: 5.0, 2: 1.0})
        assert err == 2.0

    def test_empty_evaluation_set(self):
        with pytest.raises(EmptyEvaluationSetError):
            average_error({1: None}, {1: 5.0})

    def test_evaluation_size(self):
        assert evaluation_size({1: 3.0, 2: None, 3: 1.0}) == 2

    def test_constant_ratings_forecast_perfectly(self):
        rng = random.Random(63)
        done = 0
        while done < 60:
            h = random_hypergraph(rng, max_n=8, max_k=6)
            const = rng.choice([1.0, 2.0, 3.0, 4.0, 5.0, 2.5])
            ratings = {v: const for v in h.vertices()}
            ph = forecast_hypergraph(h, ratings)
            if evaluation_size(ph) == 0:
                continue
            pg = forecast_graph(TwoSectionView(h), ratings)
            assert average_error(ph, ratings) == 0.0
            assert average_error(pg, ratings) == 0.0
            done += 1


class TestProperties:
    def test_predictions_stay_in_rating_hull(self):
        rng = random.Random(65)
        for _ in range(60):
            h = random_hypergraph(rng, max_n=10, max_k=8)
            if h.nhv == 0:
                continue
            ratings = {v: float(rng.randint(1, 5)) for v in h.vertices()}
            lo, hi = min(ratings.values()), max(ratings.values())
            for pred in (forecast_hypergraph(h, ratings), forecast_graph(TwoSectionView(h), ratings)):
                for p in pred.values():
                    if p is not None:
                        assert lo - 1e-9 <= p <= hi + 1e-9

    def test_size_two_hyperedges_make_routes_agree(self):
        rng = random.Random(67)
        done = 0
        while done < 40:
            n = rng.randint(2, 8)
            h = Hypergraph(n, 0)
            seen = set()
            for _ in range(rng.randint(1, 8)):
                u, v = rng.sample(range(1, n + 1), 2)
                if (min(u, v), max(u, v)) in seen:
                    continue
                seen.add((min(u, v), max(u, v)))
                h.add_hyperedge((u, v))
            ratings = {v: float(rng.randint(1, 5)) for v in h.vertices()}
            ph = forecast_hypergraph(h, ratings)
            pg = forecast_graph(TwoSectionView(h), ratings)
            for v in h.vertices():
                if ph[v] is None:
                    assert pg[v] is None
                else:
                    assert abs(ph[v] - pg[v]) < 1e-12
            done += 1
