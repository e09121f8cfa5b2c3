"""Rating forecasts from hypergraph and two-section neighborhoods.

Given a per-vertex rating table, each vertex gets up to two predicted
values:

* hypergraph route - average, over its incident hyperedges with at
  least two members, of the mean rating of the other members
* graph route - co-occurrence-weighted mean of its two-section
  neighbors' ratings

A vertex with no usable hyperedge (or no neighbor) gets None.
"""

from __future__ import annotations

from math import fsum
from operator import mul
from typing import Mapping

from .errors import DomainMismatchError, EmptyEvaluationSetError
from .hypercore import Hypergraph
from .views import Graph, TwoSectionView, neighbor_rows

__all__ = [
    "forecast_hypergraph",
    "forecast_graph",
    "average_error",
    "evaluation_size",
]

Predictions = dict[int, "float | None"]


def _check_ratings(ratings: Mapping[int, float], n: int) -> None:
    missing = [v for v in range(1, n + 1) if v not in ratings]
    if missing:
        raise DomainMismatchError(f"ratings missing for vertices {missing[:5]}")


def forecast_hypergraph(h: Hypergraph, ratings: Mapping[int, float]) -> Predictions:
    """Predict each vertex's rating from its hyperedge neighborhoods.

    Each hyperedge's member ratings are read once, and each member's
    leave-one-out mean is the ``fsum`` of the other ratings in member
    order.  A vertex averages its means in its incidence row's order.
    """
    _check_ratings(ratings, h.nhv)
    rating = ratings.__getitem__
    # Slot e holds hyperedge e's member -> leave-one-out mean, or None
    # below two members.
    loo: list[dict[int, float] | None] = [None]
    for members in h._he2v:
        m = len(members)
        if m < 2:
            loo.append(None)
            continue
        values = list(map(rating, members))
        means = [fsum(values[:i] + values[i + 1 :]) / (m - 1) for i in range(m)]
        loo.append(dict(zip(members, means)))
    out: Predictions = {}
    for u, row in enumerate(h._v2he, start=1):
        per_edge = [loo[e][u] for e in row if loo[e] is not None]
        out[u] = fsum(per_edge) / len(per_edge) if per_edge else None
    return out


def forecast_graph(g: Hypergraph | Graph, ratings: Mapping[int, float]) -> Predictions:
    """Predict each vertex's rating from its weighted neighbours.

    ``g`` is a graph, or a hypergraph standing for its two-section
    view.  Both sums run over the neighbour row in its own order.
    """
    graph = TwoSectionView(g) if isinstance(g, Hypergraph) else g
    rows = neighbor_rows(graph)
    _check_ratings(ratings, graph.n_nodes)
    rating = ratings.__getitem__
    out: Predictions = {}
    for u, nbrs in enumerate(rows, start=1):
        if not nbrs:
            out[u] = None
            continue
        weight = fsum(nbrs.values())
        out[u] = fsum(map(mul, map(rating, nbrs), nbrs.values())) / weight
    return out


def evaluation_size(predictions: Predictions) -> int:
    """Number of vertices with a defined prediction."""
    return sum(1 for p in predictions.values() if p is not None)


def average_error(predictions: Predictions, ratings: Mapping[int, float]) -> float:
    """Mean absolute error over the vertices with defined predictions."""
    errors = [
        abs(ratings[v] - p) for v, p in predictions.items() if p is not None
    ]
    if not errors:
        raise EmptyEvaluationSetError("no vertex received a defined prediction")
    return fsum(errors) / len(errors)
