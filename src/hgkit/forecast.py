"""Rating forecasts from hypergraph and two-section neighborhoods.

Given a per-vertex rating table, each vertex gets up to two predicted
values:

* hypergraph route - average, over its incident hyperedges with at
  least two members, of the mean rating of the other members
* graph route - weighted mean of its neighbors' ratings in a graph,
  such as the two-section view, whose weights count co-occurrences,
  or in the same graph packed as a :class:`CoMemberTable`

A vertex with no usable hyperedge (or no neighbor) gets None.
"""

from __future__ import annotations

from math import fsum
from operator import mul
from typing import Callable, Iterable, Mapping

from .errors import DomainMismatchError, EmptyEvaluationSetError
from .hypercore import Hypergraph
from .views import CoMemberTable, Graph, neighbor_rows

__all__ = [
    "forecast_hypergraph",
    "forecast_graph",
    "forecast_co_members",
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


def _weighted_means(
    rows: Iterable[tuple[Iterable[int], Iterable[float]]], rating: Callable[[int], float]
) -> Predictions:
    """Each row's weighted mean rating, or None for an empty row; rows are (neighbours, weights) in node order.

    Both sums take ``fsum`` over the row in its own order.  ``fsum``
    rounds the exact sum once, so any order of a row gives the same
    bits whenever no partial sum overflows.
    """
    out: Predictions = {}
    for u, (nbrs, weights) in enumerate(rows, start=1):
        if not weights:
            out[u] = None
            continue
        out[u] = fsum(map(mul, map(rating, nbrs), weights)) / fsum(weights)
    return out


def forecast_graph(g: Graph, ratings: Mapping[int, float]) -> Predictions:
    """Predict each vertex's rating from its weighted neighbours in graph ``g``.

    For a hypergraph, pass its ``TwoSectionView``.  Both sums run over
    the neighbour row in its own order.
    """
    rows = neighbor_rows(g)
    _check_ratings(ratings, g.n_nodes)
    return _weighted_means(((nbrs, nbrs.values()) for nbrs in rows), ratings.__getitem__)


def forecast_co_members(table: CoMemberTable, ratings: Mapping[int, float]) -> Predictions:
    """``forecast_graph`` over the two-section graph packed in ``table``, read straight from its slices.

    The predictions are those of ``forecast_graph(TwoSectionView(h),
    ratings)`` for the hypergraph h that ``table`` packs, bit for bit,
    whenever no partial sum overflows.
    """
    _check_ratings(ratings, table.n_nodes)
    # The table's ids are 1..n, and a list indexed by vertex reads faster than a mapping.
    rating = [0.0, *map(ratings.__getitem__, range(1, table.n_nodes + 1))]
    return _weighted_means(table.rows(), rating.__getitem__)


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
