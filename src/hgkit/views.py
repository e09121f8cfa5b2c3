"""Read-only graph views over a hypergraph, and the one protocol graph kernels read.

Every graph kernel reads a :class:`Graph`: ``n_nodes`` plus
``neighbors(v)``, a mapping of neighbour to edge weight.
:class:`BipartiteView` and :class:`TwoSectionView` derive each row on
demand from the dual incidence indexes and copy nothing;
:func:`materialize` freezes any graph into a :class:`MaterializedGraph`
that reads each row once, for a caller that runs several kernels.
:func:`upper_rows` is the one walk that visits each edge once.
"""

from __future__ import annotations

from collections import _count_elements
from itertools import chain
from typing import Iterable, Iterator, Mapping, Protocol, runtime_checkable

from .errors import UnknownNodeError, UnknownVertexError
from .hypercore import Hypergraph, check_id

__all__ = [
    "Graph",
    "BipartiteView",
    "TwoSectionView",
    "MaterializedGraph",
    "co_member_counts",
    "neighbor_rows",
    "upper_rows",
    "materialize",
]


@runtime_checkable
class Graph(Protocol):
    """A weighted graph on nodes 1..n_nodes, as every graph kernel reads it.

    ``neighbors(v)`` maps each neighbour of node v to the edge weight;
    kernels that sum weights do so in the row's iteration order.
    """

    n_nodes: int

    def neighbors(self, v: int) -> Mapping[int, float]: ...


def neighbor_rows(g: Graph) -> Iterator[Mapping[int, float]]:
    """Every node's neighbour row in node order, each read when reached.

    Raises ``TypeError`` at once for an object that is not a graph.
    """
    if not isinstance(g, Graph):
        raise TypeError(f"expected a weighted graph, got {type(g).__name__}")
    return map(g.neighbors, range(1, g.n_nodes + 1))


def upper_rows(g: Graph) -> Iterator[tuple[int, Mapping[int, float], list[int]]]:
    """``(u, row, higher)`` for u = 1..n ascending: u's row and its neighbours above u.

    ``higher`` keeps the row's order; its pairs (u, v) visit every edge once, at
    its lower endpoint.  Raises ``TypeError`` at once for an object that is not a graph.
    """
    rows = neighbor_rows(g)
    return ((u, row, [v for v in row if v > u]) for u, row in enumerate(rows, start=1))


def co_member_counts(rows: Iterable[Iterable[int]]) -> dict[int, int]:
    """How often each id occurs across ``rows``, keyed in first-seen order.

    The tally runs in C, in ``Counter``'s own counting loop, but fills a
    plain dict, so reading an absent id raises ``KeyError`` instead of
    giving 0.
    """
    counts: dict[int, int] = {}
    _count_elements(counts, chain.from_iterable(rows))
    return counts


class BipartiteView:
    """Incidence graph: vertices and hyperedges as two node classes.

    Node ids 1..n are the vertices, n+1..n+k stand for hyperedges 1..k.
    Vertex node v is adjacent to hyperedge node n+e iff v is a member
    of e.  Incidence weights are not part of this view: every edge
    weighs 1.
    """

    __slots__ = ("_h",)

    def __init__(self, h: Hypergraph) -> None:
        self._h = h

    @property
    def hypergraph(self) -> Hypergraph:
        return self._h

    @property
    def n_nodes(self) -> int:
        return self._h.nhv + self._h.nhe

    def neighbors(self, node: int) -> dict[int, int]:
        """Map of adjacent node -> 1; hyperedge nodes carry the n offset.

        Neighbours are keyed in the order the node's incidence row iterates.
        """
        h = self._h
        n = h.nhv
        check_id(node, n + h.nhe, UnknownNodeError, "bipartite node")
        if node <= n:
            return dict.fromkeys([n + e for e in h._v2he[node - 1]], 1)
        return dict.fromkeys(h._he2v[node - n - 1], 1)


class TwoSectionView:
    """Clique expansion: vertices are adjacent iff they share a hyperedge.

    The weight of edge (u, v) is the number of hyperedges containing
    both endpoints.  Hyperedges with fewer than two members contribute
    nothing; there are no self loops.
    """

    __slots__ = ("_h",)

    def __init__(self, h: Hypergraph) -> None:
        self._h = h

    @property
    def hypergraph(self) -> Hypergraph:
        return self._h

    @property
    def n_nodes(self) -> int:
        return self._h.nhv

    def neighbors(self, v: int) -> dict[int, int]:
        """Map of co-member vertex -> number of shared hyperedges.

        Co-members are keyed in first-seen order: v's hyperedges in its
        incidence row's order, each one's members in its own order.
        """
        h = self._h
        check_id(v, h.nhv, UnknownVertexError, "vertex")
        he2v = h._he2v
        counts = co_member_counts([he2v[e - 1] for e in h._v2he[v - 1]])
        counts.pop(v, None)
        return counts


class MaterializedGraph:
    """A graph frozen in memory: each neighbour row read once from a source graph.

    The rows are the source's own mappings, so their order and weights
    are the source's.  Pass one to every kernel of a command that would
    otherwise derive the same rows again.  No metadata survives.
    """

    __slots__ = ("n_nodes", "_rows")

    def __init__(self, g: Graph) -> None:
        self._rows = list(neighbor_rows(g))
        self.n_nodes = len(self._rows)

    def neighbors(self, v: int) -> Mapping[int, float]:
        check_id(v, self.n_nodes, UnknownNodeError, "node")
        return self._rows[v - 1]

    @property
    def edges(self) -> list[tuple[int, int, float]]:
        """Every edge once as (u, v, weight) with u < v, sorted ascending, weights as floats."""
        return [(u, v, float(row[v])) for u, row, higher in upper_rows(self) for v in sorted(higher)]


def materialize(view: Graph) -> MaterializedGraph:
    """Freeze any graph, a view included, into a MaterializedGraph."""
    return MaterializedGraph(view)
