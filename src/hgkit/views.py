"""Read-only graph views over a hypergraph, and the one protocol graph kernels read.

Every graph kernel reads a :class:`Graph`: ``n_nodes`` plus
``neighbors(v)``, a mapping of neighbour to edge weight.
:class:`BipartiteView` and :class:`TwoSectionView` derive each row on
demand from the dual incidence indexes and copy nothing;
:func:`materialize` freezes any graph into a :class:`MaterializedGraph`
that reads each row once, for a caller that runs several kernels.
:class:`CoMemberTable` packs the two-section graph into three flat
arrays of ints, which the CLI's load cache stores as bytes; it is made
by :func:`co_member_tallies`, the walk that ``s_adjacency`` also reads.
:func:`upper_rows` is the one walk that visits each edge once.
"""

from __future__ import annotations

from array import array
from collections import _count_elements
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Mapping, Protocol, Sequence, runtime_checkable

from .errors import UnknownNodeError, UnknownVertexError
from .hypercore import Hypergraph, check_id

__all__ = [
    "Graph",
    "BipartiteView",
    "TwoSectionView",
    "MaterializedGraph",
    "CoMemberTable",
    "co_member_counts",
    "co_member_tallies",
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


def co_member_tallies(h: Hypergraph, s: int = 1) -> Iterator[dict[int, int]]:
    """Each vertex's co-members and the number of hyperedges it shares with each, vertex by vertex.

    Vertex u tallies the members of its hyperedges in ascending hyperedge
    id, each one's members in ascending id, so its co-members are keyed
    in the order (first shared hyperedge id, co-member id); u itself is
    left out.  A vertex of degree below ``s`` shares fewer than ``s``
    hyperedges with anyone and yields an empty dict without a walk.
    Cost is the sum over hyperedges of size squared (each pair is
    tallied from both ends); memory beyond the tally being yielded is
    the sorted member lists, and no table of all co-occurring pairs is
    ever built.
    """
    members: list[list[int] | None] = [sorted(col) for col in h._he2v]
    for u, row in enumerate(h._v2he, start=1):
        if len(row) < s or not row:
            yield {}
            continue
        edges = sorted(row)
        tally = co_member_counts([members[e - 1] for e in edges])
        del tally[u]
        yield tally
        # No later vertex reads a hyperedge whose highest member is u,
        # so its list is dropped as the walk goes.
        for e in edges:
            if members[e - 1][-1] == u:
                members[e - 1] = None


def _typecode(largest: int) -> str:
    """The narrowest unsigned ``array`` type among B, H, I and Q that holds 0..largest."""
    return next(code for code in "BHIQ" if largest >> 8 * array(code).itemsize == 0)


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
    """A graph frozen in memory: one neighbour row per node, row v-1 being node v's.

    The rows are taken as they are: no copy, no check.  :func:`materialize`
    reads them once from a source graph, so their order and weights are the
    source's; pass the result to every kernel of a command that would
    otherwise derive the same rows again.  No metadata survives.
    """

    __slots__ = ("n_nodes", "_rows")

    def __init__(self, rows: list[Mapping[int, float]]) -> None:
        self._rows = rows
        self.n_nodes = len(rows)

    def neighbors(self, v: int) -> Mapping[int, float]:
        check_id(v, self.n_nodes, UnknownNodeError, "node")
        return self._rows[v - 1]

    @property
    def edges(self) -> list[tuple[int, int, float]]:
        """Every edge once as (u, v, weight) with u < v, sorted ascending, weights as floats."""
        return [(u, v, float(row[v])) for u, row, higher in upper_rows(self) for v in sorted(higher)]


class CoMemberTable:
    """The two-section graph of a hypergraph packed into three flat sequences of ints.

    Node v's neighbours are ``ids[ends[v-1]:ends[v]]`` and its edge
    weights, the numbers of hyperedges shared, are ``counts`` over the
    same slice, in :func:`co_member_tallies`' order: ascending first
    shared hyperedge, then ascending id.  So ``s_adjacency`` is one
    filter of the table, and a kernel that weighs a row in any order
    gets the ``TwoSectionView``'s result whenever its sums of integer
    weights are exact.  The sequences are taken as they are: the
    arrays of :meth:`of`, or memoryviews cast over their bytes.
    """

    __slots__ = ("n_nodes", "ids", "counts", "ends", "_node")

    def __init__(self, ids: Sequence[int], counts: Sequence[int], ends: Sequence[int]) -> None:
        self.ids, self.counts, self.ends = ids, counts, ends
        self.n_nodes = len(ends) - 1
        self._node: Callable[[int], int] | None = None

    @classmethod
    def of(cls, h: Hypergraph) -> "CoMemberTable":
        """Pack ``h``'s co-member tallies, each array in the narrowest type that fits the input.

        Ids fit 1..n, counts the largest degree, which bounds every
        count, and ends the number of entries.
        """
        ids = array(_typecode(h.nhv))
        counts = array(_typecode(max(map(len, h._v2he), default=0)))
        ends = array("Q", [0])
        # fromlist converts a list's items faster than extend iterates a dict.
        for tally in co_member_tallies(h):
            if tally:
                ids.fromlist(list(tally))
                counts.fromlist(list(tally.values()))
            ends.append(len(ids))
        return cls(ids, counts, array(_typecode(len(ids)), ends))

    def rows(self) -> Iterator[tuple[Sequence[int], Sequence[int]]]:
        """Each node's (neighbours, counts) slices, in node order."""
        ids, counts, ends = self.ids, self.counts, self.ends
        return ((ids[a:b], counts[a:b]) for a, b in zip(ends, islice(ends, 1, None)))

    def neighbors(self, v: int) -> dict[int, int]:
        """Map of co-member vertex -> number of shared hyperedges, keyed in the table's order.

        Every row read keys its dict with the same int object per vertex,
        so rows held together cost what a hypergraph's rows cost.
        """
        check_id(v, self.n_nodes, UnknownVertexError, "vertex")
        if self._node is None:
            self._node = list(range(self.n_nodes + 1)).__getitem__
        a, b = self.ends[v - 1], self.ends[v]
        return dict(zip(map(self._node, self.ids[a:b]), self.counts[a:b]))


def materialize(view: Graph) -> MaterializedGraph:
    """Freeze any graph, a view included, into a MaterializedGraph."""
    return MaterializedGraph(list(neighbor_rows(view)))
