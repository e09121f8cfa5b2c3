"""Read-only graph views over a hypergraph, and the one protocol graph kernels read.

Every graph kernel reads a :class:`Graph`, whole-graph kernels through
:func:`graph_rows`.  :class:`BipartiteView` and :class:`TwoSectionView`
derive each row on demand from the dual incidence indexes and copy
nothing.  :class:`CoMemberTable` is the frozen two-section graph: it
packs the graph into three flat arrays of ints, serves its rows as
slices of them, and gives the load cache their bytes; it is made by
:func:`co_member_tallies`, the walk that ``s_adjacency`` also reads.
These three and ``SAdjacency`` have ``rows()``, which their classes
also hold as the private ``_trusted_rows``; kernels look that up on
``type(g)``, never on the instance, and read its rows unchecked, so a
``CoMemberTable`` built from a caller's own arrays is the caller's to
get right.  A caller's graph needs only ``n_nodes`` and ``neighbors``,
and every kernel refuses its row ids that are not ints in 1..n_nodes,
such as ``1.5``, ``"2"`` or ``True``, a ``rows`` attribute or not.
"""

from __future__ import annotations

from array import array
from collections import _count_elements
from itertools import chain, islice
from typing import Callable, Collection, Iterable, Iterator, Mapping, Protocol, Sequence, runtime_checkable

from .errors import UnknownNodeError, UnknownVertexError
from .hypercore import Hypergraph, check_int, check_ints

__all__ = [
    "Graph",
    "BipartiteView",
    "TwoSectionView",
    "CoMemberTable",
    "co_member_counts",
    "co_member_tallies",
    "graph_rows",
]


@runtime_checkable
class Graph(Protocol):
    """A weighted graph on nodes 1..n_nodes, as every graph kernel reads it.

    ``neighbors(v)`` maps each neighbour of node v, an int id in
    1..n_nodes, to the edge weight, summed in the row's order.  A
    caller's graph needs only these two members, and kernels refuse its
    row ids that are not such ints.  hgkit's own graphs also have
    ``rows()``, each node's (neighbours, weights) pair in node order,
    each pair in its ``neighbors`` row's order, which kernels read
    unchecked through ``type(g)._trusted_rows``.
    """

    n_nodes: int

    def neighbors(self, v: int) -> Mapping[int, float]: ...


def _check_graph(g: object) -> None:
    if not isinstance(g, Graph):
        raise TypeError(f"expected a weighted graph, got {type(g).__name__}")


def graph_rows(g: Graph) -> Iterator[tuple[Collection[int], Collection[float]]]:
    """Every node's (neighbours, weights) pair in node order, each read when reached.

    The pairs are ``type(g)._trusted_rows(g)``, or else each checked
    ``neighbors`` row with its ``values()``; a non-graph raises ``TypeError``.
    """
    _check_graph(g)
    if hasattr(type(g), "_trusted_rows"):
        return type(g)._trusted_rows(g)
    return ((row, row.values()) for row in map(_checked_neighbors(g), range(1, g.n_nodes + 1)))


def _checked_neighbors(g: Graph) -> Callable[[int], Mapping[int, float]]:
    """``g.neighbors`` as kernels read it: unless ``g``'s class has ``_trusted_rows``, a row naming anything but an int in 1..n_nodes raises ``UnknownNodeError``."""
    if hasattr(type(g), "_trusted_rows"):
        return g.neighbors
    n = g.n_nodes

    def neighbors(v: int) -> Mapping[int, float]:
        row = g.neighbors(v)
        check_ints(row, 1, n, UnknownNodeError, "neighbour")
        return row

    return neighbors


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


class _View:
    """A graph whose rows are derived on demand from a live hypergraph's incidence indexes."""

    __slots__ = ("_h",)

    def __init__(self, h: Hypergraph) -> None:
        self._h = h

    @property
    def hypergraph(self) -> Hypergraph:
        return self._h

    def rows(self) -> Iterator[tuple[Mapping[int, int], Collection[int]]]:
        """Each node's ``neighbors`` row and its ``values()``, in node order."""
        return ((row, row.values()) for row in map(self.neighbors, range(1, self.n_nodes + 1)))

    _trusted_rows = rows


class BipartiteView(_View):
    """Incidence graph: vertices and hyperedges as two node classes.

    Node ids 1..n are the vertices, n+1..n+k stand for hyperedges 1..k.
    Vertex node v is adjacent to hyperedge node n+e iff v is a member
    of e.  Incidence weights are not part of this view: every edge
    weighs 1.
    """

    __slots__ = ()

    @property
    def n_nodes(self) -> int:
        return self._h.nhv + self._h.nhe

    def neighbors(self, node: int) -> dict[int, int]:
        """Map of adjacent node -> 1; hyperedge nodes carry the n offset.

        Neighbours are keyed in the order the node's incidence row iterates.
        """
        h = self._h
        n = h.nhv
        check_int(node, 1, n + h.nhe, UnknownNodeError, "bipartite node")
        if node <= n:
            return dict.fromkeys([n + e for e in h._v2he[node - 1]], 1)
        return dict.fromkeys(h._he2v[node - n - 1], 1)


class TwoSectionView(_View):
    """Clique expansion: vertices are adjacent iff they share a hyperedge.

    The weight of edge (u, v) is the number of hyperedges containing
    both endpoints.  Hyperedges with fewer than two members contribute
    nothing; there are no self loops.
    """

    __slots__ = ()

    @property
    def n_nodes(self) -> int:
        return self._h.nhv

    def neighbors(self, v: int) -> dict[int, int]:
        """Map of co-member vertex -> number of shared hyperedges.

        Co-members are keyed in first-seen order: v's hyperedges in its
        incidence row's order, each one's members in its own order.
        """
        h = self._h
        check_int(v, 1, h.nhv, UnknownVertexError, "vertex")
        he2v = h._he2v
        counts = co_member_counts([he2v[e - 1] for e in h._v2he[v - 1]])
        counts.pop(v, None)
        return counts


class CoMemberTable:
    """The two-section graph of a hypergraph packed into three flat sequences of ints.

    Node v's neighbours are ``ids[ends[v-1]:ends[v]]`` and its edge
    weights, the numbers of hyperedges shared, are ``counts`` over the
    same slice, in :func:`co_member_tallies`' order: ascending first
    shared hyperedge, then ascending id.  So ``s_adjacency`` is one
    filter of the table, and a kernel that weighs a row in any order
    gets the ``TwoSectionView``'s result whenever its sums of integer
    weights are exact.  The sequences are taken as they are: the
    arrays of :meth:`of`, or the memoryviews of :meth:`from_payload`.
    """

    __slots__ = ("n_nodes", "ids", "counts", "ends")

    def __init__(self, ids: Sequence[int], counts: Sequence[int], ends: Sequence[int]) -> None:
        self.ids, self.counts, self.ends = ids, counts, ends
        self.n_nodes = len(ends) - 1

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

    def payload(self) -> tuple[str, bytes, bytes, bytes]:
        """The typecodes of the ids, counts and ends, then the bytes of each, as :meth:`from_payload` reads them."""
        views = [memoryview(a) for a in (self.ids, self.counts, self.ends)]
        return ("".join([v.format for v in views]), *[v.tobytes() for v in views])

    @classmethod
    def from_payload(cls, payload: object) -> "CoMemberTable | None":
        """The table cast over the bytes of a :meth:`payload`, or None for any other shape."""
        if type(payload) is not tuple or len(payload) != 4 or type(payload[0]) is not str or len(payload[0]) != 3:
            return None
        codes, *blobs = payload
        if not set(codes) <= set("BHIQ") or any(type(b) is not bytes for b in blobs):
            return None
        try:
            ids, counts, ends = [memoryview(b).cast(c) for c, b in zip(codes, blobs)]
        except TypeError:  # a length that is not a whole number of items
            return None
        if len(ids) != len(counts) or not ends or ends[0] != 0 or ends[-1] != len(ids):
            return None
        return cls(ids, counts, ends)

    def rows(self) -> Iterator[tuple[Sequence[int], Sequence[int]]]:
        """Each node's (neighbours, counts) slices, in node order."""
        ids, counts, ends = self.ids, self.counts, self.ends
        return ((ids[a:b], counts[a:b]) for a, b in zip(ends, islice(ends, 1, None)))

    _trusted_rows = rows

    def neighbors(self, v: int) -> dict[int, int]:
        """Map of co-member vertex -> number of shared hyperedges, keyed in the table's order."""
        check_int(v, 1, self.n_nodes, UnknownVertexError, "vertex")
        a, b = self.ends[v - 1], self.ends[v]
        return dict(zip(self.ids[a:b], self.counts[a:b]))
