"""Overlap-threshold adjacency, shortest paths, betweenness, correlation.

Two vertices are s-adjacent when they share at least s hyperedges.
Distances and betweenness below are computed on that graph with unit
hop lengths; geodesic counts are exact integers.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from functools import reduce
from itertools import compress
from operator import itemgetter, or_

from .errors import (
    DomainMismatchError,
    InvalidSError,
    UnknownNodeError,
    UnknownVertexError,
    ZeroVarianceError,
)
from .hypercore import Hypergraph, check_int
from .views import CoMemberTable, Graph, _check_graph, _checked_neighbors, co_member_tallies

__all__ = [
    "ranked",
    "SAdjacency",
    "s_adjacency",
    "s_shortest_path_length",
    "s_betweenness",
    "pearson",
]


class SAdjacency:
    """Unit-weight :class:`Graph` over a hypergraph's vertices, joining those that share at least s hyperedges.

    Row ``_nbrs[v-1]`` is v's s-neighbours: the tuple, in its order, that ``_brandes`` reads.
    """

    def __init__(self, s: int, n_nodes: int, _nbrs: list[tuple[int, ...]]) -> None:
        self.s, self.n_nodes, self._nbrs = s, n_nodes, _nbrs

    def neighbors(self, v: int) -> dict[int, int]:
        """Map of s-neighbour -> 1, keyed in the order of v's row."""
        check_int(v, 1, self.n_nodes, UnknownVertexError, "vertex")
        return dict.fromkeys(self._nbrs[v - 1], 1)

    def rows(self) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Each node's (s-neighbours, unit weights) pair, in node order."""
        return ((row, (1,) * len(row)) for row in self._nbrs)

    _trusted_rows = rows

    def edges(self) -> list[tuple[int, int]]:
        out = [
            (u, v)
            for u in range(1, self.n_nodes + 1)
            for v in self._nbrs[u - 1]
            if u < v
        ]
        out.sort()
        return out


def s_adjacency(h: Hypergraph, s: int = 1, table: CoMemberTable | None = None) -> SAdjacency:
    """Build the s-adjacency graph: each vertex keeps the co-members it shares at least s hyperedges with.

    The co-members and counts come from ``co_member_tallies(h, s)``,
    vertex by vertex, so memory beyond the result is one vertex's tally
    plus the sorted member lists.  ``table``, h's :class:`CoMemberTable`
    held from an earlier walk, replaces the walk with one filter of its
    rows, in the same order, with the same result.

    Each row is the tuple of a set that received the s-neighbours in the
    walk's order (first shared hyperedge id, partner id), one at a time
    from an iterator: the set's iteration order fixes the row's order and
    therefore the exact floating-point betweenness scores.  Building the
    set from the tally dict would presize its table and reorder it.  A
    vertex without s-neighbours gets the empty tuple, which all share.
    """
    check_int(s, 1, None, InvalidSError, "s")
    at_least_s = s.__le__
    if table is None:
        nbrs = [tuple(set(compress(tally, map(at_least_s, tally.values())))) for tally in co_member_tallies(h, s)]
    elif table.n_nodes != h.nhv:
        raise DomainMismatchError(f"co-member table of {table.n_nodes} vertices given for {h.nhv}")
    else:
        # The rows hold one int object per vertex, as the walk's rows hold h's.
        node = list(range(h.nhv + 1)).__getitem__
        nbrs = [tuple(set(map(node, compress(ids, map(at_least_s, counts))))) for ids, counts in table.rows()]
    return SAdjacency(s=s, n_nodes=h.nhv, _nbrs=nbrs)


def s_shortest_path_length(g: Graph, u: int, v: int) -> int | None:
    """Hop count of a shortest u-v path in a graph; edge weights are not read.

    For the s-adjacency graph of a hypergraph, pass ``s_adjacency(h, s)``.
    Returns 0 for u == v and None when no path exists.  A non-graph
    raises ``TypeError``, and a u, v or row id that is not an int in
    1..n_nodes :class:`UnknownNodeError`.
    """
    _check_graph(g)
    check_int(u, 1, g.n_nodes, UnknownNodeError, "node")
    check_int(v, 1, g.n_nodes, UnknownNodeError, "node")
    if u == v:
        return 0
    neighbors = _checked_neighbors(g)
    dist = {u: 0}
    order = [u]
    for x in order:
        dy = dist[x] + 1
        for y in neighbors(x):
            if y not in dist:
                if y == v:
                    return dy
                dist[y] = dy
                order.append(y)
    return None


# A component is dense when its edge density 2m / (c (c - 1)) is at least
# 1 / _DENSE_RECIPROCAL; see _brandes for the measurements behind it.
_DENSE_RECIPROCAL = 10


def _dense_masks(adj: list[tuple[int, ...]]) -> tuple[list[int], list[int], list[int]]:
    """Component-local bitsets for the vertices of dense components.

    One pass labels the connected components of ``adj`` (slot 0
    unused).  Each component whose density reaches 1 / _DENSE_RECIPROCAL
    numbers its vertices from 0 in discovery order, and each of them
    gets ``bit[v] = 1 << local`` and ``mask[v]``, the OR of its
    neighbours' bits; ``whole[v]`` is the component's own vertex mask.
    Vertices of sparse components, and isolated ones, keep 0 in all
    three.  The density test is exact integer arithmetic.
    """
    n = len(adj) - 1
    bit = [0] * (n + 1)
    mask = [0] * (n + 1)
    whole = [0] * (n + 1)
    seen = [False] * (n + 1)
    for root in range(1, n + 1):
        if seen[root] or not adj[root]:
            continue
        seen[root] = True
        comp = [root]
        for x in comp:
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
        c = len(comp)
        if sum(len(adj[x]) for x in comp) * _DENSE_RECIPROCAL < c * (c - 1):
            continue
        for i, x in enumerate(comp):
            bit[x] = 1 << i
        full = (1 << c) - 1
        for x in comp:
            mask[x] = sum(map(bit.__getitem__, adj[x]))
            whole[x] = full
    return bit, mask, whole


def _brandes(nbrs: list[tuple[int, ...]]) -> dict[int, float]:
    """Unnormalized betweenness over unordered pairs (unit edge lengths).

    Standard two-pass accumulation: a BFS builds shortest-path counts,
    then dependencies fold back in reverse BFS order.  The ordered-pair
    totals are halved at the end because the graph is undirected.

    ``adj`` holds the rows of ``nbrs`` themselves, uncopied and each in
    its own order, indexed by vertex id (slot 0 an empty row), and
    ``dist``/``sigma``/``delta`` are flat lists of the same shape, reset
    after each source only where its BFS reached.  The BFS order list is
    also the queue, and the back pass finds a vertex's predecessors by
    scanning its neighbours for ``dist`` one less, so no predecessor
    lists are built.  BFS order and the order in which each ``delta``
    entry receives its terms match a dict-keyed implementation with
    predecessor lists, so every score is bit-identical to it.

    The forward pass is chosen per connected component.  A sparse one
    keeps the plain queue loop, which reads every adjacency entry of
    every reached vertex.  In a dense one (density 2m / (c (c - 1)) at
    least 1 / _DENSE_RECIPROCAL, see ``_dense_masks``) most of those
    reads land on vertices already found, so the pass runs level by
    level on component-local bitsets:

    - level 1 is the source's adjacency list as it stands, every
      ``sigma`` 1, which is what the plain loop appends first;
    - the next level's still-undiscovered vertices are the OR of the
      frontier's neighbour masks minus everything found so far;
    - the frontier is scanned in BFS order; a scanned vertex appends the
      undiscovered vertices among its neighbours in its own adjacency
      order, as the plain loop does, and they leave the undiscovered
      set.  A vertex whose mask misses that set is skipped, and the
      scan ends once the set is empty.  The plain loop appends a
      neighbour only when it discovers it, so it would append nothing
      for a skipped vertex, and ``order`` and ``dist`` are the same;
    - each new vertex's ``sigma`` is the sum, over the frontier's
      distinct ``sigma`` values s, of s times the number of its
      neighbours on the frontier with that value.  That is the plain
      loop's sum over its predecessors, exact in integers, so
      ``sigma`` is the same too;
    - the pass stops when the whole component is found.

    The back pass reads only ``order``, ``dist``, ``sigma`` and the
    adjacency lists, so its floats are the same on both paths.

    The constant splits the measured cases with room on both sides.
    The benchmark's scene hypergraph (seed 1) at s = 2 falls into 110
    components of 50 to 150 vertices at density 0.195 to 0.82; there
    the bitset pass takes Brandes from 1.32 s to 0.80 s of CPU (median
    of 7 in-process runs).  The desk-scale acceptance graph at s = 1 is
    one 1,959-vertex component at density 0.004, where a bitset pass
    costs more than the adjacency reads it saves (15.7 s of CPU against
    6.6 s, median of 3 interleaved runs), so it keeps the plain loop.
    Components of 2 to 4 vertices, as in review hypergraphs at s = 2,
    are dense and cost little either way.

    The back pass stops short of the distance-1 vertices, which are
    ``order[1:len(adj[src]) + 1]`` because an s-adjacency graph has no
    loops.  Their only predecessor is ``src``, whose ``delta`` is never
    read, so scanning their neighbours would only feed ``delta[src]``.
    Skipping them keeps every score bit-identical:

    - every ``delta[x]`` that is read still receives the same terms in
      the same order, since a distance-1 vertex gets all of its terms
      from farther vertices, which are still walked;
    - every ``bc[y]`` still receives one term per source, in source
      order, since the distance-1 vertices add their ``delta`` to
      ``bc`` right after the shortened pass.
    """
    n = len(nbrs)
    adj = [(), *nbrs]
    bit, mask, whole = _dense_masks(adj)
    bc = [0.0] * (n + 1)
    dist = [-1] * (n + 1)
    sigma = [0] * (n + 1)
    delta = [0.0] * (n + 1)
    for src in range(1, n + 1):
        if not adj[src]:
            continue
        dist[src] = 0
        sigma[src] = 1
        order = [src]
        if bit[src]:
            # Dense component: level by level on bitsets (see above).
            order += adj[src]
            for y in adj[src]:
                dist[y] = 1
                sigma[y] = 1
            found, full = bit[src] | mask[src], whole[src]
            start = dy = 1
            while found != full:
                frontier = order[start:]
                start = len(order)
                new = reduce(or_, map(mask.__getitem__, frontier)) & ~found
                found |= new
                dy += 1
                for x in frontier:
                    hits = mask[x] & new
                    if hits:
                        for y in adj[x]:
                            if bit[y] & hits:
                                dist[y] = dy
                                order.append(y)
                        new ^= hits
                        if not new:
                            break
                groups: dict[int, int] = {}
                for x in frontier:
                    sx = sigma[x]
                    groups[sx] = groups.get(sx, 0) | bit[x]
                if len(groups) == 1:
                    # One count on the whole frontier, as at every level 2.
                    [(sx, group)] = groups.items()
                    for y in order[start:]:
                        sigma[y] = sx * (mask[y] & group).bit_count()
                else:
                    for y in order[start:]:
                        my = mask[y]
                        sigma[y] = sum([sx * (my & g).bit_count() for sx, g in groups.items()])
        else:
            for x in order:
                dy = dist[x] + 1
                sx = sigma[x]
                for y in adj[x]:
                    d = dist[y]
                    if d < 0:
                        dist[y] = dy
                        sigma[y] = sx
                        order.append(y)
                    elif d == dy:
                        sigma[y] += sx
        near = len(adj[src])
        for y in order[:near:-1]:
            dx = dist[y] - 1
            sy = sigma[y]
            coeff = 1.0 + delta[y]
            for x in adj[y]:
                if dist[x] == dx:
                    delta[x] += (sigma[x] / sy) * coeff
            bc[y] += delta[y]
        for y in order[1 : near + 1]:
            bc[y] += delta[y]
        for y in order:
            dist[y] = -1
            delta[y] = 0.0
    return {v: bc[v] / 2.0 for v in range(1, n + 1)}


def s_betweenness(h: Hypergraph, s: int = 1, table: CoMemberTable | None = None) -> dict[int, float]:
    """Betweenness of every vertex in the s-adjacency graph, keyed 1..n in ascending order.

    Unordered vertex pairs count once; pairs with no connecting path
    contribute nothing.  Vertices isolated at threshold s score 0.
    ``table`` is passed on to :func:`s_adjacency`.
    """
    adj = s_adjacency(h, s, table)
    del table  # not read again: its memory goes before Brandes runs
    return _brandes(adj._nbrs)


def ranked(scores: Mapping[int, float], k: int | None = None) -> list[tuple[int, float]]:
    """The (id, score) items of ``scores`` best first: score descending, ties by ascending id.

    A sort by id, then a stable sort by score alone (``0.0`` ties with
    ``-0.0``).  For an int ``k``, the first k of that list; ``k <= 0``
    gives ``[]``.
    """
    by_id = sorted(scores.items(), key=itemgetter(0))
    return sorted(by_id, key=itemgetter(1), reverse=True)[: None if k is None else max(k, 0)]


def pearson(xs: Mapping[int, float], ys: Mapping[int, float]) -> float:
    """Pearson correlation of two score vectors over the same vertex set."""
    if set(xs) != set(ys):
        raise DomainMismatchError("score vectors cover different vertex sets")
    keys = sorted(xs)
    if len(keys) < 2:
        raise ZeroVarianceError("correlation needs at least two vertices")
    import statistics  # kept off the import of every CLI command

    try:
        return statistics.correlation([xs[k] for k in keys], [ys[k] for k in keys])
    except statistics.StatisticsError as exc:
        raise ZeroVarianceError(str(exc)) from None
