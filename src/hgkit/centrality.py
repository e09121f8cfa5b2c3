"""Overlap-threshold adjacency, shortest paths, betweenness, correlation.

Two vertices are s-adjacent when they share at least s hyperedges.
Distances and betweenness below are computed on that graph with unit
hop lengths; geodesic counts are exact integers.
"""

from __future__ import annotations

from collections import deque
from functools import reduce
from operator import or_
from typing import Mapping

from .errors import (
    DomainMismatchError,
    InvalidSError,
    UnknownVertexError,
    ZeroVarianceError,
)
from .hypercore import Hypergraph, check_id, check_int
from .views import co_member_counts

__all__ = [
    "CentralityVector",
    "SAdjacency",
    "s_adjacency",
    "s_shortest_path_length",
    "s_betweenness",
    "pearson",
]


class CentralityVector:
    """Per-vertex scores with a fixed ranking rule: score desc, id asc."""

    def __init__(self, scores: dict[int, float]) -> None:
        self.scores = scores

    def __getitem__(self, v: int) -> float:
        return self.scores[v]

    def ranked(self) -> list[tuple[int, float]]:
        return sorted(self.scores.items(), key=lambda item: (-item[1], item[0]))

    def top(self, k: int) -> list[tuple[int, float]]:
        return self.ranked()[: max(k, 0)]


class SAdjacency:
    """Unweighted graph over the vertices of a hypergraph at threshold s."""

    def __init__(self, s: int, n: int, _nbrs: list[set[int]]) -> None:
        self.s, self.n, self._nbrs = s, n, _nbrs

    def neighbors(self, v: int) -> set[int]:
        check_id(v, self.n, UnknownVertexError, "vertex")
        return set(self._nbrs[v - 1])

    def edges(self) -> list[tuple[int, int]]:
        out = [
            (u, v)
            for u in range(1, self.n + 1)
            for v in self._nbrs[u - 1]
            if u < v
        ]
        out.sort()
        return out


def s_adjacency(h: Hypergraph, s: int = 1) -> SAdjacency:
    """Build the s-adjacency graph by counting co-memberships per vertex.

    Each vertex u of degree at least s tallies its partners over its
    hyperedges, in ascending hyperedge id and then ascending partner id,
    and keeps those it shares at least s hyperedges with.  Vertices of
    degree below s have no s-neighbours and are skipped.  Cost is the
    sum over hyperedges of size squared (each pair is tallied from both
    ends); memory beyond the result is one vertex's tally plus the
    sorted member lists, and no table of all co-occurring pairs is ever
    built.

    Every neighbour set receives its members in the order (first shared
    hyperedge id, partner id), which fixes the sets' iteration order and
    therefore the exact floating-point betweenness scores.  Each set is
    built from a list, which inserts one element at a time; building it
    from the tally dict would presize its table and reorder it.
    """
    check_int(s, 1, None, InvalidSError, "s")
    members: list[list[int] | None] = [sorted(col) for col in h._he2v]
    nbrs: list[set[int]] = []
    for u, row in enumerate(h._v2he, start=1):
        if len(row) < s:
            nbrs.append(set())
            continue
        edges = sorted(row)
        tally = co_member_counts([members[e - 1] for e in edges])
        del tally[u]
        nbrs.append(set([v for v, c in tally.items() if c >= s]))
        # No later vertex reads a hyperedge whose highest member is u,
        # so its list is dropped while the result grows.
        for e in edges:
            if members[e - 1][-1] == u:
                members[e - 1] = None
    return SAdjacency(s=s, n=h.nhv, _nbrs=nbrs)


def s_shortest_path_length(
    g: Hypergraph | SAdjacency, u: int, v: int, s: int | None = None
) -> int | None:
    """Hop count of a shortest u-v path in the s-adjacency graph.

    Accepts either a hypergraph, whose adjacency is built at threshold
    ``s`` (1 when omitted), or a prebuilt :class:`SAdjacency`, which
    already fixes its threshold: an omitted ``s`` means ``adj.s``, and
    an explicit one must equal it, or :class:`InvalidSError` is raised
    rather than answering for a threshold the graph was not built at.
    Returns 0 for u == v and None when no path exists.
    """
    if isinstance(g, Hypergraph):
        adj = s_adjacency(g, 1 if s is None else s)
    else:
        adj = g
        if s is not None:
            check_int(s, 1, None, InvalidSError, "s")
            if s != adj.s:
                raise InvalidSError(f"s={s} does not match the adjacency's s={adj.s}")
    check_id(u, adj.n, UnknownVertexError, "vertex")
    check_id(v, adj.n, UnknownVertexError, "vertex")
    if u == v:
        return 0
    dist = {u: 0}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for y in adj._nbrs[x - 1]:
            if y not in dist:
                dist[y] = dist[x] + 1
                if y == v:
                    return dist[y]
                queue.append(y)
    return None


# A component is dense when its edge density 2m / (c (c - 1)) is at least
# 1 / _DENSE_RECIPROCAL; see _brandes for the measurements behind it.
_DENSE_RECIPROCAL = 10


def _dense_masks(adj: list[list[int]]) -> tuple[list[int], list[int], list[int]]:
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


def _brandes(nbrs: list[set[int]]) -> dict[int, float]:
    """Unnormalized betweenness over unordered pairs (unit edge lengths).

    Standard two-pass accumulation: a BFS builds shortest-path counts,
    then dependencies fold back in reverse BFS order.  The ordered-pair
    totals are halved at the end because the graph is undirected.

    Adjacency is copied into lists indexed by vertex id (slot 0 unused)
    in each set's own iteration order, and ``dist``/``sigma``/``delta``
    are flat lists of the same shape, reset after each source only where
    its BFS reached.  The BFS order list is also the queue, and the back
    pass finds a vertex's predecessors by scanning its neighbours for
    ``dist`` one less, so no predecessor lists are built.  BFS order and
    the order in which each ``delta`` entry receives its terms match a
    dict-keyed implementation with predecessor lists, so every score is
    bit-identical to it.

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
    adj: list[list[int]] = [[]] + [list(s) for s in nbrs]
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


def s_betweenness(h: Hypergraph, s: int = 1) -> CentralityVector:
    """Betweenness of every vertex in the s-adjacency graph.

    Unordered vertex pairs count once; pairs with no connecting path
    contribute nothing.  Vertices isolated at threshold s score 0.
    """
    adj = s_adjacency(h, s)
    return CentralityVector(_brandes(adj._nbrs))


def _as_scores(x: CentralityVector | Mapping[int, float]) -> Mapping[int, float]:
    return x.scores if isinstance(x, CentralityVector) else x


def pearson(
    xs: CentralityVector | Mapping[int, float],
    ys: CentralityVector | Mapping[int, float],
) -> float:
    """Pearson correlation of two score vectors over the same vertex set."""
    sx, sy = _as_scores(xs), _as_scores(ys)
    if set(sx) != set(sy):
        raise DomainMismatchError("score vectors cover different vertex sets")
    keys = sorted(sx)
    if len(keys) < 2:
        raise ZeroVarianceError("correlation needs at least two vertices")
    import statistics  # kept off the import of every CLI command

    try:
        return statistics.correlation([sx[k] for k in keys], [sy[k] for k in keys])
    except statistics.StatisticsError as exc:
        raise ZeroVarianceError(str(exc)) from None
