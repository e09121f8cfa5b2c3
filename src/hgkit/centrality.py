"""Overlap-threshold adjacency, shortest paths, betweenness, correlation.

Two vertices are s-adjacent when they share at least s hyperedges.
Distances and betweenness below are computed on that graph with unit
hop lengths; geodesic counts are exact integers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping

from .errors import (
    DomainMismatchError,
    InvalidSError,
    UnknownVertexError,
    ZeroVarianceError,
)
from .hypercore import Hypergraph, check_id
from .views import co_member_counts

__all__ = [
    "CentralityVector",
    "SAdjacency",
    "s_adjacency",
    "s_shortest_path_length",
    "s_betweenness",
    "pearson",
]


@dataclass
class CentralityVector:
    """Per-vertex scores with a fixed ranking rule: score desc, id asc."""

    scores: dict[int, float]

    def __getitem__(self, v: int) -> float:
        return self.scores[v]

    def ranked(self) -> list[tuple[int, float]]:
        return sorted(self.scores.items(), key=lambda item: (-item[1], item[0]))

    def top(self, k: int) -> list[tuple[int, float]]:
        return self.ranked()[: max(k, 0)]


@dataclass
class SAdjacency:
    """Unweighted graph over the vertices of a hypergraph at threshold s."""

    s: int
    n: int
    _nbrs: list[set[int]]

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
    if not isinstance(s, int) or isinstance(s, bool) or s < 1:
        raise InvalidSError(f"s must be a positive integer, got {s!r}")
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
    g: Hypergraph | SAdjacency, u: int, v: int, s: int = 1
) -> int | None:
    """Hop count of a shortest u-v path in the s-adjacency graph.

    Accepts either a hypergraph (adjacency built at threshold ``s``) or
    a prebuilt :class:`SAdjacency`.  Returns 0 for u == v and None when
    no path exists.
    """
    adj = s_adjacency(g, s) if isinstance(g, Hypergraph) else g
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
