"""Overlap-threshold adjacency, shortest paths, betweenness, correlation.

Two vertices are s-adjacent when they share at least s hyperedges.
Distances and betweenness below are computed on that graph with unit
hop lengths; geodesic counts are exact integers.
"""

from __future__ import annotations

import statistics
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .errors import (
    DomainMismatchError,
    InvalidSError,
    UnknownVertexError,
    ZeroVarianceError,
)
from .hypercore import Hypergraph
from .views import TwoSectionView

__all__ = [
    "CentralityVector",
    "SAdjacency",
    "s_adjacency",
    "s_shortest_path_length",
    "s_betweenness",
    "betweenness_equivalence_check",
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
        if not 1 <= v <= self.n:
            raise UnknownVertexError(f"no vertex {v!r} (have 1..{self.n})")
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
    """Build the s-adjacency graph by accumulating per-hyperedge pairs.

    Cost is the sum of squared hyperedge sizes; memory is proportional
    to the number of vertex pairs that actually co-occur.
    """
    if not isinstance(s, int) or isinstance(s, bool) or s < 1:
        raise InvalidSError(f"s must be a positive integer, got {s!r}")
    counts: dict[tuple[int, int], int] = {}
    for e in h.hyperedges():
        members = sorted(h._he2v[e - 1])
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                pair = (u, v)
                counts[pair] = counts.get(pair, 0) + 1
    nbrs: list[set[int]] = [set() for _ in range(h.nhv)]
    for (u, v), c in counts.items():
        if c >= s:
            nbrs[u - 1].add(v)
            nbrs[v - 1].add(u)
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
    adj.neighbors(u)
    adj.neighbors(v)
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
        for y in order[:0:-1]:
            dx = dist[y] - 1
            sy = sigma[y]
            coeff = 1.0 + delta[y]
            for x in adj[y]:
                if dist[x] == dx:
                    delta[x] += (sigma[x] / sy) * coeff
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


def _enumerated_betweenness(
    nodes: Iterable[int], neighbors_of: Callable[[int], Iterable[int]]
) -> dict[int, Fraction]:
    """Betweenness by explicit geodesic enumeration, in exact arithmetic.

    For every unordered pair, a BFS fixes distances and a depth-first
    sweep walks out every shortest path, tallying interior visits.
    Exponential in the worst case; meant for small graphs and checks.
    """
    node_list = sorted(nodes)
    bc = {v: Fraction(0) for v in node_list}
    for i, x in enumerate(node_list):
        dist = {x: 0}
        queue = deque([x])
        while queue:
            a = queue.popleft()
            for b in neighbors_of(a):
                if b not in dist:
                    dist[b] = dist[a] + 1
                    queue.append(b)
        for y in node_list[i + 1 :]:
            if y not in dist:
                continue
            total = 0
            interior: dict[int, int] = {}
            path = [x]

            def walk(cur: int) -> None:
                nonlocal total
                if cur == y:
                    total += 1
                    for mid in path[1:-1]:
                        interior[mid] = interior.get(mid, 0) + 1
                    return
                for nxt in neighbors_of(cur):
                    if dist.get(nxt) == dist[cur] + 1 and dist[cur] < dist[y]:
                        path.append(nxt)
                        walk(nxt)
                        path.pop()

            walk(x)
            for mid, cnt in interior.items():
                bc[mid] += Fraction(cnt, total)
    return bc


def betweenness_equivalence_check(h: Hypergraph, tol: float = 1e-9) -> tuple[bool, float]:
    """Cross-check s=1 betweenness against the two-section graph.

    The reference side enumerates geodesics over the two-section
    adjacency (ignoring weights) in exact arithmetic, touching none of
    the s-adjacency machinery.  Returns (within tolerance, worst gap).
    Intended for tests on small inputs.
    """
    fast = s_betweenness(h, 1).scores
    view = TwoSectionView(h)
    exact = _enumerated_betweenness(
        view.nodes(), lambda v: sorted(view.neighbors(v))
    )
    worst = max(
        (abs(fast[v] - float(exact[v])) for v in view.nodes()), default=0.0
    )
    return worst <= tol, worst


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
    try:
        return statistics.correlation([sx[k] for k in keys], [sy[k] for k in keys])
    except statistics.StatisticsError as exc:
        raise ZeroVarianceError(str(exc)) from None
