"""Connectivity, component extraction, random walks, degree summaries, and modularity.

Unless stated otherwise these operations ignore incidence weights:
degree is the count of incident hyperedges, walks pick uniformly, and
both modularity scores are driven by counts.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from typing import Callable, Iterable, Iterator

from .errors import (
    EmptyGraphError,
    IsolatedVertexError,
    NoHyperedgesError,
    NoUsableHyperedgesError,
    PartitionNotTotalError,
    UnknownVertexError,
)
from .hypercore import Hypergraph, IdRemap, check_int, check_ints
from .partition import Partition
from .views import Graph, graph_rows

__all__ = [
    "connected_components",
    "component_sizes",
    "induced_subhypergraph",
    "largest_connected_component",
    "random_walk_step",
    "one_step_distribution",
    "DegreeSummary",
    "degree_summary",
    "degree_centrality",
    "graph_degree_centrality",
    "hypergraph_modularity",
    "graph_modularity",
]

HyperedgeSelector = Callable[[Hypergraph, int, random.Random], int]
VertexSelector = Callable[[Hypergraph, int, int, random.Random], int]


# --- connectivity ------------------------------------------------------------


# Id to list index, mapped in C: the rows of both indexes sit at id - 1.
_index = (-1).__add__


def _components(h: Hypergraph) -> Iterator[set[int] | int]:
    """Each component of ``h`` in order of smallest vertex id: its vertex
    set, or the bare id of a vertex with no incident hyperedge.

    The search runs a level at a time in C set operations: the union of
    the member rows of the hyperedges reached last, less the component,
    gives the new vertices; the union of their rows, less the hyperedges
    reached last, gives the next hyperedges.  No hyperedge reached before
    that can come back, since all its members joined the component by the
    level after it, so no set of every hyperedge seen is kept.
    """
    v2he, he2v = h._v2he, h._he2v
    placed = bytearray(len(v2he) + 1)
    for start, row in enumerate(v2he, start=1):
        if not row:
            yield start
            continue
        if placed[start]:
            continue
        component = {start}
        edges = set(row)
        while edges:
            new = set().union(*map(he2v.__getitem__, map(_index, edges)))
            new -= component
            # A list of the new vertices frees the union's table, sized for
            # every member reached, before the next union is built.
            new = [*new]
            later = set().union(*map(v2he.__getitem__, map(_index, new)))
            later -= edges
            edges = later
            component.update(new)
        for v in component:
            placed[v] = 1
        yield component


def connected_components(h: Hypergraph) -> list[set[int]]:
    """Vertex sets reachable through alternating vertex/hyperedge hops.

    Vertices with no incident hyperedge come back as singletons.  The
    list is ordered by each component's smallest vertex id.  The cost is
    one C set pass per search level, O(n + incidences) in all.
    """
    return [c if type(c) is set else {c} for c in _components(h)]


def component_sizes(h: Hypergraph) -> Counter[int]:
    """How many components of ``h`` have each size, isolated vertices
    counted as 1 without a set built for each."""
    return Counter(len(c) if type(c) is set else 1 for c in _components(h))


def induced_subhypergraph(
    h: Hypergraph, keep: Iterable[int]
) -> tuple[Hypergraph, IdRemap, IdRemap]:
    """Restrict to a vertex subset, renumbering ids contiguously.

    Hyperedges keep only surviving members; hyperedges left empty are
    dropped.  Metadata follows the surviving ids.  Returns the new
    hypergraph with vertex and hyperedge remaps {old: new}.  Every kept
    id must be an int in 1..n, else ``UnknownVertexError``.
    """
    # The raw ids, not the deduplicated ones: [1, True] must fail too.
    keep = list(keep)
    check_ints(keep, 1, h.nhv, UnknownVertexError, "vertex")
    kept = sorted(set(keep))
    vmap: IdRemap = {old: new for new, old in enumerate(kept, start=1)}
    emap: IdRemap = {}
    vmeta = [h._vmeta[v - 1] for v in kept]
    he2v: list[dict[int, float]] = []
    for old_e, column in enumerate(h._he2v, start=1):
        members = {vmap[v]: w for v, w in column.items() if v in vmap}
        if members:
            he2v.append(members)
            emap[old_e] = len(he2v)
    hemeta = [h._hemeta[old_e - 1] for old_e in emap]
    return Hypergraph._from_columns(he2v, len(kept), vmeta, hemeta), vmap, emap


def largest_connected_component(h: Hypergraph) -> tuple[Hypergraph, IdRemap]:
    """Extract the largest component (ties: smallest minimum vertex id).

    Returns the component as its own hypergraph and the vertex remap
    {old: new}.  The empty hypergraph maps to itself.
    """
    components = connected_components(h)
    if not components:
        return Hypergraph(0, 0), {}
    champion = max(components, key=lambda c: (len(c), -min(c)))
    sub, vmap, _ = induced_subhypergraph(h, champion)
    return sub, vmap


# --- random walks -------------------------------------------------------------


def _uniform_hyperedge(h: Hypergraph, v: int, rng: random.Random) -> int:
    return rng.choice(sorted(h._v2he[v - 1]))


def _uniform_member(h: Hypergraph, v: int, e: int, rng: random.Random) -> int:
    return rng.choice(sorted(h._he2v[e - 1]))


def random_walk_step(
    h: Hypergraph,
    v: int,
    rng: random.Random,
    *,
    heselect: HyperedgeSelector | None = None,
    vselect: VertexSelector | None = None,
) -> int:
    """One walk step: pick an incident hyperedge, then a member of it.

    Defaults pick uniformly at both stages, so staying put is possible.
    Custom selectors may bias either stage; the vertex they return must
    be a member of the chosen hyperedge.
    """
    if h.degree(v) == 0:
        raise IsolatedVertexError(f"vertex {v} has no incident hyperedge")
    e = (heselect or _uniform_hyperedge)(h, v, rng)
    members = h.get_vertices(e)
    u = (vselect or _uniform_member)(h, v, e, rng)
    check_int(u, 1, h.nhv, ValueError, "selected vertex")
    if u not in members:
        raise ValueError(f"selector returned {u}, not a member of hyperedge {e}")
    return u


def one_step_distribution(h: Hypergraph, v: int) -> dict[int, float]:
    """Exact one-step law of the default walk from v.

    P(u | v) sums 1/(deg(v) * |e|) over the hyperedges containing both
    u and v.  Rows of this kernel sum to 1.
    """
    deg = h.degree(v)
    if deg == 0:
        raise IsolatedVertexError(f"vertex {v} has no incident hyperedge")
    dist: dict[int, float] = {}
    for e in h._v2he[v - 1]:
        members = h._he2v[e - 1]
        share = 1.0 / (deg * len(members))
        for u in members:
            dist[u] = dist.get(u, 0.0) + share
    return dist


# --- degrees ------------------------------------------------------------------


class DegreeSummary:
    """Degree sequence, total volume, and hyperedge size tallies.

    ``size_counts`` maps hyperedge size d to the number of hyperedges
    of that size; empty hyperedges are excluded.
    """

    def __init__(self, degrees: dict[int, int], volume: int, size_counts: dict[int, int]) -> None:
        self.degrees, self.volume, self.size_counts = degrees, volume, size_counts

    @property
    def usable_hyperedges(self) -> int:
        return sum(self.size_counts.values())


def degree_summary(h: Hypergraph) -> DegreeSummary:
    degrees = dict(enumerate(map(len, h._v2he), start=1))
    sizes = Counter(map(len, h._he2v))
    del sizes[0]
    return DegreeSummary(
        degrees=degrees,
        volume=sum(degrees.values()),
        size_counts=dict(sorted(sizes.items())),
    )


def degree_centrality(h: Hypergraph) -> dict[int, float]:
    """Score each vertex by its incident hyperedge count, keyed 1..n in ascending order."""
    return {v: float(len(h._v2he[v - 1])) for v in h.vertices()}


def graph_degree_centrality(g: Graph) -> dict[int, float]:
    """Score each node by its number of distinct neighbours (co-members in a two-section view), keyed 1..n in ascending order."""
    return {v: float(len(ids)) for v, (ids, _) in enumerate(graph_rows(g), start=1)}


# --- modularity ----------------------------------------------------------------


def _check_total(labels: dict[int, int], universe: Iterable[int], what: str) -> None:
    missing = [v for v in universe if v not in labels]
    if missing:
        raise PartitionNotTotalError(f"{what} {missing[:5]} missing from partition")
    extra = set(labels) - set(universe)
    if extra:
        raise PartitionNotTotalError(
            f"partition labels unknown {what} {sorted(extra)[:5]}"
        )


def hypergraph_modularity(h: Hypergraph, partition: Partition) -> float:
    """Strict modularity of a partition of a hypergraph.

    The coverage term is the fraction of nonempty hyperedges entirely
    inside one community.  The expectation term charges each hyperedge
    size d a (volume share)**d tax.  Empty hyperedges are ignored on
    both sides.  The one-community partition scores 0.
    """
    labels = partition.labels
    _check_total(labels, h.vertices(), "vertices")
    if h.nhe == 0:
        raise NoHyperedgesError("modularity needs at least one hyperedge")
    m = 0
    monochrome = 0
    size_counts: Counter[int] = Counter()
    for e in h.hyperedges():
        members = h._he2v[e - 1]
        if not members:
            continue
        m += 1
        size_counts[len(members)] += 1
        it = iter(members)
        first = labels[next(it)]
        if all(labels[v] == first for v in it):
            monochrome += 1
    if m == 0:
        raise NoUsableHyperedgesError("all hyperedges are empty")
    volume: Counter[int] = Counter()
    total = 0
    for v in h.vertices():
        d = len(h._v2he[v - 1])
        volume[labels[v]] += d
        total += d
    shares = [x / total for x in volume.values()]
    tax = math.fsum(
        (count / m) * math.fsum(share**d for share in shares)
        for d, count in sorted(size_counts.items())
    )
    return monochrome / m - tax


def graph_modularity(g: Graph, partition: Partition) -> float:
    """Newman modularity of a weighted simple graph partition.

    Computed per community as (internal weight / total weight) minus
    (community strength / twice total weight) squared.  Each edge
    counts once, from its lower endpoint: nodes ascending, then each
    row's higher neighbours in row order, as :func:`graph_rows` gives
    them.  Integer weights are summed into floats as they are, which
    rounds them as ``float`` would.
    """
    labels = partition.labels
    rows = graph_rows(g)
    _check_total(labels, range(1, g.n_nodes + 1), "nodes")
    weights: list[float] = []
    internal: dict[int, float] = {}
    strength: dict[int, float] = {}
    for u, (ids, row_weights) in enumerate(rows, start=1):
        lu = labels[u]
        for v, w in zip(ids, row_weights):
            if v <= u:
                continue
            weights.append(w)
            lv = labels[v]
            strength[lu] = strength.get(lu, 0.0) + w
            strength[lv] = strength.get(lv, 0.0) + w
            if lu == lv:
                internal[lu] = internal.get(lu, 0.0) + w
    total = math.fsum(weights)
    if total <= 0.0:
        raise EmptyGraphError("graph modularity needs positive total edge weight")
    communities = sorted(set(labels.values()))
    return math.fsum(
        internal.get(c, 0.0) / total - (strength.get(c, 0.0) / (2.0 * total)) ** 2
        for c in communities
    )
