"""Label propagation community detection and partition comparison.

Two propagation variants are provided.  The graph variant runs on a
weighted graph (typically the two-section view): each vertex repeatedly
adopts the label with the largest weighted frequency among its
neighbors, updates applied in place one vertex at a time so that a
sweep sees the freshest labels.  The hypergraph variant alternates two
phases per iteration: every hyperedge takes the most frequent label of
its members, then every vertex takes the most frequent label of its
incident hyperedges (each counted once).

Both start from unique per-vertex labels, break frequency ties
uniformly at random from the seeded source, shuffle processing order
every iteration, and stop after a sweep that changes no vertex label
or after ``max_iterations`` sweeps.  Fixed seed means bit-identical
output.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from .errors import DomainMismatchError, EmptyDomainError
from .hypercore import Hypergraph
from .partition import Partition
from .views import Graph, neighbor_rows

__all__ = [
    "LpConfig",
    "graph_label_propagation",
    "hypergraph_label_propagation",
    "nmi",
]


@dataclass
class LpConfig:
    max_iterations: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


def _argmax_label(labels: list[int], weights: Iterable[float], rng: random.Random) -> int:
    """The label with the largest total weight.

    Weights are summed per label in the order given.  A tie is broken by one
    ``rng.randrange`` over the tied labels in ascending order; without a
    tie ``rng`` is not touched.
    """
    first = labels[0]
    if len(labels) == 1:
        return first
    tally: dict[int, float] = {}
    for lab, w in zip(labels, weights):
        tally[lab] = tally.get(lab, 0.0) + w
    if len(tally) == 1:
        return first
    best = max(tally.values())
    candidates = [lab for lab, c in tally.items() if c == best]
    if len(candidates) == 1:
        return candidates[0]
    candidates.sort()
    return candidates[rng.randrange(len(candidates))]


# Above this many element comparisons (distinct labels times labels),
# one ``Counter`` pass beats a ``count`` scan per distinct label.
_COUNT_SCAN_LIMIT = 256


def _most_frequent_label(labels: Sequence[int], rng: random.Random) -> int:
    """The most frequent label, ties broken as in ``_argmax_label``.

    Counting runs in C: one ``set``, then one ``count`` scan per
    distinct label (one ``Counter`` pass for long, varied rows), skipped
    when every label agrees or every label differs.
    """
    distinct = set(labels)
    if len(distinct) == 1:
        return labels[0]
    if len(distinct) == len(labels):
        tied = sorted(distinct)
        return tied[rng.randrange(len(tied))]
    if len(distinct) * len(labels) <= _COUNT_SCAN_LIMIT:
        counts = zip(distinct, map(labels.count, distinct))
    else:
        counts = Counter(labels).items()
    best = 0
    tied = []
    for lab, c in counts:
        if c > best:
            best = c
            tied = [lab]
        elif c == best:
            tied.append(lab)
    if len(tied) == 1:
        return tied[0]
    tied.sort()
    return tied[rng.randrange(len(tied))]


def _gathers(rows: list[dict[int, float]]) -> list[Callable[[list[int]], Sequence[int]] | None]:
    """Per row, a callable picking that row's ids out of an id-indexed list.

    Slot 0 is unused.  A row with one id gets a slice getter, so every
    gather returns a sequence; an empty row gets None.
    """
    out: list[Callable[[list[int]], Sequence[int]] | None] = [None]
    for row in rows:
        if len(row) > 1:
            out.append(itemgetter(*row))
        elif row:
            (i,) = row
            out.append(itemgetter(slice(i, i + 1)))
        else:
            out.append(None)
    return out


def graph_label_propagation(
    g: Graph, config: LpConfig | None = None
) -> tuple[Partition, int]:
    """Weighted label propagation on a graph.

    Returns the final partition and the number of sweeps executed
    (counting the final unchanged one).  Isolated nodes keep their
    initial unique labels.

    Each node's neighbour row is read once per call into a list
    indexed by node id (slot 0 unused), and labels live in one such
    list.  Weights are summed in each row's own order, and random draws
    happen in the same order as a dict-keyed sweep would make them: a
    fixed seed gives a bit-identical partition and iteration count.
    """
    cfg = config or LpConfig()
    rng = random.Random(cfg.seed)
    rows = neighbor_rows(g)
    n = g.n_nodes
    if n == 0:
        return Partition({}), 0
    nbrs: list[Mapping[int, float]] = [{}, *rows]
    labels = list(range(n + 1))
    order = list(range(1, n + 1))
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        rng.shuffle(order)
        changed = False
        for v in order:
            row = nbrs[v]
            if not row:
                continue
            new = _argmax_label([labels[u] for u in row], row.values(), rng)
            if new != labels[v]:
                labels[v] = new
                changed = True
        if not changed:
            break
    return Partition({v: labels[v] for v in range(1, n + 1)}), iterations


def hypergraph_label_propagation(
    h: Hypergraph, config: LpConfig | None = None
) -> tuple[Partition, int]:
    """Two-phase label propagation on a hypergraph.

    Phase one labels hyperedges from current vertex labels; phase two
    relabels vertices from the fresh hyperedge labels.  Isolated
    vertices and empty hyperedges never change.

    Both label sets live in flat lists indexed by id (slot 0 unused),
    and each hyperedge and vertex gets one ``itemgetter`` per call that
    gathers its members' or incident hyperedges' labels from them.
    Labels are counted, not weighted, so the incidence order does not
    matter; ties draw from the same ascending candidate list as a
    dict-keyed sweep, so a fixed seed gives a bit-identical partition
    and iteration count.
    """
    cfg = config or LpConfig()
    rng = random.Random(cfg.seed)
    n, k = h.nhv, h.nhe
    if n == 0:
        return Partition({}), 0
    members = _gathers(h._he2v)
    incident = _gathers(h._v2he)
    vlabels = list(range(n + 1))
    elabels = [0] * (k + 1)
    vorder = list(range(1, n + 1))
    eorder = list(range(1, k + 1))
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        rng.shuffle(eorder)
        rng.shuffle(vorder)
        for e in eorder:
            gather = members[e]
            if gather is not None:
                elabels[e] = _most_frequent_label(gather(vlabels), rng)
        changed = False
        for v in vorder:
            gather = incident[v]
            if gather is None:
                continue
            new = _most_frequent_label(gather(elabels), rng)
            if new != vlabels[v]:
                vlabels[v] = new
                changed = True
        if not changed:
            break
    return Partition({v: vlabels[v] for v in range(1, n + 1)}), iterations


# --- partition comparison -------------------------------------------------------


def _entropy_terms(counts: list[int], n: int) -> list[float]:
    return [(c / n) * math.log(n / c) for c in counts]


def nmi(x: Partition, y: Partition) -> float:
    """Normalized mutual information between two partitions.

    Natural-log mutual information scaled by the mean of the two
    entropies: 2 I(X,Y) / (H(X) + H(Y)).  Equals 1 for identical
    partitions (including two trivial ones, by convention) and 0 for
    independent ones.  Both partitions must cover the same nonempty
    vertex set.
    """
    if x.vertices() != y.vertices():
        raise DomainMismatchError("partitions cover different vertex sets")
    vertices = x.labels.keys()
    n = len(x.labels)
    if n == 0:
        raise EmptyDomainError("cannot compare partitions of nothing")
    xc = Counter(x.labels.values())
    yc = Counter(y.labels.values())
    joint = Counter((x.labels[v], y.labels[v]) for v in vertices)
    hx = math.fsum(sorted(_entropy_terms(list(xc.values()), n)))
    hy = math.fsum(sorted(_entropy_terms(list(yc.values()), n)))
    if hx + hy == 0.0:
        return 1.0
    # c*n and the marginal product are exact integers, so each term is
    # the correctly rounded p*log(p / (px*py)); identical partitions
    # reproduce the entropy terms bit for bit.
    terms = [
        (c / n) * math.log((c * n) / (xc[a] * yc[b]))
        for (a, b), c in joint.items()
    ]
    mi = math.fsum(sorted(terms))
    return min(1.0, max(0.0, 2.0 * mi / (hx + hy)))
