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
output.  Draws and shuffles call the generator's ``getrandbits``
directly but consume it exactly as ``randrange`` and ``shuffle`` do, so
the partitions are those of a sweep written with ``random``'s own
methods.
"""

from __future__ import annotations

import math
import random
from collections import Counter, _count_elements
from itertools import compress
from operator import itemgetter
from typing import Callable, Collection, Iterable, Sequence

from .errors import DomainMismatchError, EmptyDomainError
from .hypercore import Hypergraph, check_int
from .partition import Partition
from .views import Graph, graph_rows

__all__ = [
    "LpConfig",
    "graph_label_propagation",
    "hypergraph_label_propagation",
    "nmi",
]


class LpConfig:
    """Label propagation settings: a sweep cap of at least 1 and an int seed."""

    def __init__(self, max_iterations: int = 100, seed: int = 0) -> None:
        self.max_iterations = check_int(max_iterations, 1, None, ValueError, "max_iterations")
        self.seed = check_int(seed, None, None, ValueError, "seed")

    def __repr__(self) -> str:
        return f"LpConfig(max_iterations={self.max_iterations!r}, seed={self.seed!r})"


def _draw(tied: list[int], getrandbits: Callable[[int], int]) -> int:
    """``tied[rng.randrange(len(tied))]``, given ``rng.getrandbits``.

    Draws ``len(tied).bit_length()`` bits until the value is below
    ``len(tied)``: the bits ``Random._randbelow_with_getrandbits``
    draws for ``randrange``, so the result and the generator state are
    the same.  Even a one-label list consumes bits, so callers draw only
    on a tie.
    """
    n = len(tied)
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return tied[r]


def _shuffle(x: list[int], getrandbits: Callable[[int], int]) -> None:
    """``rng.shuffle(x)``, given ``rng.getrandbits``.

    Each swap index is drawn as in ``_draw``, inlined: this loop makes
    one draw per element every sweep.
    """
    for i in reversed(range(1, len(x))):
        n = i + 1
        k = n.bit_length()
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


def _argmax_labels(labels: list[int], weights: Iterable[float]) -> list[int]:
    """The labels with the largest total weight, in ascending order.

    Weights are summed per label in the order given.
    """
    if len(labels) == 1:
        return labels
    tally: dict[int, float] = {}
    for lab, w in zip(labels, weights):
        tally[lab] = tally.get(lab, 0.0) + w
    if len(tally) == 1:
        return labels[:1]
    best = max(tally.values())
    tied = [lab for lab, c in tally.items() if c == best]
    tied.sort()
    return tied


def _most_frequent_labels(labels: Sequence[int]) -> list[int]:
    """The most frequent labels, in ascending order.

    One C tally pass (``Counter``'s own loop) into a plain dict, then
    the tied labels picked out in C; when every label differs, all of
    them tie.
    """
    counts: dict[int, int] = {}
    _count_elements(counts, labels)
    if len(counts) == len(labels):
        return sorted(counts)
    best = max(counts.values())
    return sorted(compress(counts, map(best.__eq__, counts.values())))


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

    Each node's (neighbours, weights) pair is read once per call, from
    :func:`graph_rows`, into a list indexed by node id (slot 0 unused),
    and labels live in one such list.  Weights are summed in each row's
    own order, and random draws happen in the same order as a dict-keyed
    sweep would make them: a fixed seed gives a bit-identical partition
    and iteration count.
    """
    cfg = config or LpConfig()
    getrandbits = random.Random(cfg.seed).getrandbits
    rows = graph_rows(g)
    n = g.n_nodes
    if n == 0:
        return Partition({}), 0
    nbrs: list[tuple[Collection[int], Collection[float]]] = [((), ()), *rows]
    labels = list(range(n + 1))
    order = list(range(1, n + 1))
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        _shuffle(order, getrandbits)
        changed = False
        for v in order:
            ids, weights = nbrs[v]
            if not ids:
                continue
            tied = _argmax_labels([labels[u] for u in ids], weights)
            new = tied[0] if len(tied) == 1 else _draw(tied, getrandbits)
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

    A vertex's tied labels depend only on its hyperedges' labels, so
    each vertex keeps its last tie list and is recounted only after one
    of its hyperedges took a new label in this sweep's phase one.  It
    still draws from that list in its turn, so the generator advances
    as in a sweep that recounts every vertex.
    """
    cfg = config or LpConfig()
    getrandbits = random.Random(cfg.seed).getrandbits
    n, k = h.nhv, h.nhe
    if n == 0:
        return Partition({}), 0
    erows = [{}, *h._he2v]
    members = _gathers(h._he2v)
    incident = _gathers(h._v2he)
    vlabels = list(range(n + 1))
    elabels = [0] * (k + 1)
    vties: list[list[int] | None] = [None] * (n + 1)
    vorder = list(range(1, n + 1))
    eorder = list(range(1, k + 1))
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        _shuffle(eorder, getrandbits)
        _shuffle(vorder, getrandbits)
        stale: set[int] = set()
        for e in eorder:
            gather = members[e]
            if gather is None:
                continue
            tied = _most_frequent_labels(gather(vlabels))
            new = tied[0] if len(tied) == 1 else _draw(tied, getrandbits)
            if new != elabels[e]:
                elabels[e] = new
                stale.update(erows[e])
        changed = False
        for v in vorder:
            if v in stale:
                tied = vties[v] = _most_frequent_labels(incident[v](elabels))
            else:
                tied = vties[v]
                if tied is None:
                    continue
            new = tied[0] if len(tied) == 1 else _draw(tied, getrandbits)
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
