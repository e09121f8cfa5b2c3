"""Shared fixtures generators and independent reference implementations.

``seeded_reviews_csv`` and ``seeded_scenes_json`` make small seeded review
and scene documents, with the quoting, padding and repeats that real
exports hold.

The reference implementations here deliberately avoid the package's
code paths: betweenness is recomputed from scratch (both a separate
textbook implementation and an exact path enumerator), and both
modularity scores are evaluated directly from their definitions in
exact rational arithmetic.  The ``reference_*`` kernels are the
dict-keyed label propagation and Brandes loops and the global
pair-table s-adjacency build that the package kernels must reproduce
bit for bit; ``reference_build_from_reviews`` and
``reference_build_from_scenes`` are the record-list review and scene
ingests that the streamed ones must reproduce; ``reference_write_hgf``,
``reference_write_json``, ``reference_materialize`` and
``reference_dot_text`` are the whole-document writers that the streamed
writers must reproduce byte for byte; ``reference_two_section_neighbors``,
``reference_forecast_hypergraph``, ``reference_forecast_graph`` and
``reference_graph_modularity`` are the per-element loops that the
C-counted neighbourhoods, the single-pass forecasts and the protocol
modularity must reproduce bit for bit; ``reference_add_vertex``,
``reference_add_hyperedge``, ``reference_as_weight_map`` and
``reference_check_dual_consistency`` are the per-member id checks and
the two-direction cell walk that the batched id check and the one-pass
consistency check must agree with; ``reference_connected_components``
(a union-find over the hyperedge index) and ``reference_degree_tallies``
(counts taken cell by cell from the hyperedge index) are what the
set-algebra components and the ``len`` tallies must agree with.
``reference_ranked`` is the one-key sort, score negated then id, that
``ranked``'s two stable sorts must agree with.  ``EdgeListGraph`` is the
oracles' own frozen graph: a canonical edge list whose rows are built
from it.
``RowsGraph`` is a graph defined outside hgkit, with the two members
the ``Graph`` protocol asks for and rows served exactly as given.
``same_blocks`` compares two partitions' communities whatever their labels.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from collections import Counter, deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import fsum
from typing import Iterable, Iterator, Mapping

from hgkit import (
    BipartiteView,
    Hypergraph,
    LpConfig,
    Partition,
    SAdjacency,
    TwoSectionView,
    connected_components,
)
from hgkit.analytics import _check_total
from hgkit.errors import (
    DomainMismatchError,
    EmptyGraphError,
    InvalidSError,
    MalformedRecordError,
    UnknownHyperedgeError,
    UnknownNodeError,
    UnknownVertexError,
)
from hgkit.hgio import FORMAT_VERSION
from hgkit.hypercore import DEFAULT_WEIGHT, check_int, check_weight

# --- random structures ---------------------------------------------------------


def random_hypergraph(
    rng: random.Random,
    max_n: int = 10,
    max_k: int = 8,
    weighted: bool = False,
    allow_empty: bool = True,
) -> Hypergraph:
    """Random sparse hypergraph, possibly with empty hyperedges and
    isolated vertices."""
    n = rng.randint(0 if allow_empty else 1, max_n)
    k = rng.randint(0, max_k)
    h = Hypergraph(n, k)
    for e in range(1, k + 1):
        if n == 0:
            break
        size = rng.randint(0, min(n, 5))
        for v in rng.sample(range(1, n + 1), size):
            h.set_weight(v, e, rng.choice((0.5, 1.0, 2.0, 3.25)) if weighted else 1.0)
    return h


def seeded_reviews_csv(rng: random.Random, spellings: tuple[str, ...] = ("{}", " {}", "{} ")) -> str:
    """A review CSV with repeated (user, item) pairs, blank lines, quoted ids and stars in ``spellings``.

    Each spelling is a format string for a star value 1..5; the default pads some of them.
    """
    users = [f"u{i}" for i in range(rng.randint(1, 25))] + ["Doe, Jane"]
    items = [f"b{i}" for i in range(rng.randint(1, 40))] + ['say "hi"', "Book, The"]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=rng.choice(("\n", "\r\n")))
    out.write("\n" * rng.randint(0, 2))
    writer.writerow(["user_id", "item_id", "stars"])
    seen: list[tuple[str, str]] = []
    for _ in range(rng.randint(0, 120)):
        if seen and rng.random() < 0.2:
            user, item = rng.choice(seen)
        else:
            user, item = rng.choice(users), rng.choice(items)
            seen.append((user, item))
        stars = rng.choice(spellings).format(rng.randint(1, 5))
        writer.writerow([user, item, stars])
        if rng.random() < 0.1:
            out.write("\n")
    return out.getvalue()


def seeded_scenes_json(rng: random.Random) -> str:
    """A scene document with repeated and shared members, empty scenes and non-string ids."""
    names = [f"c{i}" for i in range(rng.randint(1, 30))] + ["Snow, Jon", 'the "Hound"']
    scenes = []
    for i in range(rng.randint(0, 60)):
        scene_id = rng.choice((f"s{i}", i, None, 7, f"s{i % 5}"))
        if rng.random() < 0.15:
            members = []
        else:
            members = rng.sample(names, rng.randint(1, min(len(names), 8)))
            members += rng.choices(members, k=rng.randint(0, 3))
            rng.shuffle(members)
        scenes.append({"id": scene_id, "members": members})
    return json.dumps(scenes)


def random_json_meta(rng: random.Random):
    choices = (
        None,
        "plain text",
        42,
        1.5,
        True,
        ["a", 1, None],
        {"nested": {"deep": [1, 2]}, "flag": False},
    )
    return rng.choice(choices)


def random_partition(rng: random.Random, vertices, max_labels: int = 4) -> Partition:
    labels = {v: rng.randint(1, max_labels) for v in vertices}
    return Partition(labels)


def same_blocks(a: Partition, b: Partition) -> bool:
    """Whether two partitions induce the same communities, whatever their label values."""
    return {frozenset(block) for block in a.communities().values()} == {
        frozenset(block) for block in b.communities().values()
    }


def planted_two_cluster(
    seed: int,
    group: int = 20,
    edges_per_group: int = 30,
    size_range: tuple[int, int] = (10, 16),
) -> tuple[Hypergraph, Partition]:
    """Two vertex-disjoint groups of heavily overlapping hyperedges.

    Resamples (deterministically) until each group is one connected
    component, then returns the hypergraph with the ground truth.
    """
    rng = random.Random(seed)
    while True:
        h = Hypergraph(2 * group, 0)
        for g in (0, 1):
            pool = list(range(g * group + 1, (g + 1) * group + 1))
            for _ in range(edges_per_group):
                h.add_hyperedge(rng.sample(pool, rng.randint(*size_range)))
        components = connected_components(h)
        if len(components) == 2 and all(len(c) == group for c in components):
            return h, Partition.from_communities(components)


# --- independent two-section assembly ---------------------------------------------


def two_section_adjacency(h: Hypergraph) -> dict[int, dict[int, int]]:
    """Pair co-occurrence counts assembled directly from hyperedge lists."""
    adj: dict[int, dict[int, int]] = {v: {} for v in h.vertices()}
    for e in h.hyperedges():
        members = sorted(h.get_vertices(e))
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                adj[u][v] = adj[u].get(v, 0) + 1
                adj[v][u] = adj[v].get(u, 0) + 1
    return adj


# --- reference betweenness ----------------------------------------------------------


def textbook_betweenness(adj: dict[int, dict[int, int] | set[int]]) -> dict[int, float]:
    """Classic shortest-path betweenness, accumulation style, written
    against a plain adjacency mapping.  Unordered pairs, unnormalized."""
    nodes = sorted(adj)
    score = {v: 0.0 for v in nodes}
    for s in nodes:
        stack: list[int] = []
        pred: dict[int, list[int]] = {v: [] for v in nodes}
        npaths = {v: 0 for v in nodes}
        npaths[s] = 1
        depth = {v: -1 for v in nodes}
        depth[s] = 0
        frontier = deque([s])
        while frontier:
            v = frontier.popleft()
            stack.append(v)
            for w in adj[v]:
                if depth[w] < 0:
                    depth[w] = depth[v] + 1
                    frontier.append(w)
                if depth[w] == depth[v] + 1:
                    npaths[w] += npaths[v]
                    pred[w].append(v)
        credit = {v: 0.0 for v in nodes}
        while stack:
            w = stack.pop()
            for v in pred[w]:
                credit[v] += npaths[v] / npaths[w] * (1.0 + credit[w])
            if w != s:
                score[w] += credit[w]
    return {v: x / 2.0 for v, x in score.items()}


def enumerated_betweenness(adj: dict[int, dict[int, int] | set[int]]) -> dict[int, Fraction]:
    """Betweenness by listing every geodesic explicitly (exact)."""
    nodes = sorted(adj)
    score = {v: Fraction(0) for v in nodes}
    for i, x in enumerate(nodes):
        dist = {x: 0}
        frontier = deque([x])
        while frontier:
            a = frontier.popleft()
            for b in adj[a]:
                if b not in dist:
                    dist[b] = dist[a] + 1
                    frontier.append(b)
        for y in nodes[i + 1 :]:
            if y not in dist or x == y:
                continue

            def all_geodesics(cur: int) -> list[tuple[int, ...]]:
                if cur == y:
                    return [(y,)]
                paths = []
                for nxt in adj[cur]:
                    if dist.get(nxt) == dist[cur] + 1 and dist[nxt] <= dist[y]:
                        for tail in all_geodesics(nxt):
                            paths.append((cur,) + tail)
                return paths

            geodesics = [p for p in all_geodesics(x) if p[-1] == y]
            total = len(geodesics)
            if total == 0:
                continue
            passes: dict[int, int] = {}
            for p in geodesics:
                for mid in p[1:-1]:
                    passes[mid] = passes.get(mid, 0) + 1
            for mid, cnt in passes.items():
                score[mid] += Fraction(cnt, total)
    return score


def reference_ranked(scores: Mapping[int, float]) -> list[tuple[int, float]]:
    """Every (id, score) item, best first: score descending, ties by ascending id."""
    return sorted(scores.items(), key=lambda item: (-item[1], item[0]))


# --- reference frozen graph ---------------------------------------------------------------


@dataclass
class EdgeListGraph:
    """Frozen weighted simple graph: node count plus a canonical edge list.

    Edges are (u, v, weight) with u < v, sorted ascending, one entry per
    unordered pair.  No metadata survives materialization.  The edge
    list is not to be changed once ``neighbors`` has been called: the
    rows are built from it once.
    """

    n_nodes: int
    edges: list[tuple[int, int, float]] = field(default_factory=list)

    def adjacency(self) -> dict[int, dict[int, float]]:
        adj: dict[int, dict[int, float]] = {u: {} for u in range(1, self.n_nodes + 1)}
        for u, v, w in self.edges:
            adj[u][v] = w
            adj[v][u] = w
        return adj

    @cached_property
    def _rows(self) -> list[dict[int, float]]:
        return list(self.adjacency().values())

    def neighbors(self, v: int) -> dict[int, float]:
        """Map of neighbour -> weight, in the order the edge list reaches it."""
        check_int(v, 1, self.n_nodes, UnknownNodeError, "node")
        return self._rows[v - 1]


class RowsGraph:
    """A caller's own graph: row ``v-1`` of ``rows`` is node v's neighbour mapping, served as given."""

    def __init__(self, rows: list[Mapping[int, float]]) -> None:
        self._rows = rows
        self.n_nodes = len(rows)

    def neighbors(self, v: int) -> Mapping[int, float]:
        check_int(v, 1, self.n_nodes, UnknownNodeError, "node")
        return self._rows[v - 1]


# --- reference kernels (dict-keyed) ------------------------------------------------------


def reference_argmax_label(counts: Counter[int] | dict[int, float], rng: random.Random) -> int:
    best = max(counts.values())
    candidates = sorted(lab for lab, c in counts.items() if c == best)
    if len(candidates) == 1:
        return candidates[0]
    return candidates[rng.randrange(len(candidates))]


def reference_graph_label_propagation(
    g: EdgeListGraph | TwoSectionView, config: LpConfig | None = None
) -> tuple[Partition, int]:
    cfg = config or LpConfig()
    rng = random.Random(cfg.seed)
    if isinstance(g, EdgeListGraph):
        adjacency = g.adjacency()
        neighbors = adjacency.__getitem__
    elif isinstance(g, TwoSectionView):
        neighbors = g.neighbors
    else:
        raise TypeError(f"expected a graph, got {type(g).__name__}")
    nodes = list(range(1, g.n_nodes + 1))
    labels = {v: v for v in nodes}
    if not nodes:
        return Partition({}), 0
    order = list(nodes)
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        rng.shuffle(order)
        changed = False
        for v in order:
            counts: dict[int, float] = {}
            for u, w in neighbors(v).items():
                lab = labels[u]
                counts[lab] = counts.get(lab, 0.0) + w
            if not counts:
                continue
            new = reference_argmax_label(counts, rng)
            if new != labels[v]:
                labels[v] = new
                changed = True
        if not changed:
            break
    return Partition(labels), iterations


def reference_hypergraph_label_propagation(
    h: Hypergraph, config: LpConfig | None = None
) -> tuple[Partition, int]:
    cfg = config or LpConfig()
    rng = random.Random(cfg.seed)
    vlabels = {v: v for v in h.vertices()}
    elabels: dict[int, int | None] = {e: None for e in h.hyperedges()}
    if not vlabels:
        return Partition({}), 0
    vorder = list(h.vertices())
    eorder = list(h.hyperedges())
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        rng.shuffle(eorder)
        rng.shuffle(vorder)
        for e in eorder:
            members = h._he2v[e - 1]
            if not members:
                continue
            counts = Counter(vlabels[v] for v in members)
            elabels[e] = reference_argmax_label(counts, rng)
        changed = False
        for v in vorder:
            incident = h._v2he[v - 1]
            if not incident:
                continue
            counts = Counter(elabels[e] for e in incident)
            new = reference_argmax_label(counts, rng)
            if new != vlabels[v]:
                vlabels[v] = new
                changed = True
        if not changed:
            break
    return Partition(vlabels), iterations


def reference_brandes(nbrs: list[set[int]]) -> dict[int, float]:
    n = len(nbrs)
    bc = dict.fromkeys(range(1, n + 1), 0.0)
    for src in range(1, n + 1):
        if not nbrs[src - 1]:
            continue
        order: list[int] = []
        preds: dict[int, list[int]] = {src: []}
        sigma = {src: 1}
        dist = {src: 0}
        queue = deque([src])
        while queue:
            x = queue.popleft()
            order.append(x)
            for y in nbrs[x - 1]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    sigma[y] = 0
                    preds[y] = []
                    queue.append(y)
                if dist[y] == dist[x] + 1:
                    sigma[y] += sigma[x]
                    preds[y].append(x)
        delta = dict.fromkeys(order, 0.0)
        for y in reversed(order):
            for x in preds[y]:
                delta[x] += (sigma[x] / sigma[y]) * (1.0 + delta[y])
            if y != src:
                bc[y] += delta[y]
    for v in bc:
        bc[v] /= 2.0
    return bc


def reference_s_adjacency(h: Hypergraph, s: int = 1) -> SAdjacency:
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
    return SAdjacency(s=s, n_nodes=h.nhv, _nbrs=nbrs)


# --- reference review ingest ------------------------------------------------------------


@dataclass
class _ReferenceReview:
    """The record and checks the review reader used before it streamed rows."""

    user_id: str
    item_id: str
    stars: int

    def __post_init__(self) -> None:
        if not isinstance(self.stars, int) or isinstance(self.stars, bool):
            raise MalformedRecordError(f"stars must be an integer, got {self.stars!r}")
        if not 1 <= self.stars <= 5:
            raise MalformedRecordError(f"stars must be in 1..5, got {self.stars}")


def _reference_read_reviews_csv(text: str) -> list[_ReferenceReview]:
    rows = (row for row in csv.reader(io.StringIO(text)) if row)
    header = next(rows, None)
    if header is None:
        return []
    if [c.strip() for c in header] != ["user_id", "item_id", "stars"]:
        raise MalformedRecordError(
            "review CSV must start with header user_id,item_id,stars"
        )
    records = []
    for row in rows:
        if len(row) != 3:
            raise MalformedRecordError(f"review row {row!r} must have three fields")
        try:
            # The number grammar: what int() reads of ASCII text without underscores.
            if not row[2].isascii() or "_" in row[2]:
                raise ValueError
            stars = int(row[2])
        except ValueError:
            raise MalformedRecordError(f"stars {row[2]!r} is not an integer") from None
        records.append(_ReferenceReview(user_id=row[0], item_id=row[1], stars=stars))
    return records


def reference_build_from_reviews(
    text: str, star_filter: Iterable[int] | None = None
) -> tuple[Hypergraph, list[str], list[str]]:
    """Parse a whole review CSV into records, then build through a membership set."""
    records = _reference_read_reviews_csv(text)
    allowed = None if star_filter is None else set(star_filter)
    item_ids: dict[str, int] = {}
    user_ids: dict[str, int] = {}
    memberships: set[tuple[int, int]] = set()
    for record in records:
        if allowed is not None and record.stars not in allowed:
            continue
        v = item_ids.setdefault(record.item_id, len(item_ids) + 1)
        e = user_ids.setdefault(record.user_id, len(user_ids) + 1)
        memberships.add((v, e))
    h = Hypergraph(len(item_ids), len(user_ids))
    for v, e in memberships:
        h._v2he[v - 1][e] = 1.0
        h._he2v[e - 1][v] = 1.0
    item_labels = sorted(item_ids, key=item_ids.get)
    user_labels = sorted(user_ids, key=user_ids.get)
    h._vmeta = list(item_labels)
    h._hemeta = list(user_labels)
    return h, item_labels, user_labels


# --- reference scene ingest ------------------------------------------------------------


@dataclass
class _ReferenceScene:
    """The record and checks the scene reader used before it streamed rows."""

    scene_id: str
    members: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        deduped: list[str] = []
        seen: set[str] = set()
        for m in self.members:
            if m not in seen:
                seen.add(m)
                deduped.append(m)
        if not deduped:
            raise MalformedRecordError(f"scene {self.scene_id!r} has no members")
        self.members = deduped


def _reference_object(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """One object of a scene document; a name given twice is refused, not read as its last value."""
    obj: dict[str, object] = {}
    for name, value in pairs:
        if name in obj:
            raise MalformedRecordError(f"scene document is not valid JSON: object name {name!r} repeats")
        obj[name] = value
    return obj


def _reference_read_scenes_json(text: str) -> list[_ReferenceScene]:
    try:
        doc = json.loads(text, object_pairs_hook=_reference_object)
    except json.JSONDecodeError as exc:
        raise MalformedRecordError(f"scene document is not valid JSON: {exc}") from None
    if not isinstance(doc, list):
        raise MalformedRecordError("scene document must be a JSON array")
    records = []
    for entry in doc:
        if not isinstance(entry, dict) or "id" not in entry or "members" not in entry:
            raise MalformedRecordError(f"scene entry {entry!r} needs id and members")
        members = entry["members"]
        if not isinstance(members, list) or not all(isinstance(m, str) for m in members):
            raise MalformedRecordError(f"scene {entry['id']!r} members must be strings")
        if not members:
            continue
        records.append(_ReferenceScene(scene_id=str(entry["id"]), members=list(members)))
    return records


def reference_build_from_scenes(text: str) -> tuple[Hypergraph, list[str]]:
    """Parse a whole scene document into records, then build through the checked add API."""
    char_ids: dict[str, int] = {}
    scenes = _reference_read_scenes_json(text)
    h = Hypergraph(0, 0)
    for record in scenes:
        for name in record.members:
            if name not in char_ids:
                char_ids[name] = h.add_vertex(meta=name)
    for record in scenes:
        h.add_hyperedge({char_ids[m]: 1.0 for m in record.members}, meta=record.scene_id)
    return h, sorted(char_ids, key=char_ids.get)


# --- reference writers -----------------------------------------------------------------


def reference_write_hgf(h: Hypergraph) -> str:
    lines = [f"{h.nhv} {h.nhe}"]
    for e in h.hyperedges():
        members = h._he2v[e - 1]
        lines.append(" ".join(f"{v}={members[v]!r}" for v in sorted(members)))
    return "\n".join(lines) + "\n"


def reference_write_json(h: Hypergraph) -> str:
    doc = {
        "format_version": FORMAT_VERSION,
        "n": h.nhv,
        "k": h.nhe,
        "v2he": [
            {str(e): row[e] for e in sorted(row)} for row in h._v2he
        ],
        "he2v": [
            {str(v): col[v] for v in sorted(col)} for col in h._he2v
        ],
        "vmeta": list(h._vmeta),
        "hemeta": list(h._hemeta),
    }
    return json.dumps(doc, indent=2) + "\n"


def reference_materialize(view: BipartiteView | TwoSectionView) -> EdgeListGraph:
    """Freeze a view into an EdgeListGraph."""
    if isinstance(view, BipartiteView):
        h = view.hypergraph
        n = h.nhv
        edges = [
            (v, n + e, 1.0)
            for e in h.hyperedges()
            for v in h._he2v[e - 1]
        ]
        edges.sort()
        return EdgeListGraph(n_nodes=view.n_nodes, edges=edges)
    if isinstance(view, TwoSectionView):
        edges = [
            (u, v, float(w))
            for u in range(1, view.n_nodes + 1)
            for v, w in view.neighbors(u).items()
            if u < v
        ]
        edges.sort()
        return EdgeListGraph(n_nodes=view.n_nodes, edges=edges)
    raise TypeError(f"cannot materialize {type(view).__name__}")


def reference_dot_text(g: EdgeListGraph, name: str) -> str:
    def num(w: float) -> str:
        return str(int(w)) if float(w).is_integer() else repr(float(w))

    lines = [f"graph {name} {{"]
    lines += [f"  {v};" for v in range(1, g.n_nodes + 1)]
    lines += [f"  {u} -- {v} [weight={num(w)}];" for u, v, w in g.edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def reference_documents(h: Hypergraph) -> dict[str, str]:
    """Each ``convert --to`` target's document, from the whole-document writers."""
    return {
        "hgf": reference_write_hgf(h),
        "json": reference_write_json(h),
        "dot-bipartite": reference_dot_text(reference_materialize(BipartiteView(h)), "bipartite"),
        "dot-twosection": reference_dot_text(reference_materialize(TwoSectionView(h)), "twosection"),
    }


# --- reference two-section, forecast and modularity kernels ---------------------------------


def reference_two_section_neighbors(view: TwoSectionView, v: int) -> dict[int, int]:
    """Map of co-member vertex -> number of shared hyperedges."""
    h = view.hypergraph
    check_int(v, 1, h.nhv, UnknownVertexError, "vertex")
    counts: dict[int, int] = {}
    for e in h._v2he[v - 1]:
        for u in h._he2v[e - 1]:
            if u != v:
                counts[u] = counts.get(u, 0) + 1
    return counts


def _reference_check_ratings(ratings: Mapping[int, float], n: int) -> None:
    missing = [v for v in range(1, n + 1) if v not in ratings]
    if missing:
        raise DomainMismatchError(f"ratings missing for vertices {missing[:5]}")


def reference_forecast_hypergraph(
    h: Hypergraph, ratings: Mapping[int, float], vertices: Iterable[int] | None = None
) -> dict[int, float | None]:
    """Predict each vertex's rating (only those of ``vertices``, if given) from its hyperedge neighborhoods."""
    _reference_check_ratings(ratings, h.nhv)
    out: dict[int, float | None] = {}
    for u in h.vertices() if vertices is None else vertices:
        per_edge: list[float] = []
        for e in h._v2he[u - 1]:
            members = h._he2v[e - 1]
            if len(members) < 2:
                continue
            others = [ratings[v] for v in members if v != u]
            per_edge.append(fsum(others) / len(others))
        out[u] = fsum(per_edge) / len(per_edge) if per_edge else None
    return out


def reference_forecast_graph(
    g: Hypergraph | TwoSectionView, ratings: Mapping[int, float]
) -> dict[int, float | None]:
    """Predict each vertex's rating from its weighted two-section neighbors.

    A vertex whose weights sum to 0, an empty row included, gets None.
    """
    view = TwoSectionView(g) if isinstance(g, Hypergraph) else g
    _reference_check_ratings(ratings, view.n_nodes)
    out: dict[int, float | None] = {}
    for u in range(1, view.n_nodes + 1):
        nbrs = view.neighbors(u)
        weight = fsum(float(w) for w in nbrs.values())
        if weight == 0.0:
            out[u] = None
            continue
        out[u] = fsum(ratings[v] * w for v, w in nbrs.items()) / weight
    return out


def _reference_iter_weighted_edges(
    g: EdgeListGraph | TwoSectionView,
) -> Iterator[tuple[int, int, float]]:
    if isinstance(g, EdgeListGraph):
        yield from g.edges
    elif isinstance(g, TwoSectionView):
        for u in range(1, g.n_nodes + 1):
            for v, w in g.neighbors(u).items():
                if u < v:
                    yield (u, v, float(w))
    else:
        raise TypeError(f"expected a graph, got {type(g).__name__}")


def reference_graph_modularity(
    g: EdgeListGraph | TwoSectionView, partition: Partition
) -> float:
    """Newman modularity of a weighted simple graph partition.

    Computed per community as (internal weight / total weight) minus
    (community strength / twice total weight) squared.
    """
    labels = partition.labels
    _check_total(labels, range(1, g.n_nodes + 1), "nodes")
    edges = list(_reference_iter_weighted_edges(g))
    total = math.fsum(w for _, _, w in edges)
    if total <= 0.0:
        raise EmptyGraphError("graph modularity needs positive total edge weight")
    internal: dict[int, float] = {}
    strength: dict[int, float] = {}
    for u, v, w in edges:
        lu, lv = labels[u], labels[v]
        strength[lu] = strength.get(lu, 0.0) + w
        strength[lv] = strength.get(lv, 0.0) + w
        if lu == lv:
            internal[lu] = internal.get(lu, 0.0) + w
    communities = sorted(set(labels.values()))
    return math.fsum(
        internal.get(c, 0.0) / total - (strength.get(c, 0.0) / (2.0 * total)) ** 2
        for c in communities
    )


# --- reference modularity -------------------------------------------------------------


def hyper_modularity_exact(h: Hypergraph, partition: Partition) -> Fraction:
    """Strict hypergraph modularity straight from the definition."""
    labels = partition.labels
    nonempty = [e for e in h.hyperedges() if h.hyperedge_size(e) > 0]
    m = len(nonempty)
    blocks = partition.communities()
    covered = 0
    for e in nonempty:
        members = set(h.get_vertices(e))
        if any(members <= block for block in blocks.values()):
            covered += 1
    volume = {lab: 0 for lab in blocks}
    total = 0
    for v in h.vertices():
        d = h.degree(v)
        volume[labels[v]] += d
        total += d
    q = Fraction(covered, m)
    sizes: dict[int, int] = {}
    for e in nonempty:
        d = h.hyperedge_size(e)
        sizes[d] = sizes.get(d, 0) + 1
    for d, count in sizes.items():
        q -= Fraction(count, m) * sum(
            Fraction(volume[lab], total) ** d for lab in blocks
        )
    return q


def newman_modularity_exact(
    n_nodes: int, edges: list[tuple[int, int, int]], partition: Partition
) -> Fraction:
    """Newman modularity via the full pairwise sum with integer weights."""
    labels = partition.labels
    weight: dict[tuple[int, int], int] = {}
    for u, v, w in edges:
        weight[(u, v)] = weight.get((u, v), 0) + int(w)
        weight[(v, u)] = weight.get((v, u), 0) + int(w)
    strength = {u: 0 for u in range(1, n_nodes + 1)}
    for (u, _), w in weight.items():
        strength[u] += w
    two_m = sum(strength.values())
    q = Fraction(0)
    for u in range(1, n_nodes + 1):
        for v in range(1, n_nodes + 1):
            if labels[u] != labels[v]:
                continue
            a = weight.get((u, v), 0)
            q += Fraction(a, 1) - Fraction(strength[u] * strength[v], two_m)
    return q / two_m


# --- per-member id checks and the two-direction consistency walk ---------------
#
# The mutators and the consistency check as they were before the ids of a
# call were checked together.  The per-id test is check_int, which the
# methods repeated inline; member ids were coerced with int().


def reference_as_weight_map(memberships) -> dict[int, float]:
    if memberships is None:
        return {}
    if isinstance(memberships, Mapping):
        return {int(i): check_weight(w) for i, w in memberships.items()}
    return {int(i): DEFAULT_WEIGHT for i in memberships}


def reference_add_vertex(h: Hypergraph, hyperedges=None, meta=None) -> int:
    members = reference_as_weight_map(hyperedges)
    for e in members:
        check_int(e, 1, h.nhe, UnknownHyperedgeError, "hyperedge")
    v = h.nhv + 1
    h._v2he.append(members)
    h._vmeta.append(meta)
    for e, w in members.items():
        h._he2v[e - 1][v] = w
    return v


def reference_add_hyperedge(h: Hypergraph, vertices=None, meta=None) -> int:
    members = reference_as_weight_map(vertices)
    for v in members:
        check_int(v, 1, h.nhv, UnknownVertexError, "vertex")
    e = h.nhe + 1
    h._he2v.append(members)
    h._hemeta.append(meta)
    for v, w in members.items():
        h._v2he[v - 1][e] = w
    return e


def reference_check_dual_consistency(h: Hypergraph) -> bool:
    for v, row in enumerate(h._v2he, start=1):
        for e, w in row.items():
            if h._he2v[e - 1].get(v) != w:
                return False
    for e, column in enumerate(h._he2v, start=1):
        for v, w in column.items():
            if h._v2he[v - 1].get(e) != w:
                return False
    return True


# --- components and degree tallies ------------------------------------------------------


def reference_connected_components(h: Hypergraph) -> list[set[int]]:
    """Union-find over each hyperedge's members, read from the hyperedge index only."""
    parent = list(range(h.nhv + 1))

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for column in h._he2v:
        members = list(column)
        for v in members[1:]:
            a, b = root(members[0]), root(v)
            if a != b:
                parent[max(a, b)] = min(a, b)
    blocks: dict[int, set[int]] = {}
    for v in range(1, h.nhv + 1):
        blocks.setdefault(root(v), set()).add(v)
    return sorted(blocks.values(), key=min)


def reference_degree_tallies(h: Hypergraph) -> tuple[dict[int, int], dict[int, int], int]:
    """Each vertex's degree, the nonempty hyperedge size counts and the cell count, cell by cell from the hyperedge index."""
    degrees = dict.fromkeys(range(1, h.nhv + 1), 0)
    size_counts: dict[int, int] = {}
    cells = 0
    for column in h._he2v:
        for v in column:
            degrees[v] += 1
            cells += 1
        if column:
            size_counts[len(column)] = size_counts.get(len(column), 0) + 1
    return degrees, dict(sorted(size_counts.items())), cells


# --- misc -------------------------------------------------------------------------------


def hypergraph_from_edges(n: int, edges: list[tuple[int, ...]]) -> Hypergraph:
    h = Hypergraph(n, 0)
    for members in edges:
        h.add_hyperedge(members)
    return h
