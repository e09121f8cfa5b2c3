"""Spans recorded around calls into hgkit, from outside the package.

The tracer replaces public functions and methods with timing wrappers
for the length of one traced pass and puts the originals back after it.
A span is ``[name, start_ns, end_ns, parent, run]``: ``parent`` is the
index of the span that was open when it started (None for a root) and
``run`` names the step it belongs to.  Spans stay in memory until the
pass ends.

A span's self time is its duration minus the part of that interval its
child spans cover.  The per-layer metrics are sums of self times and of
counts taken at the same boundaries.
"""

from __future__ import annotations

import gzip
import inspect
import json
from collections import Counter
from pathlib import Path
from time import perf_counter_ns
from typing import Any

NS = 1e-9

HYPERCORE_MUTATORS = ("add_vertex", "add_hyperedge", "remove_vertex", "remove_hyperedge", "set_weight")
HYPERCORE_QUERIES = ("get_hyperedges", "get_vertices", "get_weight", "degree", "hyperedge_size")

# Span name -> the per-layer time metric its self time adds to.
TIME_METRICS = {
    "hgio.read_hgf": "hgio.parse_s",
    "hgio.read_json": "hgio.parse_s",
    "hgio.read_reviews_csv": "hgio.parse_s",
    "hgio.read_scenes_json": "hgio.parse_s",
    "hgio.build_from_reviews": "hgio.build_s",
    "hgio.build_from_scenes": "hgio.build_s",
    "hgio.write_hgf": "hgio.write_s",
    "hgio.write_json": "hgio.write_s",
    **{f"hypercore.Hypergraph.{m}": "hypercore.mutate_s" for m in HYPERCORE_MUTATORS},
    **{f"hypercore.Hypergraph.{m}": "hypercore.query_s" for m in HYPERCORE_QUERIES},
    "views.TwoSectionView.neighbors": "views.neighbors_s",
    "views.materialize": "views.materialize_s",
    "community.graph_label_propagation": "community.lp_s",
    "community.hypergraph_label_propagation": "community.lp_s",
    "centrality.s_adjacency": "centrality.s_adjacency_s",
    "centrality.s_betweenness": "centrality.brandes_s",
    "forecast.forecast_hypergraph": "forecast.hyper_s",
    "forecast.forecast_graph": "forecast.graph_s",
    "analytics.connected_components": "analytics.components_s",
    "analytics.hypergraph_modularity": "analytics.modularity_s",
    "analytics.graph_modularity": "analytics.modularity_s",
    "partition.Partition.to_json_text": "partition.serialize_s",
    "partition.Partition.to_csv_text": "partition.serialize_s",
}


def _membership_size(args: tuple, kwargs: dict, key: str) -> int:
    members = args[1] if len(args) > 1 else kwargs.get(key)
    return len(members) if members is not None else 0


def _count(tracer: "Tracer", name: str, args: tuple, kwargs: dict, result: Any) -> None:
    """Counts taken at the boundary of one call; cheap, because a parent span is still open."""
    c = tracer.counts
    short = name.rsplit(".", 1)[-1]
    if name.startswith("hgio.read_"):
        c["hgio.bytes_in"] += len(args[0])
        c["hgio.records"] += result.nhe if short in ("read_hgf", "read_json") else len(result)
    elif name.startswith("hgio.write_"):
        c["hgio.bytes_out"] += len(result)
    elif short in HYPERCORE_MUTATORS and name.startswith("hypercore."):
        c["hypercore.mutations"] += 1
        if short.startswith("remove_"):
            c["hypercore.remaps"] += bool(result)
        elif short == "add_vertex":
            c["hypercore.incidences"] += _membership_size(args, kwargs, "hyperedges")
        elif short == "add_hyperedge":
            c["hypercore.incidences"] += _membership_size(args, kwargs, "vertices")
        else:
            weight = args[3] if len(args) > 3 else kwargs.get("weight")
            c["hypercore.incidences"] += weight is not None
    elif name == "views.TwoSectionView.neighbors":
        c["views.neighbors_calls"] += 1
    elif name == "views.materialize":
        c["views.materialized_edges"] += len(result.edges)
    elif name.endswith("label_propagation"):
        c["community.lp_sweeps"] += result[1]
    elif name.startswith("forecast.forecast_"):
        c["forecast.defined"] += sum(1 for p in result.values() if p is not None)
    elif name == "centrality.s_adjacency":
        # Counting edges walks every vertex; do it after the step ends.
        tracer.deferred.append((args[0], result))


class Tracer:
    """Wraps callables, records spans and counts, and restores the callables."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self.deferred: list[tuple[Any, Any]] = []
        self.run = ""
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        original = vars(owner)[attr]
        spans, stack = self.spans, self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else None, self.run]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            _count(self, name, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def wrap_namespace(self, module: Any) -> None:
        """Wrap every hgkit function that ``module`` imported from another module."""
        for attr, obj in list(vars(module).items()):
            if (
                inspect.isfunction(obj)
                and obj.__module__.startswith("hgkit.")
                and obj.__module__ != module.__name__
            ):
                self.wrap(module, attr, f"{obj.__module__.split('.', 1)[1]}.{obj.__name__}")

    def wrap_class(self, cls: type, methods: tuple[str, ...]) -> None:
        short = cls.__module__.split(".", 1)[1]
        for m in methods:
            self.wrap(cls, m, f"{short}.{cls.__name__}.{m}")

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        """Write the spans out, one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def self_times(spans: list[list[Any]]) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span[3] is not None:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        cursor = start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def root_time(spans: list[list[Any]], run: str) -> float:
    """Seconds spent inside the top-level spans of one step."""
    return sum(s[2] - s[1] for s in spans if s[3] is None and s[4] == run) * NS


def layer_times(spans: list[list[Any]]) -> Counter[str]:
    """Self time in seconds summed per per-layer time metric."""
    totals: Counter[str] = Counter()
    for span, own in zip(spans, self_times(spans)):
        metric = TIME_METRICS.get(span[0])
        if metric is not None:
            totals[metric] += own * NS
    return totals

