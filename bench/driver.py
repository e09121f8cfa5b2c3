"""Child processes of the benchmark: set-up probes and the edit workload.

    python3 bench/driver.py setup reviews|scenes|edit INPUT
    python3 bench/driver.py edit INPUT

``setup`` imports hgkit and loads one workload input into a Hypergraph
through the public readers and builders, and exits.  ``edit`` builds the
edit hypergraph with ``add_hyperedge``, runs the seeded operation stream
through the public mutation and query API, checks the result and prints
one JSON line.  Both need ``src`` on PYTHONPATH.

The edit input is a ``marshal`` file written by the benchmark from its
seed: ``{"build": [[vertex, ...], ...], "ops": [(kind, *args), ...]}``.
"""

from __future__ import annotations

import hashlib
import json
import marshal
import sys
import time
from pathlib import Path

from hgkit import (
    Hypergraph,
    build_from_reviews,
    build_from_scenes,
    connected_components,
    degree_summary,
    read_reviews_csv,
    read_scenes_json,
)
from hgkit import hgio
from hgkit.errors import UnknownVertexError
from workloads import EDIT_VERTICES


def load_edit(path: str) -> dict:
    return marshal.loads(Path(path).read_bytes())


def build(members: list[list[int]]) -> Hypergraph:
    h = Hypergraph(EDIT_VERTICES, 0)
    for vertices in members:
        h.add_hyperedge(vertices)
    return h


def stream(h: Hypergraph, ops: list[tuple]) -> dict:
    """Apply the operations, tracking n and k and checking every returned id and remap."""
    n, k = h.nhv, h.nhe
    read_cells = remaps = wrong_ids = 0
    analytics: list[int] = []
    for op in ops:
        kind = op[0]
        if kind == "get_hyperedges":
            read_cells += len(h.get_hyperedges(op[1]))
        elif kind == "get_vertices":
            read_cells += len(h.get_vertices(op[1]))
        elif kind == "set_weight":
            h.set_weight(op[1], op[2], op[3])
        elif kind == "add_vertex":
            n += 1
            wrong_ids += h.add_vertex(op[1]) != n
        elif kind == "add_hyperedge":
            k += 1
            wrong_ids += h.add_hyperedge(op[1]) != k
        elif kind == "remove_vertex":
            remap = h.remove_vertex(op[1])
            wrong_ids += remap != ({n: op[1]} if op[1] != n else {})
            remaps += bool(remap)
            n -= 1
        elif kind == "remove_hyperedge":
            remap = h.remove_hyperedge(op[1])
            wrong_ids += remap != ({k: op[1]} if op[1] != k else {})
            remaps += bool(remap)
            k -= 1
        else:
            analytics += [len(connected_components(h)), degree_summary(h).volume]
    return {
        "n": n,
        "k": k,
        "read_cells": read_cells,
        "remaps": remaps,
        "wrong_ids": wrong_ids,
        "analytics": analytics,
    }


def digest(h: Hypergraph, counters: dict) -> str:
    """Digest of the counters and of the final hypergraph in HGF."""
    sha = hashlib.sha256(json.dumps(counters, sort_keys=True).encode())
    sha.update(hgio.write_hgf(h).encode())
    return sha.hexdigest()


def rejects_bad_id(h: Hypergraph) -> bool:
    """An out-of-range member must raise the documented error and change nothing."""
    k = h.nhe
    try:
        h.add_hyperedge([h.nhv + 1])
    except UnknownVertexError as exc:
        return exc.exit_code == 4 and h.nhe == k
    return False


def run_edit(path: str) -> dict:
    data = load_edit(path)
    start = time.perf_counter()
    h = build(data["build"])
    built = time.perf_counter()
    counters = stream(h, data["ops"])
    done = time.perf_counter()
    return {
        **counters,
        "build_s": built - start,
        "stream_s": done - built,
        "nhv": h.nhv,
        "nhe": h.nhe,
        "incidences": h.incidence_count,
        "consistent": h.check_dual_consistency(),
        "rejects_bad_id": rejects_bad_id(h),
        "digest": digest(h, counters),
    }


def setup(workload: str, path: str) -> Hypergraph:
    if workload == "reviews":
        return build_from_reviews(read_reviews_csv(Path(path).read_text(encoding="utf-8")))[0]
    if workload == "scenes":
        return build_from_scenes(read_scenes_json(Path(path).read_text(encoding="utf-8")))[0]
    return build(load_edit(path)["build"])


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 3:
        setup(argv[1], argv[2])
        return 0
    if argv[:1] == ["edit"] and len(argv) == 2:
        print(json.dumps(run_edit(argv[1])))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
