"""Output checks that share no code path with hgkit.

Each check reads a command's output with the standard library alone and
compares it with facts the benchmark derived from its own generated
records.  A check raises ``CheckFailed`` with the reason; returning
means the output passed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from collections import deque

from workloads import Facts


class CheckFailed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _printed(stdout: str, key: str) -> str:
    match = re.search(rf"^{re.escape(key)}: (.*)$", stdout, re.MULTILINE)
    expect(match is not None, f"no '{key}:' line in the report")
    return match.group(1)


def check_stats(stdout: str, facts: Facts) -> None:
    for key, want in (("vertices", facts.n), ("hyperedges", facts.k), ("incidences", facts.incidences)):
        got = int(_printed(stdout, key))
        expect(got == want, f"stats {key} {got}, expected {want}")
    sizes = [int(x) for x in _printed(stdout, "component-sizes").split()]
    expect(len(sizes) == int(_printed(stdout, "components")), "component count differs from its size list")
    expect(sum(sizes) == facts.n, f"component sizes sum to {sum(sizes)}, expected {facts.n}")


def check_partition(text: str, stdout: str, n: int) -> None:
    """A JSON partition must label every vertex 1..n exactly once."""
    blocks = json.loads(text)
    expect(isinstance(blocks, dict), "partition is not a JSON object")
    seen = [v for members in blocks.values() for v in members]
    expect(len(seen) == n and set(seen) == set(range(1, n + 1)), "partition is not total over 1..n")
    printed = int(_printed(stdout, "communities"))
    expect(len(blocks) == printed, f"{len(blocks)} labels, but the report says {printed}")


def check_forecast(text: str, n: int) -> None:
    rows = list(csv.reader(io.StringIO(text)))
    expect(rows[:1] == [["vertex", "label", "stars", "forecast_hyper", "forecast_graph"]], "bad forecast header")
    body = rows[1:]
    expect(len(body) == n, f"forecast has {len(body)} rows, expected {n}")
    for v, row in enumerate(body, start=1):
        expect(len(row) == 5 and row[0] == str(v), f"forecast row {v} is {row!r}")
        for cell in row[2:]:
            expect(cell == "" or 1.0 <= float(cell) <= 5.0, f"forecast row {v} value {cell!r} outside [1, 5]")


def read_scores(text: str) -> list[tuple[int, float]]:
    rows = list(csv.reader(io.StringIO(text)))
    expect(rows[:1] == [["vertex", "label", "score"]], "bad betweenness header")
    expect(all(len(row) == 3 for row in rows[1:]), "betweenness row without three fields")
    return [(int(row[0]), float(row[2])) for row in rows[1:]]


def check_betweenness(text: str, top_k: int, n: int) -> None:
    ranked = read_scores(text)
    expect(len(ranked) == min(top_k, n), f"{len(ranked)} betweenness rows, expected {min(top_k, n)}")
    expect(all(score >= 0.0 for _, score in ranked), "negative betweenness score")
    keys = [(-score, v) for v, score in ranked]
    expect(keys == sorted(keys), "betweenness rows not sorted by (score desc, id asc)")


def check_dot(text: str, n: int, pairs: int) -> None:
    lines = text.splitlines()
    expect(lines[:1] == ["graph twosection {"] and lines[-1:] == ["}"], "bad dot framing")
    edges = sum(1 for line in lines if " -- " in line)
    nodes = len(lines) - 2 - edges
    expect(nodes == n, f"dot lists {nodes} nodes, expected {n}")
    expect(edges == pairs, f"dot has {edges} edges, expected {pairs} co-member pairs")


def check_hgf(text: str, facts: Facts) -> None:
    lines = text.splitlines()
    expect(lines[:1] == [f"{facts.n} {facts.k}"], f"HGF header {lines[:1]}, expected {facts.n} {facts.k}")
    expect(len(lines) == facts.k + 1, f"HGF has {len(lines) - 1} hyperedge lines, expected {facts.k}")
    members = [sorted(int(tok.split("=")[0]) for tok in line.split()) for line in lines[1:]]
    expect(members == facts.members, "HGF hyperedge members differ from the input")


def check_json(text: str, facts: Facts) -> None:
    doc = json.loads(text)
    expect((doc.get("n"), doc.get("k")) == (facts.n, facts.k), "JSON n/k differ from the input")
    members = [sorted(int(v) for v in col) for col in doc["he2v"]]
    expect(members == facts.members, "JSON hyperedge members differ from the input")
    cells = sum(len(row) for row in doc["v2he"])
    expect(cells == facts.incidences, f"JSON v2he holds {cells} cells, expected {facts.incidences}")


def s_adjacency_of(co_member_counts: dict[tuple[int, int], int], s: int) -> dict[int, set[int]]:
    """Adjacency of the vertices that share at least s hyperedges with another."""
    adj: dict[int, set[int]] = {}
    for (u, v), count in co_member_counts.items():
        if count >= s:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
    return adj


def components_of(adj: dict[int, set[int]]) -> list[dict[int, set[int]]]:
    """Split an adjacency map into its connected parts."""
    seen: set[int] = set()
    parts = []
    for start in sorted(adj):
        if start in seen:
            continue
        seen.add(start)
        queue, nodes = deque([start]), [start]
        while queue:
            for y in adj[queue.popleft()]:
                if y not in seen:
                    seen.add(y)
                    nodes.append(y)
                    queue.append(y)
        parts.append({v: adj[v] for v in nodes})
    return parts


def check_against_oracle(text: str, oracle: dict[int, float], top_k: int, n: int) -> None:
    """The printed top-k must carry the reference scores, and be the reference top-k.

    ``oracle`` holds the reference score of every vertex that is not
    isolated at threshold s; the others score 0.  The two sums run in
    different orders, so scores are compared within a tolerance, and the
    top-k as a list of scores rather than of ids.
    """
    ranked = read_scores(text)
    tol = 1e-9
    for v, score in ranked:
        want = oracle.get(v, 0.0)
        expect(math.isclose(score, want, rel_tol=tol, abs_tol=tol), f"vertex {v} score {score}, reference {want}")
    best = sorted(oracle.values(), reverse=True)[:top_k]
    best += [0.0] * (min(top_k, n) - len(best))
    got = [score for _, score in ranked]
    expect(
        all(math.isclose(a, b, rel_tol=tol, abs_tol=tol) for a, b in zip(got, best)),
        "printed top-k scores are not the reference top-k",
    )


def check_edit(stdout: str, n: int, k: int) -> None:
    """The edit child must end where the generator's own counters say, intact."""
    result = json.loads(stdout)
    expect((result["n"], result["k"]) == (n, k), f"driver counted n={result['n']} k={result['k']}, expected {n} {k}")
    expect((result["nhv"], result["nhe"]) == (n, k), f"hypergraph has n={result['nhv']} k={result['nhe']}, expected {n} {k}")
    expect(result["wrong_ids"] == 0, f"{result['wrong_ids']} returned ids or remaps differ from the documented ones")
    expect(result["consistent"], "check_dual_consistency() failed")
    expect(result["rejects_bad_id"], "an out-of-range member was not rejected with exit code 4")
