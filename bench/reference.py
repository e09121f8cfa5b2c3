"""A fixed pure-Python job that measures how fast the host runs right now.

    python3 bench/reference.py

It imports nothing from hgkit and never changes, so its CPU time moves
only with the host: the interpreter, and how much of the processor and
its caches the machine's other tenants leave.  The benchmark runs it
between its timed passes and scales its CPU times by it (see
``run.py``).  The work resembles hgkit's own: parse CSV text into
membership sets, expand them into a pair graph, sweep it breadth-first
and sort.  It prints a digest of its results, which must not change.
"""

from __future__ import annotations

import hashlib
import random
import sys
from collections import deque

ROWS = 24_000
GROUPS = 4_000
MEMBERS = 3_000
SOURCES = 12


def reference() -> str:
    rng = random.Random(20_200_213)
    text = "\n".join(f"{rng.randrange(GROUPS)},{rng.randrange(MEMBERS)},{rng.randrange(1, 6)}" for _ in range(ROWS))

    groups: dict[int, set[int]] = {}
    stars = 0
    for line in text.split("\n"):
        group, member, star = line.split(",")
        groups.setdefault(int(group), set()).add(int(member))
        stars += int(star)

    adjacency: dict[int, set[int]] = {}
    for members in groups.values():
        ordered = sorted(members)
        for i, u in enumerate(ordered):
            for v in ordered[i + 1:]:
                adjacency.setdefault(u, set()).add(v)
                adjacency.setdefault(v, set()).add(u)

    reach = []
    for source in sorted(adjacency)[:: max(len(adjacency) // SOURCES, 1)][:SOURCES]:
        depth = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                if v not in depth:
                    depth[v] = depth[u] + 1
                    queue.append(v)
        reach.append(sum(depth.values()))

    ranking = sorted(adjacency, key=lambda v: (-len(adjacency[v]), v))[:100]
    return hashlib.sha256(repr((stars, len(adjacency), reach, ranking)).encode()).hexdigest()


if __name__ == "__main__":
    print(reference())
    sys.exit(0)
