"""Seeded input generators and the facts the output checks compare against.

Everything here is computed from the generated records alone, never
through ``hgkit``, so that a check built on these facts cannot share a
defect with the code it checks.  The same seed always gives the same
inputs and the same facts.
"""

from __future__ import annotations

import bisect
import json
import random
from dataclasses import dataclass, field

# reviews: the shape of the acceptance generator, uniform draws.  Heavy
# item-popularity skew is deliberately absent: at this size a Zipf(1.0)
# variant makes `betweenness --s 2` run for minutes.
REVIEW_RECORDS = 100_000
REVIEW_ITEMS = 20_000
REVIEW_USERS = 10_000

# scenes: characters in tight groups, so the two-section graph has real
# community structure and s=2 keeps most co-member pairs.
SCENE_CHARACTERS = 6_000
SCENE_GROUP = 50
SCENE_COUNT = 12_000
SCENE_SIZES = (3, 12)
SCENE_GUEST_RATE = 0.2

# edit: the library mutation stream.
EDIT_VERTICES = 20_000
EDIT_HYPEREDGES = 10_000
EDIT_SIZES = (2, 16)
EDIT_OPS = 200_000
EDIT_ANALYTICS_EVERY = 50_000
EDIT_WEIGHTS = (0.5, 1.0, 2.0, None)

# Cumulative operation mix of the edit stream: half reads, half writes.
EDIT_MIX = (
    (0.25, "get_hyperedges"),
    (0.50, "get_vertices"),
    (0.70, "set_weight"),
    (0.775, "add_vertex"),
    (0.85, "add_hyperedge"),
    (0.925, "remove_vertex"),
    (1.0, "remove_hyperedge"),
)
EDIT_BOUNDS = [bound for bound, _ in EDIT_MIX]
EDIT_KINDS = [kind for _, kind in EDIT_MIX]


@dataclass
class Facts:
    """What a correct run on one generated input must report."""

    n: int
    k: int
    incidences: int
    members: list[list[int]] = field(repr=False)
    """Member vertex ids of each hyperedge, in hgkit's documented id order."""

    def co_member_counts(self) -> dict[tuple[int, int], int]:
        """Number of shared hyperedges for every co-occurring vertex pair."""
        counts: dict[tuple[int, int], int] = {}
        for members in self.members:
            ordered = sorted(members)
            for i, u in enumerate(ordered):
                for v in ordered[i + 1 :]:
                    counts[(u, v)] = counts.get((u, v), 0) + 1
        return counts


# --- reviews --------------------------------------------------------------------


def reviews_records(seed: int) -> list[tuple[str, str, int]]:
    rng = random.Random(seed)
    return [
        (f"u{rng.randrange(REVIEW_USERS)}", f"b{rng.randrange(REVIEW_ITEMS)}", rng.randint(1, 5))
        for _ in range(REVIEW_RECORDS)
    ]


def reviews_csv(records: list[tuple[str, str, int]]) -> str:
    lines = ["user_id,item_id,stars"]
    lines += [f"{u},{i},{s}" for u, i, s in records]
    return "\n".join(lines) + "\n"


def reviews_facts(records: list[tuple[str, str, int]]) -> Facts:
    """Items are vertices and users hyperedges, both numbered in first-seen order."""
    items: dict[str, int] = {}
    users: dict[str, set[int]] = {}
    for user, item, _ in records:
        v = items.setdefault(item, len(items) + 1)
        users.setdefault(user, set()).add(v)
    members = [sorted(m) for m in users.values()]
    return Facts(len(items), len(users), sum(map(len, members)), members)


def corrupt_reviews_csv(text: str, seed: int) -> str:
    """The same document with one stars cell out of 1..5 in its last tenth."""
    lines = text.splitlines()
    rng = random.Random(seed)
    row = rng.randrange(len(lines) * 9 // 10, len(lines))
    user, item, _ = lines[row].split(",")
    lines[row] = f"{user},{item},9"
    return "\n".join(lines) + "\n"


# --- scenes ---------------------------------------------------------------------


def scenes_members(seed: int) -> list[list[int]]:
    """Character indices per scene: one group, plus a guest in a fifth of them."""
    rng = random.Random(seed)
    groups = SCENE_CHARACTERS // SCENE_GROUP
    scenes = []
    for _ in range(SCENE_COUNT):
        g = rng.randrange(groups)
        size = rng.randint(*SCENE_SIZES)
        members = [g * SCENE_GROUP + j for j in rng.sample(range(SCENE_GROUP), size)]
        if rng.random() < SCENE_GUEST_RATE:
            other = rng.randrange(groups - 1)
            other += other >= g
            members.append(other * SCENE_GROUP + rng.randrange(SCENE_GROUP))
        scenes.append(members)
    return scenes


def scenes_json(scenes: list[list[int]]) -> str:
    doc = [
        {"id": f"s{i}", "members": [f"c{c}" for c in members]}
        for i, members in enumerate(scenes, start=1)
    ]
    return json.dumps(doc) + "\n"


def scenes_facts(scenes: list[list[int]]) -> Facts:
    """Characters are vertices in first-seen order, scenes are hyperedges."""
    ids: dict[int, int] = {}
    members = []
    for scene in scenes:
        members.append(sorted({ids.setdefault(c, len(ids) + 1) for c in scene}))
    return Facts(len(ids), len(scenes), sum(map(len, members)), members)


# --- edit -------------------------------------------------------------------------


def edit_build(seed: int) -> list[list[int]]:
    """Member lists of the hyperedges added to a fresh 20k-vertex hypergraph."""
    rng = random.Random(seed)
    return [
        rng.sample(range(1, EDIT_VERTICES + 1), rng.randint(*EDIT_SIZES))
        for _ in range(EDIT_HYPEREDGES)
    ]


def edit_ops(seed: int) -> tuple[list[tuple], int, int]:
    """The seeded operation stream, with the n and k it must end at.

    Ids are drawn from the live ranges, which depend only on the counts,
    so the whole stream is known before any of it runs.  An ``analytics``
    marker follows every ``EDIT_ANALYTICS_EVERY`` operations.
    """
    rng = random.Random(seed ^ 0x5EED)
    n, k = EDIT_VERTICES, EDIT_HYPEREDGES
    ops: list[tuple] = []
    for i in range(1, EDIT_OPS + 1):
        kind = EDIT_KINDS[bisect.bisect(EDIT_BOUNDS, rng.random())]
        if kind == "get_hyperedges":
            ops.append((kind, rng.randint(1, n)))
        elif kind == "get_vertices":
            ops.append((kind, rng.randint(1, k)))
        elif kind == "set_weight":
            ops.append((kind, rng.randint(1, n), rng.randint(1, k), rng.choice(EDIT_WEIGHTS)))
        elif kind == "add_vertex":
            ops.append((kind, rng.sample(range(1, k + 1), rng.randint(0, 3))))
            n += 1
        elif kind == "add_hyperedge":
            ops.append((kind, rng.sample(range(1, n + 1), rng.randint(*EDIT_SIZES))))
            k += 1
        elif kind == "remove_vertex":
            ops.append((kind, rng.randint(1, n)))
            n -= 1
        else:
            ops.append((kind, rng.randint(1, k)))
            k -= 1
        if i % EDIT_ANALYTICS_EVERY == 0:
            ops.append(("analytics",))
    return ops, n, k
