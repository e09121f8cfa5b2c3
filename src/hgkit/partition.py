"""Vertex partitions: every vertex gets exactly one community label.

Serialized forms:

* JSON - object mapping label -> sorted list of vertex ids
* CSV  - header ``vertex,label``, one row per vertex, sorted by vertex
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Iterable, Mapping

from .errors import FormatError
from .hgio import _csv_chunks, _csv_rows, _json, _number
from .hypercore import check_int

__all__ = ["Partition"]


class Partition:
    """Immutable-by-convention map of vertex id -> community label."""

    __slots__ = ("labels",)

    def __init__(self, labels: Mapping[int, int]) -> None:
        self.labels: dict[int, int] = dict(labels)

    @classmethod
    def from_communities(cls, communities: Iterable[Iterable[int]]) -> "Partition":
        labels: dict[int, int] = {}
        for idx, block in enumerate(communities, start=1):
            for v in block:
                if v in labels:
                    raise ValueError(f"vertex {v} appears in two communities")
                labels[v] = idx
        return cls(labels)

    def vertices(self) -> set[int]:
        return set(self.labels)

    def communities(self) -> dict[int, set[int]]:
        """Label -> set of member vertices."""
        blocks: dict[int, set[int]] = {}
        for v, lab in self.labels.items():
            blocks.setdefault(lab, set()).add(v)
        return blocks

    @property
    def community_count(self) -> int:
        return len(set(self.labels.values()))

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.labels == other.labels

    def same_blocks(self, other: "Partition") -> bool:
        """True when the two partitions induce the same communities,
        ignoring the label values themselves."""
        if self.vertices() != other.vertices():
            return False
        mine = sorted(frozenset(b) for b in self.communities().values())
        theirs = sorted(frozenset(b) for b in other.communities().values())
        return mine == theirs

    def __repr__(self) -> str:
        return f"Partition(vertices={len(self.labels)}, communities={self.community_count})"

    # --- serialization -------------------------------------------------------

    def to_json_text(self) -> str:
        blocks = {
            str(lab): sorted(members)
            for lab, members in sorted(self.communities().items())
        }
        return json.dumps(blocks, indent=2) + "\n"

    @classmethod
    def from_json_text(cls, text: str) -> "Partition":
        obj = _json(text, dict, FormatError, "partition document")
        blocks = {_number(key, int, FormatError, "partition label"): members for key, members in obj.items()}
        if len(blocks) != len(obj):
            raise FormatError("two partition JSON keys name the same label")
        labels: dict[int, int] = {}
        for lab, members in blocks.items():
            if not isinstance(members, list):
                raise FormatError(f"community {lab} must be a list of vertex ids")
            for v in members:
                check_int(v, None, None, FormatError, "vertex id")
                if v in labels:
                    raise FormatError(f"vertex {v} labeled twice")
                labels[v] = lab
        return cls(labels)

    def to_csv_text(self) -> str:
        rows = ([str(v), str(self.labels[v])] for v in sorted(self.labels))
        return "".join(_csv_chunks(chain([["vertex", "label"]], rows)))

    @classmethod
    def from_csv_text(cls, text: str) -> "Partition":
        labels: dict[int, int] = {}
        for row in _csv_rows(text, ["vertex", "label"], FormatError, "partition"):
            if len(row) != 2:
                raise FormatError(f"partition CSV row {row!r} must have two fields")
            v = _number(row[0], int, FormatError, "partition vertex")
            lab = _number(row[1], int, FormatError, "partition label")
            if v in labels:
                raise FormatError(f"vertex {v} labeled twice")
            labels[v] = lab
        return cls(labels)
