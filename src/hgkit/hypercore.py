"""Dual-indexed sparse hypergraph storage.

A hypergraph is held as an n-by-k matrix of optional weights: rows are
vertices (ids 1..n), columns are hyperedges (ids 1..k), and a present
cell (v, e) means v is a member of e with that weight.  Present cells
are stored twice, in a per-vertex and a per-hyperedge hash map, so
incidence queries cost O(1) from either side regardless of n and k.
This module is the only writer of the indexes and their metadata lists;
other modules only read them.  The mutators mirror each cell they write;
``_transpose`` is the one bulk mirror.  Readers and builders fill only the
hyperedge index and hand it to ``Hypergraph._from_columns``, which derives
the vertex index, each row in ascending hyperedge id.  ``_from_rows``
adopts both sides, for the callers that hold both (``copy``, ``read_json``,
the CLI's load-cache loader).  Neither checks ids or weights: their callers do.

This module owns the one check of the integers (``check_int``) and
weights (``check_weight``) that arrive as Python values: caller
arguments, decoded JSON and parsed options.  Bools, and for integers
floats and strings, are rejected, not coerced.  ``check_ints`` checks a
whole collection together, in C, and walks it one by one only to name the
first bad value: ``add_vertex`` and ``add_hyperedge`` check the ids of one
call with it, ``Partition`` its ids and labels.

Ids stay contiguous across removals: the highest-numbered vertex (or
hyperedge) moves into the freed slot, and the move is reported to the
caller as an id remap ``{old_id: new_id}``.

Empty hyperedges and vertices with no incident hyperedge are legal.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Mapping
from typing import Any, Iterable

from .errors import (
    NonFiniteWeightError,
    NonNumericWeightError,
    NonRectangularError,
    UnknownHyperedgeError,
    UnknownVertexError,
)

__all__ = ["Hypergraph", "IdRemap", "DEFAULT_WEIGHT", "check_int", "check_ints", "check_id", "check_weight"]

IdRemap = dict[int, int]
WeightMap = dict[int, float]

DEFAULT_WEIGHT = 1.0


# Python spells every int strictly between these in decimal, whatever its
# digit limit (``sys.set_int_max_str_digits`` takes no limit below 640).
_SPELLED_LOW, _SPELLED_HIGH = -(10**640), 10**640


def _spelled(value: int) -> bool:
    """Whether Python spells ``value`` in decimal under its digit limit."""
    try:
        repr(value)
    except ValueError:
        return False
    return True


def check_int(value: Any, low: int | None, high: int | None, error: type[Exception], what: str) -> int:
    """``value`` if it is an ``int``, not a ``bool``, in ``low..high`` (None leaves an end open); else ``error``.

    An open end stops at the ints Python spells in decimal, so every int
    this returns can be printed: a larger one raises ``error`` with its
    digit count.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        # A closed end costs one comparison, as without the open ends' limit.
        if (value > _SPELLED_LOW or _spelled(value) if low is None else low <= value) and (
            value < _SPELLED_HIGH or _spelled(value) if high is None else value <= high
        ):
            return value
    if low is None:
        kind = "an integer" if high is None else f"an integer of at most {high}"
    elif high is None:
        kind = f"an integer of at least {low}"
    else:
        kind = f"the integer {low}" if low == high else f"an integer in {low}..{high}"
    try:
        got = repr(value)
    except ValueError:  # Python spells no int of more than sys.get_int_max_str_digits() digits
        from decimal import Decimal
        got = f"a {'negative' if value < 0 else 'positive'} integer of {len(Decimal(value).as_tuple().digits)} digits"
    raise error(f"{what} must be {kind}, got {got}")


def check_id(i: Any, n: int, error: type[Exception], noun: str) -> None:
    """Raise ``error`` unless ``i`` is an int id in 1..n (bools are not ids)."""
    check_int(i, 1, n, error, noun)


def check_ints(values: Collection[Any], low: int | None, high: int | None, error: type[Exception], what: str) -> bool:
    """Check every one of ``values`` as ``check_int`` does; whether all are plain ``int``s.

    The types are checked all at once, in C, and then the extremes, which
    bound the rest.  Only when that fails are the values walked with
    ``check_int``, which raises ``error`` for the first bad one in
    iteration order; a walk that passes met an int subclass, whose values
    the caller stores as plain ints.
    """
    floor = _SPELLED_LOW if low is None else low - 1
    ceiling = _SPELLED_HIGH if high is None else high + 1
    if not values or (set(map(type, values)) == {int} and floor < min(values) and max(values) < ceiling):
        return True
    for value in values:
        check_int(value, low, high, error, what)
    return False


def check_weight(value: Any, error: type[Exception] | None = None, what: str = "weight") -> float:
    """A finite int or float weight as a float; bools, strings and other types are rejected.

    A bad weight raises ``error``, by default ``NonNumericWeightError`` or ``NonFiniteWeightError``, naming ``what``.
    """
    if type(value) is not float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise (error or NonNumericWeightError)(f"{what} must be an int or float, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            raise (error or NonFiniteWeightError)(f"{what} must be finite, got an int beyond the float range") from None
    if not math.isfinite(value):
        raise (error or NonFiniteWeightError)(f"{what} must be finite, got {value!r}")
    return value


def _as_weight_map(memberships: Any, n: int, error: type[Exception], noun: str) -> WeightMap:
    """Normalize a membership argument and check its ids against 1..n.

    Accepts None, a mapping id -> weight, or a bare iterable of ids
    (each of which gets ``DEFAULT_WEIGHT``).  Weights are checked first.
    The ids are then checked against 1..n by ``check_ints``, all at once
    but for the first bad one, which raises ``error``.  The ids of an
    accepted int subclass are stored as plain ints.
    """
    if memberships is None:
        return {}
    if isinstance(memberships, Mapping):
        ids = members = {i: check_weight(w) for i, w in memberships.items()}
    else:
        # The raw ids, not the deduplicated keys: [1, True] must fail too.
        ids = memberships if type(memberships) in (list, tuple) else list(memberships)
        members = dict.fromkeys(ids, DEFAULT_WEIGHT)
    if not check_ints(ids, 1, n, error, noun):
        members = {int(i): w for i, w in members.items()}
    return members


def _transpose(rows: list[WeightMap], width: int) -> list[WeightMap]:
    """``width`` maps holding each cell (i, j) of ``rows``, whose ids lie in 1..width, as (j, i).

    The maps are filled through a spare slot 0, dropped at the end, so that id j is its own index.
    """
    out: list[WeightMap] = [{} for _ in range(width + 1)]
    for i, row in enumerate(rows, start=1):
        for j, w in row.items():
            out[j][i] = w
    del out[0]
    return out


def _append(own: list[WeightMap], other: list[WeightMap], meta: list, members: WeightMap, value: Any) -> int:
    """Append checked ``members`` as the next id of ``own`` and mirror them into ``other``."""
    i = len(own) + 1
    own.append(members)
    meta.append(value)
    for j, w in members.items():
        other[j - 1][i] = w
    return i


def _swap_remove(own: list[WeightMap], other: list[WeightMap], meta: list, i: int) -> IdRemap:
    """Remove checked id ``i`` of ``own``; the last id moves into its slot.

    Each cell of the moved id in ``other`` is deleted and re-inserted
    under its new id.  Returns the remap {old_id: new_id}.
    """
    last = len(own)
    for j in own[i - 1]:
        del other[j - 1][i]
    remap: IdRemap = {}
    if i != last:
        moved = own[i - 1] = own[last - 1]
        meta[i - 1] = meta[last - 1]
        for j, w in moved.items():
            cells = other[j - 1]
            del cells[last]
            cells[i] = w
        remap[last] = i
    own.pop()
    meta.pop()
    return remap


class Hypergraph:
    """Mutable weighted hypergraph with optional per-id metadata.

    Metadata values are opaque to the structure; they ride along with
    their id through moves and are dropped only when the id itself is
    removed.
    """

    __slots__ = ("_v2he", "_he2v", "_vmeta", "_hemeta")

    def __init__(self, n: int = 0, k: int = 0) -> None:
        check_int(n, 0, None, ValueError, "vertex count")
        check_int(k, 0, None, ValueError, "hyperedge count")
        self._v2he: list[WeightMap] = [{} for _ in range(n)]
        self._he2v: list[WeightMap] = [{} for _ in range(k)]
        self._vmeta: list[Any] = [None] * n
        self._hemeta: list[Any] = [None] * k

    # --- construction ------------------------------------------------------

    @classmethod
    def from_incidence(cls, matrix: Iterable[Iterable[Any]]) -> "Hypergraph":
        """Build from a dense n-by-k matrix of optional weights.

        A cell that is None means "not a member".  Rows must all have
        the same length; weights must be finite ints or floats.
        """
        rows = [list(row) for row in matrix]
        k = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != k:
                raise NonRectangularError(
                    f"incidence rows must share one length, saw {len(row)} and {k}"
                )
        v2he = [{e: check_weight(c) for e, c in enumerate(row, start=1) if c is not None} for row in rows]
        return cls._from_rows(v2he, _transpose(v2he, k), [None] * len(rows), [None] * k)

    @classmethod
    def _from_columns(cls, he2v: list[WeightMap], n: int, vmeta: list, hemeta: list) -> "Hypergraph":
        """Adopt the hyperedge index, whose member ids the caller checked against 1..n, and derive the vertex index."""
        return cls._from_rows(_transpose(he2v, n), he2v, vmeta, hemeta)

    @classmethod
    def _from_rows(cls, v2he: list[WeightMap], he2v: list[WeightMap], vmeta: list, hemeta: list) -> "Hypergraph":
        """Adopt the four lists as they are; the caller has checked that the two sides agree."""
        h = cls.__new__(cls)
        h._v2he, h._he2v, h._vmeta, h._hemeta = v2he, he2v, vmeta, hemeta
        return h

    # --- sizes and iteration -----------------------------------------------

    @property
    def nhv(self) -> int:
        """Number of vertices."""
        return len(self._v2he)

    @property
    def nhe(self) -> int:
        """Number of hyperedges."""
        return len(self._he2v)

    @property
    def incidence_count(self) -> int:
        """Number of present (vertex, hyperedge) cells."""
        return sum(len(row) for row in self._v2he)

    def vertices(self) -> range:
        return range(1, self.nhv + 1)

    def hyperedges(self) -> range:
        return range(1, self.nhe + 1)

    def degree(self, v: int) -> int:
        """Number of hyperedges incident to v."""
        self._check_vertex(v)
        return len(self._v2he[v - 1])

    def hyperedge_size(self, e: int) -> int:
        """Number of member vertices of e."""
        self._check_hyperedge(e)
        return len(self._he2v[e - 1])

    # --- incidence queries --------------------------------------------------

    def get_hyperedges(self, v: int) -> WeightMap:
        """Snapshot of {hyperedge id: weight} for the hyperedges containing v."""
        self._check_vertex(v)
        return dict(self._v2he[v - 1])

    def get_vertices(self, e: int) -> WeightMap:
        """Snapshot of {vertex id: weight} for the members of e."""
        self._check_hyperedge(e)
        return dict(self._he2v[e - 1])

    def get_weight(self, v: int, e: int) -> float | None:
        self._check_vertex(v)
        self._check_hyperedge(e)
        return self._v2he[v - 1].get(e)

    def set_weight(self, v: int, e: int, weight: Any) -> float | None:
        """Set, overwrite, or (with None) clear one incidence cell.

        Returns the previous weight of the cell, or None if it was absent.
        """
        self._check_vertex(v)
        self._check_hyperedge(e)
        row = self._v2he[v - 1]
        previous = row.get(e)
        if weight is None:
            if e in row:
                del row[e]
                del self._he2v[e - 1][v]
        else:
            w = check_weight(weight)
            row[e] = w
            self._he2v[e - 1][v] = w
        return previous

    # --- mutation -----------------------------------------------------------

    def add_vertex(self, hyperedges: Any = None, meta: Any = None) -> int:
        """Append a vertex; optional memberships are applied atomically.

        ``hyperedges`` may be a mapping {hyperedge id: weight} or an
        iterable of hyperedge ids (default weight 1.0).  The ids are
        checked once per call, not once per member.  Returns the new
        vertex id.
        """
        members = _as_weight_map(hyperedges, len(self._he2v), UnknownHyperedgeError, "hyperedge")
        return _append(self._v2he, self._he2v, self._vmeta, members, meta)

    def add_hyperedge(self, vertices: Any = None, meta: Any = None) -> int:
        """Append a hyperedge; optional memberships are applied atomically."""
        members = _as_weight_map(vertices, len(self._v2he), UnknownVertexError, "vertex")
        return _append(self._he2v, self._v2he, self._hemeta, members, meta)

    def remove_vertex(self, v: int) -> IdRemap:
        """Remove v; the last vertex takes its id.

        Returns {old_id: new_id} for the relocated vertex (empty when v
        was already the last one).
        """
        self._check_vertex(v)
        return _swap_remove(self._v2he, self._he2v, self._vmeta, v)

    def remove_hyperedge(self, e: int) -> IdRemap:
        """Remove e; the last hyperedge takes its id."""
        self._check_hyperedge(e)
        return _swap_remove(self._he2v, self._v2he, self._hemeta, e)

    # --- metadata ------------------------------------------------------------

    def set_vertex_meta(self, v: int, value: Any) -> None:
        self._check_vertex(v)
        self._vmeta[v - 1] = value

    def get_vertex_meta(self, v: int) -> Any:
        self._check_vertex(v)
        return self._vmeta[v - 1]

    def set_hyperedge_meta(self, e: int, value: Any) -> None:
        self._check_hyperedge(e)
        self._hemeta[e - 1] = value

    def get_hyperedge_meta(self, e: int) -> Any:
        self._check_hyperedge(e)
        return self._hemeta[e - 1]

    # --- export and comparison ------------------------------------------------

    def to_incidence(self) -> list[list[float | None]]:
        """Dense n-by-k matrix of weights with None for absent cells."""
        k = self.nhe
        return [[row.get(e) for e in range(1, k + 1)] for row in self._v2he]

    def copy(self) -> "Hypergraph":
        rows = [dict(row) for row in self._v2he], [dict(col) for col in self._he2v]
        return Hypergraph._from_rows(*rows, list(self._vmeta), list(self._hemeta))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (
            self._v2he == other._v2he
            and self._he2v == other._he2v
            and self._vmeta == other._vmeta
            and self._hemeta == other._hemeta
        )

    def __repr__(self) -> str:
        return (
            f"Hypergraph(n={self.nhv}, k={self.nhe}, "
            f"incidences={self.incidence_count})"
        )

    # --- internal -------------------------------------------------------------

    # check_id with a fast path, for the single ids that queries, removals
    # and set_weight take: an exact int in range passes after one type()
    # call; anything else goes to check_id, which raises or (for an int
    # subclass) passes.
    def _check_vertex(self, v: int) -> None:
        if type(v) is not int or not 0 < v <= len(self._v2he):
            check_id(v, len(self._v2he), UnknownVertexError, "vertex")

    def _check_hyperedge(self, e: int) -> None:
        if type(e) is not int or not 0 < e <= len(self._he2v):
            check_id(e, len(self._he2v), UnknownHyperedgeError, "hyperedge")

    def check_dual_consistency(self) -> bool:
        """Verify the two indexes describe the same cell set, without building a copy of either.

        Every hyperedge cell must lie in 1..n and appear in the vertex
        index with the same weight, and both indexes must hold the same
        number of cells.  Distinct hyperedge cells find distinct vertex
        cells, so equal counts leave the vertex index no other cell, and
        none with a hyperedge id outside 1..k.  The mutators keep this
        true by construction; ``read_json`` runs it on every document it
        reads.
        """
        v2he = self._v2he
        n = len(v2he)
        cells = 0
        for e, col in enumerate(self._he2v, start=1):
            if col:
                if not (1 <= min(col) and max(col) <= n):
                    return False
                cells += len(col)
                for v, w in col.items():
                    if v2he[v - 1].get(e) != w:
                        return False
        return cells == self.incidence_count
