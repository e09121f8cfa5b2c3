"""Serialization and dataset ingestion.

Text format (HGF)
    Header line ``n k``, then exactly k lines, one per hyperedge, each
    a single-space-joined list of ``vertex=weight`` tokens in vertex
    order.  Weights are written in shortest round-trip float form (so
    they always carry a decimal point or an exponent).  An empty
    hyperedge is an empty line.  Metadata is not part of this format.
    Lines end at ``\n``, ``\r\n`` or ``\r``; readers tolerate extra
    spaces and tabs between the tokens of an ASCII document.  The vertex
    rows, one per declared vertex, are allocated once every hyperedge
    line is read, so a header may declare at most ``MAX_HGF_VERTICES``
    vertices; the writer refuses a larger hypergraph, so every document
    it writes reads back.

JSON format
    Object with ``format_version`` (1), ``n``, ``k``, ``v2he`` and
    ``he2v`` (arrays of {id: weight} objects, position i holding id
    i+1), and ``vmeta``/``hemeta`` (aligned arrays of arbitrary JSON
    values).  Both incidence directions are stored and must agree.
    Round-trips preserve metadata.

Both writers come as generators of text chunks, one per incidence row
(``hgf_chunks``, ``json_chunks``), so a caller can stream a document
without holding it; ``write_hgf`` and ``write_json`` join the chunks.

CSV tables
    Every CSV table hgkit reads or writes (reviews, partitions, scores,
    forecasts) is in one dialect, owned here: ``_csv_rows`` reads and
    ``_csv_chunks`` writes it.

JSON documents
    Every JSON document hgkit reads is decoded here, by ``_json``.

Every number hgkit reads from text, CLI options included, is in one
grammar, owned here: ``_number`` reads it.  ``review_rows`` looks the five
canonical star cells ``"1"``..``"5"`` up in a table built by calling
``_number``, and hands every other spelling to ``_number`` itself.

Dataset builders turn review CSVs (``user_id,item_id,stars``) and
scene JSON (array of ``{"id": ..., "members": [...]}``) into
hypergraphs, keeping the external ids as labels and metadata.  They and
``read_hgf`` hand only the hyperedge index to ``Hypergraph._from_columns``;
``read_json`` adopts both through ``_from_rows`` and checks that they agree.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from itertools import chain
from types import SimpleNamespace
from typing import Any, Callable, Iterable, Iterator

from .errors import (
    BadWeightTokenError,
    DualInconsistencyError,
    FormatError,
    IndexOutOfRangeError,
    LineCountMismatchError,
    MalformedHeaderError,
    MalformedRecordError,
    SchemaViolationError,
)
from .hypercore import Hypergraph, check_int, check_weight

__all__ = [
    "FORMAT_VERSION",
    "MAX_HGF_VERTICES",
    "hgf_chunks",
    "json_chunks",
    "write_hgf",
    "read_hgf",
    "write_json",
    "read_json",
    "review_rows",
    "scene_rows",
    "read_reviews_csv",
    "read_scenes_json",
    "build_from_reviews",
    "build_from_scenes",
]

FORMAT_VERSION = 1
# 2**21 admits the paper's Yelp scale (about 1.6 million users) even with users as vertices.
MAX_HGF_VERTICES = 2**21
# ASCII controls that str.splitlines or str.split take for a line break or a blank.
_FOREIGN_SEPARATORS = "\x0b\x0c\x1c\x1d\x1e\x1f"


def _number(text: str, kind: type[int] | type[float], error: type[Exception], what: str) -> Any:
    """``text`` read as ``kind``, ``int`` or ``float``, if ASCII without ``_``; else ``error``.

    Underscores and digits or blanks of other scripts, which ``kind`` reads, are refused.
    """
    if text.isascii() and "_" not in text:
        try:
            return kind(text)
        except ValueError:
            pass
    raise error(f"{what} {text!r} is not {'an integer' if kind is int else 'a float'}")


# --- HGF text format -----------------------------------------------------------


def hgf_chunks(h: Hypergraph) -> Iterator[str]:
    """The HGF document as text chunks: the header, then one line per hyperedge.

    A hypergraph of more than ``MAX_HGF_VERTICES`` vertices, whose
    header ``read_hgf`` would refuse, raises ``MalformedHeaderError``
    here, before any chunk is made.
    """
    if h.nhv > MAX_HGF_VERTICES:
        raise MalformedHeaderError(f"{h.nhv} vertices are above the HGF limit of {MAX_HGF_VERTICES}")
    return chain(
        [f"{h.nhv} {h.nhe}\n"],
        (" ".join(f"{v}={members[v]!r}" for v in sorted(members)) + "\n" for members in h._he2v),
    )


def write_hgf(h: Hypergraph) -> str:
    return "".join(hgf_chunks(h))


def read_hgf(text: str) -> Hypergraph:
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:
        lines.pop()  # the end of the last line, or of an empty document
    if not lines:
        raise MalformedHeaderError("missing header line")
    header = lines[0].split()
    if len(header) != 2 or not lines[0].isascii() or any(c in lines[0] for c in _FOREIGN_SEPARATORS):
        raise MalformedHeaderError(f"header must be two integers, got {lines[0]!r}")
    # The writer writes ASCII only; other text could hide a Unicode blank or line break.
    if not text.isascii():
        raise BadWeightTokenError("hyperedge lines must be ASCII text")
    if any(c in text for c in _FOREIGN_SEPARATORS):
        raise BadWeightTokenError("only spaces and tabs may separate the tokens of a hyperedge line")
    n = _number(header[0], int, MalformedHeaderError, "vertex count")
    k = _number(header[1], int, MalformedHeaderError, "hyperedge count")
    check_int(n, 0, MAX_HGF_VERTICES, MalformedHeaderError, "vertex count")
    check_int(k, 0, None, MalformedHeaderError, "hyperedge count")
    body = lines[1:]
    if len(body) != k:
        raise LineCountMismatchError(
            f"expected {k} hyperedge lines, found {len(body)}"
        )
    he2v: list[dict[int, float]] = [{} for _ in range(k)]
    for e, (line, col) in enumerate(zip(body, he2v), start=1):
        for token in line.split():
            left, sep, right = token.partition("=")
            if not sep or not left or not right:
                raise BadWeightTokenError(
                    f"token {token!r} is not of the form vertex=weight"
                )
            v = _number(left, int, BadWeightTokenError, "vertex id")
            w = _number(right, float, BadWeightTokenError, "weight")
            if not math.isfinite(w):
                raise BadWeightTokenError(f"weight {right!r} is not finite")
            if not 1 <= v <= n:
                raise IndexOutOfRangeError(
                    f"vertex {v} outside 1..{n} on hyperedge line {e}"
                )
            if v in col:
                raise BadWeightTokenError(f"vertex {v} appears twice on hyperedge line {e}")
            col[v] = w
    return Hypergraph._from_columns(he2v, n, [None] * n, [None] * k)


# --- JSON format -----------------------------------------------------------------


# Metadata values are encoded one at a time, as ``json.dumps(value,
# indent=2)`` would; each is then indented by the four spaces of its
# place in the document.  An encoded string holds no literal newline.
_META_ENCODER = json.JSONEncoder(indent=2)


def _weights_json(row: dict[int, float]) -> str:
    """One incidence row as an object at depth 2 of an indent-2 document.

    Weights are floats, so ``repr`` is the spelling ``json`` gives them.
    """
    if not row:
        return "{}"
    body = ",\n      ".join(f'"{i}": {row[i]!r}' for i in sorted(row))
    return "{\n      " + body + "\n    }"


def _meta_json(value: object) -> str:
    """One metadata value at depth 2 of an indent-2 document.

    Most ids carry no metadata, and None spells ``null`` without a call
    into the encoder, whose indenting path runs in Python.
    """
    if value is None:
        return "null"
    return _META_ENCODER.encode(value).replace("\n", "\n    ")


def _json_array(key: str, items: list[Any], encode: Callable[[Any], str]) -> Iterator[str]:
    """A top-level ``"key": [...]`` member, one chunk per item."""
    if not items:
        yield f',\n  "{key}": []'
        return
    sep = f',\n  "{key}": [\n    '
    for item in items:
        yield sep + encode(item)
        sep = ",\n    "
    yield "\n  ]"


def json_chunks(h: Hypergraph) -> Iterator[str]:
    """The JSON document as text chunks, one per incidence row or metadata value.

    The chunks join to exactly the text of ``json.dumps(doc, indent=2)``
    plus a final newline, without building ``doc``.
    """
    yield f'{{\n  "format_version": {FORMAT_VERSION},\n  "n": {h.nhv},\n  "k": {h.nhe}'
    yield from _json_array("v2he", h._v2he, _weights_json)
    yield from _json_array("he2v", h._he2v, _weights_json)
    yield from _json_array("vmeta", h._vmeta, _meta_json)
    yield from _json_array("hemeta", h._hemeta, _meta_json)
    yield "\n}\n"


def write_json(h: Hypergraph) -> str:
    return "".join(json_chunks(h))


def _unique_names(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """The members of one JSON object as a plain ``dict``; a repeated name raises ``ValueError``."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise ValueError(f"object name {Counter(name for name, _ in pairs).most_common(1)[0][0]!r} repeats")
    return obj


def _json(text: str, top: type[dict] | type[list], error: type[FormatError], what: str) -> Any:
    """``text`` as one JSON value of kind ``top``, ``dict`` or ``list``; else ``error``.

    ``json`` raises ``ValueError`` (for an integer of over 4,300 digits too) or ``RecursionError``.
    A repeated object name, left open by RFC 8259, is refused; objects stay plain ``dict``s for ``marshal``.
    """
    try:
        doc = json.loads(text, object_pairs_hook=_unique_names)
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(doc, top):
        raise error(f"{what} must be a JSON {'object' if top is dict else 'array'}")
    return doc


def _parse_weight_object(obj: object, limit: int, what: str) -> dict[int, float]:
    if not isinstance(obj, dict):
        raise SchemaViolationError(f"{what} entries must be objects")
    out: dict[int, float] = {}
    key_name, id_name, weight_name = f"{what} key", f"{what} id", f"{what} weight"
    for key, value in obj.items():
        ident = _number(key, int, SchemaViolationError, key_name)
        check_int(ident, 1, limit, SchemaViolationError, id_name)
        out[ident] = check_weight(value, SchemaViolationError, weight_name)
    if len(out) != len(obj):
        raise SchemaViolationError(f"two {what} keys of one row name the same id")
    return out


def _check_encodable(strings: Iterable[str], error: type[FormatError], what: str) -> None:
    """Reject a string holding a lone surrogate, which no UTF-8 writer can encode.

    Decoded UTF-8 holds none, so only a JSON ``\\u`` escape can make one;
    a caller may skip a document whose text contains no such escape.
    """
    for s in strings:
        try:
            s.encode("utf-8")
        except UnicodeEncodeError:
            raise error(f"{what} {s!r} holds a lone surrogate") from None


def read_json(text: str) -> Hypergraph:
    doc = _json(text, dict, SchemaViolationError, "document")
    check_int(doc.get("format_version"), FORMAT_VERSION, FORMAT_VERSION, SchemaViolationError, "format_version")
    n = check_int(doc.get("n"), 0, None, SchemaViolationError, "n")
    k = check_int(doc.get("k"), 0, None, SchemaViolationError, "k")
    v2he, he2v = doc.get("v2he"), doc.get("he2v")
    if not isinstance(v2he, list) or len(v2he) != n:
        raise SchemaViolationError("v2he must be an array of length n")
    if not isinstance(he2v, list) or len(he2v) != k:
        raise SchemaViolationError("he2v must be an array of length k")
    vmeta = doc.get("vmeta", [None] * n)
    hemeta = doc.get("hemeta", [None] * k)
    if not isinstance(vmeta, list) or len(vmeta) != n:
        raise SchemaViolationError("vmeta must be an array of length n")
    if not isinstance(hemeta, list) or len(hemeta) != k:
        raise SchemaViolationError("hemeta must be an array of length k")
    if "\\u" in text:
        strings = [m for m in (*vmeta, *hemeta) if isinstance(m, str)]
        _check_encodable(strings, SchemaViolationError, "metadata")
    h = Hypergraph._from_rows(
        [_parse_weight_object(obj, k, "v2he") for obj in v2he],
        [_parse_weight_object(obj, n, "he2v") for obj in he2v],
        list(vmeta),
        list(hemeta),
    )
    if not h.check_dual_consistency():
        raise DualInconsistencyError("v2he and he2v do not hold the same cells")
    return h


# --- CSV tables and dataset rows -------------------------------------------------


def _csv_rows(text: str, header: list[str], error: type[FormatError], what: str) -> Iterator[list[str]]:
    """The rows after the header of a CSV table; a malformed table raises ``error``.

    A leading byte order mark, as spreadsheet exports write it, is
    skipped, and so is every empty line; an empty document has no rows.
    The first row, its cells stripped, must be ``header``.
    """
    rows = filter(None, csv.reader(io.StringIO(text.removeprefix("\ufeff"))))
    try:
        first = next(rows, None)
        if first is not None and [c.strip() for c in first] != header:
            raise error(f"{what} CSV must start with header {','.join(header)}")
        yield from rows
    except csv.Error as exc:
        raise error(f"{what} CSV unparseable: {exc}") from None


def _csv_chunks(rows: Iterable[list[str]]) -> Iterator[str]:
    """CSV records with ``\n`` line ends, one chunk per row; only cells that need it are quoted.

    The writer ends each record with ``\r\n``, one ``write`` call per
    record, so that a cell holding a bare ``\r`` is quoted too: before
    Python 3.13 only characters of the line terminator force quotes.
    Each record's ``\r\n`` is then cut back to ``\n``.
    """
    records: list[str] = []
    writer = csv.writer(SimpleNamespace(write=records.append), lineterminator="\r\n")
    for row in rows:
        writer.writerow(row)
        yield records.pop()[:-2] + "\n"


# The canonical star cells, each read by ``_number``, so the number grammar keeps one source.
_STARS = {cell: _number(cell, int, MalformedRecordError, "stars") for cell in "12345"}


def review_rows(text: str) -> Iterator[tuple[str, str, int]]:
    """Validate a review CSV with header ``user_id,item_id,stars`` row by row.

    Yields ``(user_id, item_id, stars)`` lazily, so a malformed row
    raises only when it is reached.  A leading byte order mark and empty
    lines are skipped; an empty document (or just the header) yields
    nothing.
    """
    for row in _csv_rows(text, ["user_id", "item_id", "stars"], MalformedRecordError, "review"):
        try:
            user, item, stars_text = row
        except ValueError:
            raise MalformedRecordError(f"review row {row!r} must have three fields") from None
        stars = _STARS.get(stars_text)
        if stars is None:
            stars = _number(stars_text, int, MalformedRecordError, "stars")
            if not 1 <= stars <= 5:
                raise MalformedRecordError(f"stars must be in 1..5, got {stars}")
        yield user, item, stars


def read_reviews_csv(text: str) -> list[tuple[str, str, int]]:
    """All rows of ``review_rows`` at once."""
    return list(review_rows(text))


def scene_rows(text: str) -> Iterator[tuple[str, list[str]]]:
    """Validate scene JSON: an array of {"id": ..., "members": [text, ...]}.

    Yields ``(scene_id, members)`` lazily, with the id as text and the
    members deduplicated, first occurrence winning.  Scenes whose member
    list is empty are skipped.  An id or member holding a lone surrogate
    escape is rejected.
    """
    doc = _json(text, list, MalformedRecordError, "scene document")
    escaped = "\\u" in text
    for entry in doc:
        if not isinstance(entry, dict) or "id" not in entry or "members" not in entry:
            raise MalformedRecordError(f"scene entry {entry!r} needs id and members")
        members = entry["members"]
        if not isinstance(members, list) or not all(isinstance(m, str) for m in members):
            raise MalformedRecordError(f"scene {entry['id']!r} members must be strings")
        if members:
            scene_id = str(entry["id"])
            members = list(dict.fromkeys(members))
            if escaped:
                _check_encodable([scene_id, *members], MalformedRecordError, f"scene {scene_id!r}:")
            yield scene_id, members


def read_scenes_json(text: str) -> list[tuple[str, list[str]]]:
    """All rows of ``scene_rows`` at once."""
    return list(scene_rows(text))


# --- dataset builders -----------------------------------------------------------------


def build_from_reviews(
    rows: Iterable[tuple[str, str, int]],
    star_filter: Iterable[int] | None = None,
) -> tuple[Hypergraph, list[str], list[str]]:
    """One vertex per distinct item, one hyperedge per distinct user.

    ``rows`` are ``(user_id, item_id, stars)`` tuples, as
    ``review_rows`` yields them, consumed in one pass.
    With a star filter, only reviews whose star value is in the filter
    survive; users and items left without any surviving review get no
    id.  Ids are assigned in first-seen order, and so are each user's
    items; each item's users iterate in ascending id.  Duplicate (user,
    item) pairs collapse to a single membership of weight 1.  Returns the
    hypergraph plus item and user label tables (position i-1 labels id
    i); labels are also stored as metadata.
    """
    allowed = None if star_filter is None else set(star_filter)
    item_ids: dict[str, int] = {}
    user_rows: dict[str, dict[int, float]] = {}
    for user, item, stars in rows:
        if allowed is not None and stars not in allowed:
            continue
        v = item_ids.get(item)
        if v is None:
            v = item_ids[item] = len(item_ids) + 1
        row = user_rows.get(user)
        if row is None:
            row = user_rows[user] = {}
        row[v] = 1.0
    item_labels = list(item_ids)
    user_labels = list(user_rows)
    he2v = list(user_rows.values())
    h = Hypergraph._from_columns(he2v, len(item_labels), list(item_labels), list(user_labels))
    return h, item_labels, user_labels


def build_from_scenes(
    rows: Iterable[tuple[str, list[str]]],
) -> tuple[Hypergraph, list[str]]:
    """One vertex per distinct character, one hyperedge per scene.

    ``rows`` are ``(scene_id, members)`` tuples, as ``scene_rows``
    yields them, consumed in one pass, each scene becoming the next
    hyperedge with its members in listed order.
    Character ids are assigned in first-seen order.  Returns the
    hypergraph and the character label table (position i-1 labels id
    i); character labels and scene ids are also stored as metadata.
    """
    char_ids: dict[str, int] = {}
    he2v: list[dict[int, float]] = []
    scene_ids: list[str] = []
    for scene_id, members in rows:
        col: dict[int, float] = {}
        for name in members:
            v = char_ids.get(name)
            if v is None:
                v = char_ids[name] = len(char_ids) + 1
            col[v] = 1.0
        he2v.append(col)
        scene_ids.append(scene_id)
    labels = list(char_ids)
    return Hypergraph._from_columns(he2v, len(labels), list(labels), scene_ids), labels
