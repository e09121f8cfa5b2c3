"""Streamed writers: byte identity with the whole-document writers, round trips, memory."""

from __future__ import annotations

import hashlib
import json
import random
import tracemalloc

import pytest

from hgkit import CoMemberTable, Hypergraph, TwoSectionView, read_hgf, read_json, write_hgf, write_json
from hgkit.cli import _CONVERT_WRITERS, main

from helpers import (
    random_hypergraph,
    random_json_meta,
    reference_documents,
    reference_dot_text,
    reference_materialize,
    reference_write_json,
)

ODD_META = ["é", " ", "\xa0", "日本\u2028", {"a": [1, {"b": []}]}, [], {}, {"x": {}}, [[]], "line\nbreak", None]


def _random_case(seed: int) -> Hypergraph:
    rng = random.Random(seed)
    h = random_hypergraph(rng, weighted=True)
    for v in h.vertices():
        h.set_vertex_meta(v, random_json_meta(rng))
    for e in h.hyperedges():
        h.set_hyperedge_meta(e, rng.choice(ODD_META))
    return h


def _empty_rows() -> Hypergraph:
    # Hyperedges 1 and 3 are empty; vertices 4 and 5 are isolated.
    h = Hypergraph(5, 3)
    for v in (1, 2, 3):
        h.set_weight(v, 2, 1.0)
    return h


def _extreme_weights() -> Hypergraph:
    h = Hypergraph(3, 2)
    h.set_weight(1, 1, 1e-300)
    h.set_weight(2, 1, 2.5)
    h.set_weight(3, 1, 1e300)
    h.set_weight(1, 2, 2.5)
    h.set_weight(3, 2, 1e-300)
    return h


def _odd_metadata() -> Hypergraph:
    h = Hypergraph(len(ODD_META), len(ODD_META))
    for i, meta in enumerate(ODD_META, start=1):
        h.set_vertex_meta(i, meta)
        h.set_hyperedge_meta(len(ODD_META) + 1 - i, meta)
        h.set_weight(i, i, 1.0)
        h.set_weight(i, len(ODD_META) + 1 - i, 1.0)
    return h


CASES = {
    **{f"random-{seed}": (lambda seed=seed: _random_case(seed)) for seed in range(40)},
    "empty-0-0": lambda: Hypergraph(0, 0),
    "vertices-only": lambda: Hypergraph(3, 0),
    "hyperedges-only": lambda: Hypergraph(0, 2),
    "empty-rows": _empty_rows,
    "extreme-weights": _extreme_weights,
    "odd-metadata": _odd_metadata,
}


@pytest.fixture(params=list(CASES))
def case(request) -> Hypergraph:
    return CASES[request.param]()


def _source(fmt: str, h: Hypergraph):
    """What the convert writer of ``fmt`` writes from: dot-twosection h's co-member table, the rest ``h``."""
    return CoMemberTable.of(h) if fmt == "dot-twosection" else h


def test_streamed_writers_match_references(case):
    expected = reference_documents(case)
    assert write_hgf(case) == expected["hgf"]
    assert write_json(case) == expected["json"]
    assert set(_CONVERT_WRITERS) == set(expected)
    for fmt, chunks in _CONVERT_WRITERS.items():
        assert "".join(chunks(_source(fmt, case))) == expected[fmt], fmt


def test_every_convert_target_matches_references(case, tmp_path, capsys):
    src = tmp_path / "in.json"
    src.write_text(reference_write_json(case), encoding="utf-8")
    for fmt, expected in reference_documents(case).items():
        dst = tmp_path / f"out.{fmt}"
        assert main(["convert", "--input", str(src), "--to", fmt, "--output", str(dst)]) == 0
        data = expected.encode("utf-8")
        assert dst.read_bytes() == data, fmt
        manifest = json.loads((tmp_path / f"out.{fmt}.manifest.json").read_text(encoding="utf-8"))
        assert manifest["outputs"] == [{"path": str(dst), "sha256": hashlib.sha256(data).hexdigest()}]
        assert main(["convert", "--input", str(src), "--to", fmt]) == 0
        assert capsys.readouterr().out == expected, fmt


def test_json_round_trip(case):
    assert read_json(write_json(case)) == case


def test_hgf_round_trip(case):
    back = read_hgf(write_hgf(case))
    assert (back.nhv, back.nhe) == (case.nhv, case.nhe)
    assert back._v2he == case._v2he
    assert back._he2v == case._he2v


# --- memory -----------------------------------------------------------------------------


def _labelled_hypergraph(seed: int, n: int = 5_000, k: int = 2_500) -> Hypergraph:
    rng = random.Random(seed)
    h = Hypergraph(n, k)
    for e in h.hyperedges():
        for v in rng.sample(range(1, n + 1), rng.randint(2, 8)):
            h.set_weight(v, e, 1.0)
        h.set_hyperedge_meta(e, f"scene-{e}")
    for v in h.vertices():
        h.set_vertex_meta(v, f"character {v}")
    return h


def _traced_peak(make_chunks) -> tuple[int, int]:
    """Peak traced allocation while the chunks are made and consumed, and their byte count."""
    size = 0
    tracemalloc.start()
    try:
        for chunk in make_chunks():
            size += len(chunk.encode("utf-8"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, size


@pytest.mark.parametrize("fmt", ["json", "dot-twosection"])
def test_streamed_writer_peak_is_a_fraction_of_its_output(fmt):
    # The writer's input, a hypergraph or its co-member table, is held before the writer starts.
    source = _source(fmt, _labelled_hypergraph(7))
    peak, size = _traced_peak(lambda: _CONVERT_WRITERS[fmt](source))
    assert size > 200_000
    assert peak < size / 4, (peak, size)


def test_whole_document_writers_exceed_the_streamed_bound():
    # The bound above is one that the writers streaming replaced break.
    h = _labelled_hypergraph(7)
    for make in (
        lambda: [reference_write_json(h)],
        lambda: [reference_dot_text(reference_materialize(TwoSectionView(h)), "twosection")],
    ):
        peak, size = _traced_peak(make)
        assert peak >= size / 4, (peak, size)
