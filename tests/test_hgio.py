"""Serialization formats and dataset builders."""

from __future__ import annotations

import json
import random
import re
import tracemalloc

import pytest

from hgkit import (
    Hypergraph,
    Partition,
    build_from_reviews,
    build_from_scenes,
    largest_connected_component,
    read_hgf,
    read_json,
    read_reviews_csv,
    read_scenes_json,
    review_rows,
    scene_rows,
    write_hgf,
    write_json,
)
from hgkit.errors import (
    BadWeightTokenError,
    DualInconsistencyError,
    FormatError,
    IndexOutOfRangeError,
    LineCountMismatchError,
    MalformedHeaderError,
    MalformedRecordError,
    SchemaViolationError,
    UnknownVertexError,
)

from hgkit import hgio
from hgkit.cli import _read_scores_csv, main
from hgkit.hgio import MAX_HGF_VERTICES, hgf_chunks

from helpers import (
    hypergraph_from_edges,
    random_hypergraph,
    random_json_meta,
    reference_build_from_reviews,
    reference_build_from_scenes,
    seeded_reviews_csv,
    seeded_scenes_json,
)

GOLDEN = "3 2\n1=1.0 2=1.0\n2=1.5 3=1.0\n"


def golden_hypergraph() -> Hypergraph:
    h = Hypergraph(3, 2)
    h.set_weight(1, 1, 1.0)
    h.set_weight(2, 1, 1.0)
    h.set_weight(2, 2, 1.5)
    h.set_weight(3, 2, 1.0)
    return h


class TestHgf:
    def test_golden_bytes(self):
        assert write_hgf(golden_hypergraph()) == GOLDEN

    def test_golden_parse(self):
        h = read_hgf(GOLDEN)
        assert h == golden_hypergraph()

    def test_empty_structure(self):
        assert write_hgf(Hypergraph()) == "0 0\n"
        h = read_hgf("0 0\n")
        assert h.nhv == 0 and h.nhe == 0

    def test_empty_hyperedge_is_empty_line(self):
        h = Hypergraph(2, 2)
        h.set_weight(1, 2, 1.0)
        text = write_hgf(h)
        assert text == "2 2\n\n1=1.0\n"
        assert read_hgf(text) == h

    def test_whitespace_between_tokens_tolerated(self):
        h = read_hgf("3 2\n1=1.0   2=1.0\n\t2=1.5  3=1.0 \n")
        assert h == golden_hypergraph()

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_lines_end_at_lf_crlf_or_cr(self, end):
        for text in (GOLDEN, GOLDEN.removesuffix("\n"), "2 2\n\n1=1.0\n"):
            assert read_hgf(text.replace("\n", end)) == read_hgf(text)
        assert read_hgf(GOLDEN.replace("\n", end)) == golden_hypergraph()

    def test_weights_carry_decimal_point(self):
        h = Hypergraph(1, 1)
        h.set_weight(1, 1, 2)
        assert "1=2.0" in write_hgf(h)

    @pytest.mark.parametrize(
        "text",
        [
            "", "3\n", "a b\n", "3 2 1\n", "-1 0\n", "1_0 1\n1=1.0\n", "\xa01 0\n",
            "2\x1f0\n", "2 0\x0c\n", "\x0b2 0\n", "2\x1c1\n1=1.0\n",
        ],
    )
    def test_malformed_header(self, text):
        with pytest.raises(MalformedHeaderError):
            read_hgf(text)

    def test_header_above_the_vertex_ceiling_is_refused_before_allocation(self):
        assert MAX_HGF_VERTICES >= 1_600_000  # the paper's Yelp scale
        tracemalloc.start()
        try:
            message = rf"^vertex count must be an integer in 0\.\.{MAX_HGF_VERTICES}, got {MAX_HGF_VERTICES + 1}$"
            with pytest.raises(MalformedHeaderError, match=message) as info:
                read_hgf(f"{MAX_HGF_VERTICES + 1} 0\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.exit_code == 3
        assert peak < 1 << 20

    def test_writer_stops_at_the_reader_ceiling(self, monkeypatch):
        # One row shared by every vertex: the writer reads only their count.
        at, above = (
            Hypergraph._from_rows([{}] * n, [], [None] * n, [])
            for n in (MAX_HGF_VERTICES, MAX_HGF_VERTICES + 1)
        )
        assert write_hgf(at) == f"{MAX_HGF_VERTICES} 0\n"
        for writer in (write_hgf, hgf_chunks):
            with pytest.raises(MalformedHeaderError, match="above the HGF limit") as info:
                writer(above)  # hgf_chunks raises on the call, not on the first chunk
            assert info.value.exit_code == 3
        # At a small ceiling, which read_hgf shares: the cap reads back, one above it is refused.
        monkeypatch.setattr(hgio, "MAX_HGF_VERTICES", 3)
        h = hypergraph_from_edges(3, [(1, 2), (2, 3)])
        assert read_hgf(write_hgf(h)) == h
        h.add_vertex([1])
        with pytest.raises(MalformedHeaderError):
            hgf_chunks(h)

    def test_line_count_mismatch(self):
        with pytest.raises(LineCountMismatchError):
            read_hgf("2 2\n1=1.0\n")
        with pytest.raises(LineCountMismatchError):
            read_hgf("2 1\n1=1.0\n2=1.0\n")

    @pytest.mark.parametrize(
        "token",
        [
            "1", "=1.0", "1=", "x=1.0", "1=fast", "1=nan", "1=inf", "1=1.0 1=2.0", "２=1.0", "1=1_0.5", "1=1.0\xa02=1.0",
            "1=1.0\x0c2=1.0", "1=1.0\x1f2=1.0", "1=1.0\x0b2=1.0", "\x0b1=1.0", "1=1.0\x1e",
        ],
    )
    def test_bad_weight_token(self, token):
        with pytest.raises(BadWeightTokenError):
            read_hgf(f"2 1\n{token}\n")

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            read_hgf("2 1\n3=1.0\n")
        with pytest.raises(IndexOutOfRangeError):
            read_hgf("2 1\n0=1.0\n")

    def test_round_trip_drops_metadata_only(self):
        h = golden_hypergraph()
        h.set_vertex_meta(1, "label")
        back = read_hgf(write_hgf(h))
        assert back.get_vertex_meta(1) is None
        assert back.to_incidence() == h.to_incidence()


class TestJson:
    def test_round_trip_with_metadata(self):
        rng = random.Random(11)
        for _ in range(40):
            h = random_hypergraph(rng, weighted=True)
            for v in h.vertices():
                h.set_vertex_meta(v, random_json_meta(rng))
            for e in h.hyperedges():
                h.set_hyperedge_meta(e, random_json_meta(rng))
            assert read_json(write_json(h)) == h

    def test_document_shape(self):
        import json as jsonlib

        doc = jsonlib.loads(write_json(golden_hypergraph()))
        assert doc["format_version"] == 1
        assert doc["n"] == 3 and doc["k"] == 2
        assert doc["v2he"][1] == {"1": 1.0, "2": 1.5}
        assert doc["he2v"][0] == {"1": 1.0, "2": 1.0}
        assert doc["vmeta"] == [None, None, None]
        assert doc["hemeta"] == [None, None]

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda d: d.pop("format_version"),
            lambda d: d.update(format_version=2),
            lambda d: d.update(n=-1),
            lambda d: d.update(n="3"),
            lambda d: d.update(v2he=[{}]),
            lambda d: d.update(vmeta=[None]),
            lambda d: d["v2he"].__setitem__(0, [1]),
            lambda d: d["he2v"].append({}),
            lambda d: d["hemeta"].append(None),
            lambda d: d["v2he"][0].update({"9": 1.0}),
            lambda d: d["v2he"][0].update({"one": 1.0}),
            lambda d: d["v2he"][0].update({"1": "heavy"}),
            lambda d: d["v2he"][0].update({"1": True}),
            lambda d: d["v2he"][0].update({"1": 10**309}),
            lambda d: d["he2v"][0].update({"1": -(10**309)}),
            lambda d: d["v2he"].__setitem__(0, {"0_1": 1.0}),
            lambda d: d["v2he"][0].update({"01": 1.0}),
            lambda d: d["v2he"][0].update({" 1": 2.0}),
            lambda d: d.update(format_version=True),
            lambda d: d.update(format_version=1.0),
            # ``json.dumps`` writes no repeated name, so these two return the document's text.
            lambda d: json.dumps(d).replace('"v2he": [{"1": 1.0}', '"v2he": [{"1": 1.0, "1": 2.0}', 1),
            lambda d: json.dumps(d).replace('"n": 3', '"n": 3, "n": 3', 1),
        ],
    )
    def test_schema_violations(self, mangle, tmp_path, capsys):
        doc = json.loads(write_json(golden_hypergraph()))
        text = mangle(doc)
        if not isinstance(text, str):
            text = json.dumps(doc)
        with pytest.raises(SchemaViolationError):
            read_json(text)
        src = tmp_path / "g.json"
        src.write_text(text)
        assert main(["stats", "--input", str(src)]) == 3
        assert capsys.readouterr().out == ""

    def test_not_json_at_all(self):
        with pytest.raises(SchemaViolationError):
            read_json("not json")
        with pytest.raises(SchemaViolationError):
            read_json("[1, 2]")

    def test_dual_inconsistency(self):
        import json as jsonlib

        doc = jsonlib.loads(write_json(golden_hypergraph()))
        doc["he2v"][0]["3"] = 1.0  # vertex 3 not in hyperedge 1 per v2he
        with pytest.raises(DualInconsistencyError):
            read_json(jsonlib.dumps(doc))
        doc = jsonlib.loads(write_json(golden_hypergraph()))
        doc["v2he"][0]["1"] = 9.0  # weight disagrees
        with pytest.raises(DualInconsistencyError):
            read_json(jsonlib.dumps(doc))


class TestReviews:
    def test_csv_parsing(self):
        text = "user_id,item_id,stars\nu1,b1,5\nu1,b2,5\nu2,b2,3\n"
        rows = read_reviews_csv(text)
        assert rows == [("u1", "b1", 5), ("u1", "b2", 5), ("u2", "b2", 3)]
        assert all(type(row) is tuple for row in rows)

    def test_csv_empty_documents(self):
        assert read_reviews_csv("") == []
        assert read_reviews_csv("user_id,item_id,stars\n") == []

    def test_csv_blank_lines_are_skipped(self):
        text = "\nuser_id,item_id,stars\n\nu1,b1,5\n\n"
        assert read_reviews_csv(text) == [("u1", "b1", 5)]

    @pytest.mark.parametrize(
        "text",
        [
            "wrong,header,here\nu1,b1,5\n",
            "user_id,item_id,stars\nu1,b1\n",
            "user_id,item_id,stars\nu0,b0,4\nu1,b1,5,extra\n",
            "user_id,item_id,stars\nu1,b1,many\n",
            "user_id,item_id,stars\nu0,b0,4\n\nu1,b1,x\n",
            "user_id,item_id,stars\nu1,b1,6\n",
            "user_id,item_id,stars\nu1,b1,0\n",
            "user_id,item_id,stars\nu1\n",
            "user_id,item_id,stars\nu1,b1,5.0\n",
            "user_id,item_id,stars\nu0,b0,4\nu1,b1,\n",
            "user_id,item_id,stars\nu1,b1,\u0663\n",
            "user_id,item_id,stars\nu1,b1,1_0\n",
        ],
    )
    def test_csv_malformed(self, text, tmp_path, capsys):
        with pytest.raises(MalformedRecordError) as want:
            reference_build_from_reviews(text)
        with pytest.raises(MalformedRecordError, match=re.escape(str(want.value))):
            read_reviews_csv(text)
        with pytest.raises(MalformedRecordError, match=re.escape(str(want.value))):
            build_from_reviews(review_rows(text))
        src = tmp_path / "reviews.csv"
        src.write_text(text)
        for command in ("stats", "forecast"):
            assert main([command, "--input", str(src)]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {want.value}\n"

    @pytest.mark.parametrize("seed", range(30))
    def test_streamed_build_matches_reference(self, seed):
        texts = [seeded_reviews_csv(random.Random(seed))]
        # Canonical star cells read through a table, other spellings through the number grammar.
        texts.append(seeded_reviews_csv(random.Random(seed), ("{}", "{}", " {}", "+{}", "0{}")))
        if seed == 0:
            texts += ["", "user_id,item_id,stars\n", "\n\n user_id , item_id,stars\r\n\n"]
        for text in texts:
            rows = read_reviews_csv(text)
            assert rows == list(review_rows(text))
            assert all(type(row) is tuple and type(row[2]) is int for row in rows)
            for star_filter in (None, {5}, {1, 2}):
                want = reference_build_from_reviews(text, star_filter)
                h, items, users = build_from_reviews(review_rows(text), star_filter)
                assert (h, items, users) == want
                assert build_from_reviews(read_reviews_csv(text), star_filter) == want
                # Rows iterate as documented: a user's items in first-seen order, an item's users ascending.
                first: dict[tuple[str, str], int] = {}
                for i, (user, item, stars) in enumerate(rows):
                    if star_filter is None or stars in star_filter:
                        first.setdefault((user, item), i)
                for e, row in enumerate(h._he2v):
                    seen = [first[users[e], items[v - 1]] for v in row]
                    assert seen == sorted(seen)
                assert all(list(row) == sorted(row) for row in h._v2he)

    def test_incidences_iterate_in_first_seen_order(self):
        text = "user_id,item_id,stars\nu1,b3,5\nu2,b1,4\nu1,b1,3\nu1,b2,2\nu2,b3,1\nu1,b3,1\n"
        h, items, users = build_from_reviews(review_rows(text))
        assert (items, users) == (["b3", "b1", "b2"], ["u1", "u2"])
        assert [list(row) for row in h._he2v] == [[1, 2, 3], [2, 1]]
        # Each vertex row is derived from the hyperedge index, in ascending hyperedge id.
        assert [list(row) for row in h._v2he] == [[1, 2], [1, 2], [1]]

    def test_build_star_filter(self):
        rows = [("u1", "b1", 5), ("u1", "b2", 5), ("u2", "b2", 3)]
        h, items, users = build_from_reviews(rows, star_filter={5})
        assert (h.nhv, h.nhe) == (2, 1)
        assert items == ["b1", "b2"]
        assert users == ["u1"]
        assert h.get_vertices(1) == {1: 1.0, 2: 1.0}

    def test_build_dedupes_repeat_reviews(self):
        h, items, users = build_from_reviews([("u1", "b1", 4), ("u1", "b1", 2)])
        assert (h.nhv, h.nhe) == (1, 1)
        assert h.get_weight(1, 1) == 1.0

    def test_build_keeps_labels_as_metadata(self):
        h, items, users = build_from_reviews([("u9", "b7", 1)])
        assert h.get_vertex_meta(1) == "b7"
        assert h.get_hyperedge_meta(1) == "u9"

    def test_build_empty(self):
        h, items, users = build_from_reviews([])
        assert (h.nhv, h.nhe) == (0, 0)
        assert items == [] and users == []


def _read_scores_file(text: str, tmp_path) -> dict[int, float]:
    path = tmp_path / "scores.csv"
    path.write_bytes(text.encode("utf-8"))
    return _read_scores_csv(str(path))


# Table -> its header, two body rows, and its reader given the text and a scratch directory.
CSV_TABLES = {
    "reviews": ("user_id,item_id,stars", ("u1,b1,5", "u2,b2,4"), lambda text, _: read_reviews_csv(text)),
    "partition": ("vertex,label", ("1,1", "2,2"), lambda text, _: Partition.from_csv_text(text)),
    "scores": ("vertex,label,score", ("1,a,0.5", "2,b,1.5"), _read_scores_file),
}
ROWS, EMPTY = "the two rows", "no rows"
# Case -> document, with {h} the header, {p} the header with padded cells and
# {r}/{s} the rows, and its one outcome for every table: ROWS, EMPTY or a
# piece of the error message.
CSV_DIALECT = {
    "plain": ("{h}\n{r}\n{s}\n", ROWS),
    "byte-order-mark": ("\ufeff{h}\n{r}\n{s}\n", ROWS),
    "empty-lines-before-the-header": ("\n\n{h}\n{r}\n{s}\n", ROWS),
    "empty-lines-between-rows": ("{h}\n\n{r}\n\n\n{s}\n", ROWS),
    "empty-lines-at-the-end": ("{h}\n{r}\n{s}\n\n\n", ROWS),
    "crlf": ("{h}\r\n{r}\r\n{s}\r\n", ROWS),
    "padded-header-cells": ("{p}\n{r}\n{s}\n", ROWS),
    "empty-document": ("", EMPTY),
    "byte-order-mark-only": ("\ufeff", EMPTY),
    "empty-lines-only": ("\n\r\n\n", EMPTY),
    "header-only": ("{h}\n", EMPTY),
    "spaces-line-between-rows": ("{h}\n{r}\n   \n{s}\n", "['   '] must have"),
    "spaces-line-before-the-header": ("   \n{h}\n{r}\n", "CSV must start with header"),
    "field-over-the-limit": ("{h}\n{r}\n" + "x" * 131_073 + ",\n", "CSV unparseable: field larger than field limit (131072)"),
}


class TestCsvDialect:
    """Reviews, partitions and scores share one CSV reader, so one document reads alike in each."""

    @pytest.mark.parametrize("table", list(CSV_TABLES))
    @pytest.mark.parametrize("case", list(CSV_DIALECT))
    def test_one_outcome_for_every_table(self, tmp_path, table, case):
        header, (r, s), read = CSV_TABLES[table]
        padded = " " + header.replace(",", " , ") + "\t"
        template, outcome = CSV_DIALECT[case]
        text = template.format(h=header, p=padded, r=r, s=s)
        if outcome == ROWS:
            want = read(f"{header}\n{r}\n{s}\n", tmp_path)
            assert len(want) == 2
            assert read(text, tmp_path) == want
        elif outcome == EMPTY:
            assert len(read(text, tmp_path)) == 0
        else:
            with pytest.raises(FormatError, match=re.escape(outcome)):
                read(text, tmp_path)


def _hgf_hyperedge_count(x: str, _) -> int:
    # Python's int reads every spelling here, so the body has the lines a lax reader would expect.
    return read_hgf(f"0 {x}\n" + "\n" * int(x)).nhe


def _json_key(x: str, _) -> int:
    # As above: he2v holds the cell where a lax reader would look for it.
    he2v: list[dict[str, float]] = [{} for _ in range(10)]
    he2v[int(x) - 1] = {"1": 1.0}
    doc = {"format_version": 1, "n": 1, "k": 10, "v2he": [{x: 1.0}], "he2v": he2v}
    [e] = read_json(json.dumps(doc)).get_hyperedges(1)
    return e


def _only(items) -> object:
    [item] = items
    return item


# Spellings of a number every field refuses: an underscore, fullwidth and
# Arabic-Indic digits, and a digit padded with a no-break space.
NUMBER_REFUSED = {"underscore": "1_0", "fullwidth": "４", "arabic-indic": "٣", "no-break-space": "\xa05"}
# Spelling -> its value in every integer field, and in every float field.
INT_SPELLINGS = {" 5 ": 5, "+4": 4, "05": 5}
FLOAT_SPELLINGS = {" 5 ": 5.0, "+4": 4.0, "05": 5.0, "1e0": 1.0, ".5": 0.5, "-2.5E-1": -0.25}
# A blank ends an HGF token, so HGF ids and weights come unpadded.
TOKEN_INT = {x: v for x, v in INT_SPELLINGS.items() if x == x.strip()}
TOKEN_FLOAT = {x: v for x, v in FLOAT_SPELLINGS.items() if x == x.strip()}
# Numeric field -> its error, the spellings it reads, and the value read
# from a document that spells the number x.
NUMBER_FIELDS = {
    "hgf-vertex-count": (MalformedHeaderError, INT_SPELLINGS, lambda x, _: read_hgf(f"{x} 0\n").nhv),
    "hgf-hyperedge-count": (MalformedHeaderError, INT_SPELLINGS, _hgf_hyperedge_count),
    "hgf-vertex-id": (BadWeightTokenError, TOKEN_INT, lambda x, _: _only(read_hgf(f"9 1\n{x}=1.0\n").get_vertices(1))),
    "hgf-weight": (BadWeightTokenError, TOKEN_FLOAT, lambda x, _: read_hgf(f"1 1\n1={x}\n").get_weight(1, 1)),
    "json-key": (SchemaViolationError, INT_SPELLINGS, _json_key),
    "review-stars": (MalformedRecordError, INT_SPELLINGS, lambda x, _: read_reviews_csv(f"user_id,item_id,stars\nu,b,{x}\n")[0][2]),
    "partition-json-label": (FormatError, INT_SPELLINGS, lambda x, _: Partition.from_json_text(json.dumps({x: [1]})).labels[1]),
    "partition-csv-vertex": (FormatError, INT_SPELLINGS, lambda x, _: _only(Partition.from_csv_text(f"vertex,label\n{x},1\n").labels)),
    "partition-csv-label": (FormatError, INT_SPELLINGS, lambda x, _: Partition.from_csv_text(f"vertex,label\n1,{x}\n").labels[1]),
    "score-vertex": (FormatError, INT_SPELLINGS, lambda x, tmp: _only(_read_scores_file(f"vertex,label,score\n{x},a,1\n", tmp))),
    "score": (FormatError, FLOAT_SPELLINGS, lambda x, tmp: _read_scores_file(f"vertex,label,score\n1,a,{x}\n", tmp)[1]),
}


class TestNumberGrammar:
    """Every number in a document is read by one grammar, so a spelling reads alike in each field."""

    @pytest.mark.parametrize("spelling", list(NUMBER_REFUSED.values()), ids=list(NUMBER_REFUSED))
    @pytest.mark.parametrize("field", list(NUMBER_FIELDS))
    def test_every_field_refuses_the_respelling(self, tmp_path, field, spelling):
        error, _, read = NUMBER_FIELDS[field]
        with pytest.raises(FormatError) as info:
            read(spelling, tmp_path)
        assert type(info.value) is error

    @pytest.mark.parametrize("field", list(NUMBER_FIELDS))
    def test_every_field_reads_the_plain_spellings(self, tmp_path, field):
        _, spellings, read = NUMBER_FIELDS[field]
        got = {x: read(x, tmp_path) for x in spellings}
        assert got == spellings
        assert [type(v) for v in got.values()] == [type(v) for v in spellings.values()]

    @pytest.mark.parametrize("text", ["5", " 5", "5\t", "\n+5\r\n", "-5", "0005", "5" * 50])
    def test_an_integer_is_what_int_reads_of_ascii_without_underscores(self, text):
        assert hgio._number(text, int, FormatError, "n") == int(text)

    @pytest.mark.parametrize("text", ["", " ", "+", "5.0", "1e3", "0x10", "5_0", "٥", "５", "\xa05", "5\u2003", "\x1c5"])
    def test_anything_else_is_refused_with_the_given_error(self, text):
        with pytest.raises(MalformedRecordError, match=re.escape(f"stars {text!r} is not an integer")):
            hgio._number(text, int, MalformedRecordError, "stars")

    @pytest.mark.parametrize("text", ["1", "-1.5", " .5 ", "1e0", "1E+3", "inf", "-Infinity", "nan"])
    def test_a_float_is_what_float_reads_of_ascii_without_underscores(self, text):
        got = hgio._number(text, float, FormatError, "x")
        assert got == float(text) or (got != got and text == "nan")

    @pytest.mark.parametrize("text", ["", ".", "1__0", "1_0.5", "1e1_0", "１.5", "0x1p3", "1,5", "1.5\xa0"])
    def test_a_float_refuses_the_same_spellings(self, text):
        with pytest.raises(FormatError, match=re.escape(f"score {text!r} is not a float")):
            hgio._number(text, float, FormatError, "score")


SCENE_MALFORMED = {
    "invalid-json": '[{"id": "s1", "members": ["a"]',
    "not-an-array": '{"id": "s1", "members": ["a"]}',
    "entry-not-an-object": '[{"id": "s1", "members": ["a"]}, ["s2", "b"]]',
    "entry-without-id": '[{"id": "s1", "members": ["a"]}, {"members": ["b"]}]',
    "entry-without-members": '[{"id": "s1", "members": []}, {"id": "s2"}]',
    "member-not-a-string": '[{"id": "s1", "members": ["a"]}, {"id": 7, "members": ["b", 2]}]',
    "members-not-a-list": '[{"id": null, "members": "ab"}]',
    "members-twice": '[{"id": "s1", "members": ["a"], "members": ["b"]}]',
}


class TestScenes:
    def test_json_parsing_and_dedup(self):
        text = '[{"id": "s1", "members": ["a", "b", "a"]}, {"id": "s2", "members": []}]'
        assert read_scenes_json(text) == [("s1", ["a", "b"])]

    def test_json_malformed(self):
        with pytest.raises(MalformedRecordError):
            read_scenes_json("{}")
        with pytest.raises(MalformedRecordError):
            read_scenes_json('[{"id": "s"}]')
        with pytest.raises(MalformedRecordError):
            read_scenes_json('[{"id": "s", "members": [1]}]')

    @pytest.mark.parametrize("text", SCENE_MALFORMED.values(), ids=SCENE_MALFORMED.keys())
    def test_malformed_messages_match_reference(self, text, tmp_path, capsys):
        with pytest.raises(MalformedRecordError) as want:
            reference_build_from_scenes(text)
        with pytest.raises(MalformedRecordError, match=re.escape(str(want.value))):
            read_scenes_json(text)
        with pytest.raises(MalformedRecordError, match=re.escape(str(want.value))):
            build_from_scenes(scene_rows(text))
        src = tmp_path / "scenes.json"
        src.write_text(text)
        assert main(["stats", "--input", str(src), "--format", "scenes-json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {want.value}\n"

    @pytest.mark.parametrize("seed", range(30))
    def test_streamed_build_matches_reference(self, seed):
        texts = [seeded_scenes_json(random.Random(seed))]
        if seed == 0:
            texts += ["[]", '[{"id": "s", "members": []}]', '[{"id": 1, "members": ["a", "a"]}]']
        for text in texts:
            want_h, want_labels = reference_build_from_scenes(text)
            rows = read_scenes_json(text)
            assert rows == list(scene_rows(text))
            assert all(type(row) is tuple for row in rows)
            for h, labels in (build_from_scenes(scene_rows(text)), build_from_scenes(rows)):
                assert (h, labels) == (want_h, want_labels)
                assert [list(row) for row in h._v2he] == [list(row) for row in want_h._v2he]
                assert [list(col) for col in h._he2v] == [list(col) for col in want_h._he2v]

    def test_rows_dedupe_skip_empty_and_stringify_ids(self):
        text = json.dumps([
            {"id": 7, "members": ["b", "a", "b"]},
            {"id": "empty", "members": []},
            {"id": None, "members": ["a", "c"]},
        ])
        assert list(scene_rows(text)) == [("7", ["b", "a"]), ("None", ["a", "c"])]
        h, labels = build_from_scenes(scene_rows(text))
        assert labels == ["b", "a", "c"]
        assert h.nhe == 2  # the empty scene takes no hyperedge id
        assert [h.get_hyperedge_meta(e) for e in h.hyperedges()] == ["7", "None"]
        assert [list(col) for col in h._he2v] == [[1, 2], [2, 3]]

    def test_records_unpack_as_rows(self):
        [(scene_id, members)] = read_scenes_json('[{"id": "s1", "members": ["a", "b", "a"]}]')
        assert (scene_id, members) == ("s1", ["a", "b"])

    def test_build(self):
        h, chars = build_from_scenes([("s1", ["a", "b"]), ("s2", ["b", "c"])])
        assert (h.nhv, h.nhe) == (3, 2)
        assert chars == ["a", "b", "c"]
        assert h.get_vertices(2) == {2: 1.0, 3: 1.0}
        assert h.get_hyperedge_meta(1) == "s1"
        assert h.get_vertex_meta(3) == "c"


class TestLargestComponent:
    def test_basic_extraction(self):
        # component {1,2,3} (2 hyperedges) vs component {4,5}
        h = hypergraph_from_edges(5, [(1, 2), (2, 3), (4, 5)])
        h.set_vertex_meta(3, "keep-me")
        sub, remap = largest_connected_component(h)
        assert sub.nhv == 3 and sub.nhe == 2
        assert remap == {1: 1, 2: 2, 3: 3}
        assert sub.get_vertex_meta(3) == "keep-me"

    def test_tie_breaks_to_lowest_min_vertex(self):
        h = hypergraph_from_edges(4, [(3, 4), (1, 2)])
        sub, remap = largest_connected_component(h)
        assert sorted(remap) == [1, 2]

    def test_drops_emptied_hyperedges(self):
        h = hypergraph_from_edges(4, [(1, 2), (3, 4), ()])
        h.add_hyperedge((1, 2, 3, 4))  # bridges everything
        sub, remap = largest_connected_component(h)
        assert sub.nhv == 4
        assert sub.nhe == 3  # the empty hyperedge is gone

    def test_restricts_straddling_hyperedges(self):
        # one big hyperedge cannot straddle components by definition, so
        # build the straddle by restricting to a subset instead
        from hgkit.analytics import induced_subhypergraph

        h = hypergraph_from_edges(4, [(1, 2, 3, 4)])
        sub, vmap, emap = induced_subhypergraph(h, [1, 3])
        assert sub.nhv == 2
        assert sub.get_vertices(1) == {1: 1.0, 2: 1.0}
        assert vmap == {1: 1, 3: 2}
        assert emap == {1: 1}

    # An id equal to a good one, in either order, must fail: the ids are checked before they are deduplicated.
    @pytest.mark.parametrize("keep", [[0, 1], [4], [True], [1, "2"], [1, True], [True, 1], [1, 1.0], [1.0, 1]])
    def test_induced_subhypergraph_rejects_ids_outside_1_to_n(self, keep):
        from hgkit.analytics import induced_subhypergraph

        h = hypergraph_from_edges(3, [(1, 2), (2, 3)])
        h.set_vertex_meta(3, "three")
        with pytest.raises(UnknownVertexError):
            induced_subhypergraph(h, keep)

    def test_empty_hypergraph(self):
        sub, remap = largest_connected_component(Hypergraph())
        assert sub.nhv == 0 and remap == {}

    def test_isolated_vertex_can_win(self):
        h = Hypergraph(1, 0)
        sub, remap = largest_connected_component(h)
        assert sub.nhv == 1 and remap == {1: 1}
