"""Partition container plus its JSON and CSV codecs."""

from __future__ import annotations

import re

import pytest

from hgkit import Partition
from hgkit.cli import main
from hgkit.errors import FormatError


class TestPartition:
    def test_from_communities_assigns_sequential_labels(self):
        p = Partition.from_communities([{3, 1}, {2}])
        assert p.labels == {1: 1, 3: 1, 2: 2}
        assert p.community_count == 2
        assert p.vertices() == {1, 2, 3}

    def test_from_communities_refuses_a_vertex_in_two_blocks(self):
        with pytest.raises(ValueError, match="^vertex 2 appears in two communities$"):
            Partition.from_communities([{1, 2}, {2, 3}])

    def test_communities_listing(self):
        p = Partition({1: 7, 2: 7, 3: 9})
        assert p.communities() == {7: {1, 2}, 9: {3}}

    def test_len(self):
        assert len(Partition({1: 1, 2: 1, 3: 2})) == 3
        assert len(Partition({})) == 0

    # Each int has more digits than Python spells (4,300 by default), so a
    # writer would end in a bare ValueError; the constructor refuses it.
    @pytest.mark.parametrize(
        "make, what",
        [
            (lambda: Partition({1: 10**5000, 2: 1}).to_json_text(), "label"),
            (lambda: Partition({1: 10**5000}).to_csv_text(), "label"),
            (lambda: Partition({10**5000: 1}).to_csv_text(), "vertex"),
            (lambda: Partition({1: 1, 2: -(10**5000), 3: 2}), "label"),
        ],
        ids=["json-label", "csv-label", "csv-vertex", "negative-label"],
    )
    def test_refuses_an_int_too_long_to_spell(self, make, what):
        digits = "got a (positive|negative) integer of 5001 digits$"
        with pytest.raises(ValueError, match=f"^partition {what} must be an integer, {digits}"):
            make()

    def test_accepts_long_ints_python_spells(self):
        big = 10**4299
        assert Partition({big: -big}).to_csv_text() == f"vertex,label\n{big},{-big}\n"

    # Each bad value sits strictly between the extremes of its side, or
    # cannot be compared with them, so checking the extremes alone misses it.
    @pytest.mark.parametrize(
        "labels, what, got",
        [
            ({1: 1, 2: 1.5, 3: 3}, "label", "1.5"),
            ({1: "a", 2: 1}, "label", "'a'"),
            ({1: 1, 2: True, 3: 3}, "label", "True"),
            ({1: 1, 2.0: 1, 3: 1}, "vertex", "2.0"),
            ({1: 1, "2": 1}, "vertex", "'2'"),
        ],
        ids=["float-label", "str-label", "bool-label", "float-vertex", "str-vertex"],
    )
    def test_checks_every_id_and_label(self, labels, what, got):
        with pytest.raises(ValueError, match=f"^partition {what} must be an integer, got {re.escape(got)}$"):
            Partition(labels)

    def test_writers_and_readers_agree_on_what_the_constructor_accepts(self):
        class Label(int):
            pass

        p = Partition({Label(3): Label(1), 1: 2, 2: Label(-4)})
        assert {type(x) for pair in p.labels.items() for x in pair} == {int}
        assert Partition.from_json_text(p.to_json_text()) == p
        assert Partition.from_csv_text(p.to_csv_text()) == p


class TestJsonCodec:
    def test_round_trip(self):
        p = Partition({1: 2, 2: 2, 3: 5})
        again = Partition.from_json_text(p.to_json_text())
        assert again == p

    def test_document_shape(self):
        text = Partition({2: 1, 1: 1, 3: 4}).to_json_text()
        assert '"1": [\n    1,\n    2\n  ]' in text
        assert '"4": [\n    3\n  ]' in text

    def test_rejects_non_object(self):
        with pytest.raises(FormatError):
            Partition.from_json_text("[1, 2]")

    def test_rejects_duplicate_vertex(self):
        with pytest.raises(FormatError):
            Partition.from_json_text('{"1": [1, 2], "2": [2]}')

    def test_rejects_bad_members(self):
        with pytest.raises(FormatError):
            Partition.from_json_text('{"1": ["x"]}')
        with pytest.raises(FormatError):
            Partition.from_json_text('{"1": 3}')

    def test_rejects_non_integer_label(self):
        with pytest.raises(FormatError):
            Partition.from_json_text('{"a": [1]}')

    # Two keys for one label -> the error; a repeated name would otherwise read as its last list.
    TWO_KEYS = {
        '{"1": [1], "01": [2]}': "two partition JSON keys name the same label",
        '{"1": [1], " 1": [2]}': "two partition JSON keys name the same label",
        '{"2": [], "+2": []}': "two partition JSON keys name the same label",
        '{"1": [1, 2], "1": [3]}': "partition document is not valid JSON: object name '1' repeats",
    }

    @pytest.mark.parametrize("text", list(TWO_KEYS))
    def test_rejects_two_keys_for_one_label(self, text, tmp_path, capsys):
        with pytest.raises(FormatError, match=re.escape(self.TWO_KEYS[text])):
            Partition.from_json_text(text)
        (tmp_path / "p.json").write_text(text)
        (tmp_path / "good.json").write_text(Partition({1: 1, 2: 1, 3: 2}).to_json_text())
        assert main(["nmi", str(tmp_path / "p.json"), str(tmp_path / "good.json")]) == 3
        assert capsys.readouterr().err == f"error: {self.TWO_KEYS[text]}\n"

    def test_rejects_invalid_json(self):
        with pytest.raises(FormatError):
            Partition.from_json_text("{nope")


class TestCsvCodec:
    def test_round_trip(self):
        p = Partition({1: 2, 2: 2, 3: 5})
        again = Partition.from_csv_text(p.to_csv_text())
        assert again == p

    def test_text_shape(self):
        text = Partition({2: 9, 1: 3}).to_csv_text()
        assert text.splitlines() == ["vertex,label", "1,3", "2,9"]

    def test_rejects_missing_header(self):
        with pytest.raises(FormatError):
            Partition.from_csv_text("1,3\n2,9\n")

    def test_rejects_bad_row(self):
        with pytest.raises(FormatError):
            Partition.from_csv_text("vertex,label\n1\n")
        with pytest.raises(FormatError):
            Partition.from_csv_text("vertex,label\nx,1\n")

    def test_rejects_duplicate_vertex(self):
        with pytest.raises(FormatError):
            Partition.from_csv_text("vertex,label\n1,1\n1,2\n")
