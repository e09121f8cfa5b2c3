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

    def test_communities_listing(self):
        p = Partition({1: 7, 2: 7, 3: 9})
        assert p.communities() == {7: {1, 2}, 9: {3}}

    def test_equality_is_label_sensitive(self):
        a = Partition({1: 1, 2: 2})
        b = Partition({1: 10, 2: 20})
        assert a != b
        assert a.same_blocks(b)

    def test_same_blocks_detects_differences(self):
        a = Partition.from_communities([{1, 2}, {3}])
        b = Partition.from_communities([{1}, {2, 3}])
        assert not a.same_blocks(b)
        assert not a.same_blocks(Partition({1: 1, 2: 1}))

    def test_len(self):
        assert len(Partition({1: 1, 2: 1, 3: 2})) == 3
        assert len(Partition({})) == 0


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
