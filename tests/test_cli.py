"""End-to-end command line behavior, including manifests and exit codes."""

from __future__ import annotations

import csv
import hashlib
import json
import marshal
import os
import random
import shutil
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import hgkit
from hgkit import (
    CoMemberTable,
    Hypergraph,
    Partition,
    TwoSectionView,
    build_from_reviews,
    read_hgf,
    review_rows,
    write_hgf,
    write_json,
)
from hgkit import centrality, cli, hgio, loadcache, views
from hgkit.cli import _read_scores_csv, main

from helpers import hypergraph_from_edges, same_blocks, seeded_reviews_csv, seeded_scenes_json

GOLDEN = "3 2\n1=1.0 2=1.0\n2=1.5 3=1.0\n"
PATH5 = "5 4\n1=1.0 2=1.0\n2=1.0 3=1.0\n3=1.0 4=1.0\n4=1.0 5=1.0\n"
REVIEWS = "user_id,item_id,stars\nu1,b1,5\nu1,b2,3\nu2,b2,3\nu2,b3,1\n"
# The same path b1-b2-b3, with item ids that need quoting in CSV.
ODD_LABELS = ["Book, The", 'say "hi"', "two\nlines"]
ODD_REVIEWS = (
    'user_id,item_id,stars\nu1,"Book, The",5\nu1,"say ""hi""",3\n'
    'u2,"say ""hi""",3\nu2,"two\nlines",1\n'
)


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStats:
    def test_golden_report(self, tmp_path, capsys):
        src = tmp_path / "g.hgf"
        src.write_text(GOLDEN)
        code, out, _ = run(capsys, "stats", "--input", str(src))
        assert code == 0
        assert out == (
            "vertices: 3\n"
            "hyperedges: 2\n"
            "incidences: 4\n"
            "components: 1\n"
            "component-sizes: 3\n"
            "hyperedge-size-histogram: 2:2\n"
            "degree-histogram: 1:2 2:1\n"
        )

    def test_empty_file_is_the_empty_hypergraph(self, tmp_path, capsys):
        src = tmp_path / "empty.hgf"
        src.write_text("")
        code, out, _ = run(capsys, "stats", "--input", str(src))
        assert code == 0
        assert out == (
            "vertices: 0\n"
            "hyperedges: 0\n"
            "incidences: 0\n"
            "components: 0\n"
            "component-sizes:\n"
            "hyperedge-size-histogram:\n"
            "degree-histogram:\n"
        )

    def test_output_file_and_manifest(self, tmp_path, capsys):
        src = tmp_path / "g.hgf"
        src.write_text(GOLDEN)
        dst = tmp_path / "report.txt"
        code, out, _ = run(capsys, "stats", "--input", str(src), "--output", str(dst))
        assert code == 0
        assert dst.read_text() == out
        doc = json.loads((tmp_path / "report.txt.manifest.json").read_text())
        assert doc["tool"] == "hgkit"
        assert doc["command"] == "stats"
        assert doc["inputs"][0]["path"] == str(src)
        assert len(doc["outputs"][0]["sha256"]) == 64


class TestConvert:
    def test_hgf_json_round_trip_is_byte_identical(self, tmp_path, capsys):
        src = tmp_path / "g.hgf"
        src.write_text(GOLDEN)
        as_json = tmp_path / "g.json"
        back = tmp_path / "back.hgf"
        assert run(capsys, "convert", "--input", str(src), "--to", "json", "--output", str(as_json))[0] == 0
        assert run(capsys, "convert", "--input", str(as_json), "--to", "hgf", "--output", str(back))[0] == 0
        assert back.read_bytes() == src.read_bytes()

    def test_stdout_when_no_output(self, tmp_path, capsys):
        src = tmp_path / "g.hgf"
        src.write_text(GOLDEN)
        code, out, _ = run(capsys, "convert", "--input", str(src), "--to", "hgf")
        assert code == 0 and out == GOLDEN

    def test_format_inference_can_be_overridden(self, tmp_path, capsys):
        src = tmp_path / "data.txt"
        src.write_text(GOLDEN)
        code, out, _ = run(
            capsys, "convert", "--input", str(src), "--from", "hgf", "--to", "hgf"
        )
        assert code == 0 and out == GOLDEN

    def test_dot_twosection(self, tmp_path, capsys):
        src = tmp_path / "g.hgf"
        src.write_text("3 2\n1=1.0 2=1.0\n2=1.0 3=1.0\n")
        code, out, _ = run(capsys, "convert", "--input", str(src), "--to", "dot-twosection")
        assert code == 0
        assert out == (
            "graph twosection {\n"
            "  1;\n  2;\n  3;\n"
            "  1 -- 2 [weight=1];\n"
            "  2 -- 3 [weight=1];\n"
            "}\n"
        )

    def test_dot_bipartite(self, tmp_path, capsys):
        src = tmp_path / "g.hgf"
        src.write_text("3 2\n1=1.0 2=1.0\n2=1.0 3=1.0\n")
        code, out, _ = run(capsys, "convert", "--input", str(src), "--to", "dot-bipartite")
        assert code == 0
        assert out == (
            "graph bipartite {\n"
            "  1;\n  2;\n  3;\n  4;\n  5;\n"
            "  1 -- 4 [weight=1];\n"
            "  2 -- 4 [weight=1];\n"
            "  2 -- 5 [weight=1];\n"
            "  3 -- 5 [weight=1];\n"
            "}\n"
        )

    def test_reviews_to_hgf(self, tmp_path, capsys):
        src = tmp_path / "reviews.csv"
        src.write_text(REVIEWS)
        code, out, _ = run(capsys, "convert", "--input", str(src), "--to", "hgf")
        assert code == 0
        h = read_hgf(out)
        assert (h.nhv, h.nhe) == (3, 2)
        assert set(h.get_vertices(1)) == {1, 2}
        assert set(h.get_vertices(2)) == {2, 3}

    def test_hgf_above_the_vertex_ceiling_exits_3_before_writing(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "g.json"
        src.write_text(write_json(read_hgf(GOLDEN)))
        dst = tmp_path / "g.hgf"
        monkeypatch.setattr(hgio, "MAX_HGF_VERTICES", 2)
        code, out, err = run(capsys, "convert", "--input", str(src), "--to", "hgf", "--output", str(dst))
        assert (code, out) == (3, "") and "above the HGF limit of 2" in err
        assert list(tmp_path.iterdir()) == [src]


class TestCommunities:
    def test_report_and_partition_file(self, tmp_path, capsys):
        src = tmp_path / "two.hgf"
        src.write_text("6 2\n1=1.0 2=1.0 3=1.0\n4=1.0 5=1.0 6=1.0\n")
        dst = tmp_path / "part.json"
        code, out, _ = run(
            capsys, "communities", "--input", str(src), "--algo", "hyper-lp",
            "--seed", "3", "--output", str(dst),
        )
        assert code == 0
        part = Partition.from_json_text(dst.read_text())
        assert same_blocks(part, Partition.from_communities([{1, 2, 3}, {4, 5, 6}]))
        report = dict(
            line.split(": ", 1) for line in out.strip().splitlines()
        )
        assert report["algorithm"] == "hyper-lp"
        assert report["communities"] == "2"
        assert int(report["iterations"]) <= 100
        assert float(report["modularity"]) == 0.75

    def test_csv_output_extension(self, tmp_path, capsys):
        src = tmp_path / "two.hgf"
        src.write_text("2 1\n1=1.0 2=1.0\n")
        dst = tmp_path / "part.csv"
        code, _, _ = run(capsys, "communities", "--input", str(src), "--output", str(dst))
        assert code == 0
        assert dst.read_text().startswith("vertex,label\n")

    def test_graph_algo_and_determinism(self, tmp_path, capsys):
        src = tmp_path / "two.hgf"
        src.write_text("6 2\n1=1.0 2=1.0 3=1.0\n4=1.0 5=1.0 6=1.0\n")
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for dst in (a, b):
            code, _, _ = run(
                capsys, "communities", "--input", str(src), "--algo", "graph-lp",
                "--seed", "9", "--output", str(dst),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_graph_algo_derives_each_row_once(self, tmp_path, capsys, monkeypatch):
        # LP and modularity share one unpacking of the co-member table's rows.
        src = tmp_path / "two.hgf"
        src.write_text("6 3\n1=1.0 2=1.0 3=1.0\n3=1.0 4=1.0\n4=1.0 5=1.0 6=1.0\n")
        calls = []
        neighbors = CoMemberTable.neighbors
        monkeypatch.setattr(CoMemberTable, "neighbors", lambda self, v: calls.append(v) or neighbors(self, v))
        code, out, _ = run(capsys, "communities", "--input", str(src), "--algo", "graph-lp", "--max-iter", "5")
        assert code == 0 and "modularity: n/a" not in out
        assert sorted(calls) == [1, 2, 3, 4, 5, 6]

    def test_degenerate_modularity_reported_as_na(self, tmp_path, capsys):
        src = tmp_path / "empty.hgf"
        src.write_text("0 0\n")
        code, out, _ = run(capsys, "communities", "--input", str(src))
        assert code == 0
        assert "modularity: n/a" in out


class TestNmi:
    def test_identical_partitions(self, tmp_path, capsys):
        part = Partition.from_communities([{1, 2}, {3}])
        a = tmp_path / "a.json"
        b = tmp_path / "b.csv"
        a.write_text(part.to_json_text())
        b.write_text(part.to_csv_text())
        code, out, _ = run(capsys, "nmi", str(a), str(b))
        assert code == 0 and out == "1\n"
        code, out, _ = run(capsys, "nmi", "--full-precision", str(a), str(b))
        assert code == 0 and out == "1.0\n"

    def test_domain_mismatch_exits_4(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(Partition({1: 1, 2: 1}).to_json_text())
        b.write_text(Partition({1: 1, 3: 1}).to_json_text())
        code, _, err = run(capsys, "nmi", str(a), str(b))
        assert code == 4
        assert err.startswith("error:")

    @pytest.mark.parametrize("other, code", [({1: 1}, 4), ({}, 5)], ids=["against-one-vertex", "against-empty"])
    def test_an_empty_csv_is_the_empty_partition(self, tmp_path, capsys, other, code):
        # As for a partition JSON of {}: a domain mismatch (4) or nothing to compare (5).
        (tmp_path / "empty.csv").write_text("")
        (tmp_path / "empty.json").write_text("{}")
        (tmp_path / "other.json").write_text(Partition(other).to_json_text())
        for empty in ("empty.csv", "empty.json"):
            got, out, err = run(capsys, "nmi", str(tmp_path / empty), str(tmp_path / "other.json"))
            assert (got, out) == (code, "") and err.startswith("error:")


class TestBetweenness:
    def test_ranked_csv(self, tmp_path, capsys):
        src = tmp_path / "path.hgf"
        src.write_text(PATH5)
        code, out, _ = run(capsys, "betweenness", "--input", str(src))
        assert code == 0
        assert out.splitlines() == [
            "vertex,label,score",
            "3,,4",
            "2,,3",
            "4,,3",
            "1,,0",
            "5,,0",
        ]

    def test_top_k(self, tmp_path, capsys):
        src = tmp_path / "path.hgf"
        src.write_text(PATH5)
        code, out, _ = run(capsys, "betweenness", "--input", str(src), "--top-k", "1")
        assert code == 0
        assert out.splitlines() == ["vertex,label,score", "3,,4"]

    def test_oversized_s_scores_everything_zero(self, tmp_path, capsys):
        src = tmp_path / "path.hgf"
        src.write_text(PATH5)
        code, out, _ = run(capsys, "betweenness", "--input", str(src), "--s", "9")
        assert code == 0
        assert all(line.endswith(",0") for line in out.splitlines()[1:])

    def test_labels_come_from_metadata(self, tmp_path, capsys):
        src = tmp_path / "reviews.csv"
        src.write_text(REVIEWS)
        code, out, _ = run(capsys, "betweenness", "--input", str(src))
        assert code == 0
        # items b1-b2-b3 form a two-section path, so b2 mediates one pair
        assert out.splitlines()[1] == "2,b2,1"


class TestForecast:
    def test_hand_instance(self, tmp_path, capsys):
        src = tmp_path / "reviews.csv"
        src.write_text(REVIEWS)
        dst = tmp_path / "forecast.csv"
        code, out, _ = run(capsys, "forecast", "--input", str(src), "--output", str(dst))
        assert code == 0
        assert "err-hypergraph: 1.33333 (defined 3/3)" in out
        assert "err-graph: 1.33333 (defined 3/3)" in out
        assert dst.read_text().splitlines() == [
            "vertex,label,stars,forecast_hyper,forecast_graph",
            "1,b1,5,3,3",
            "2,b2,3,3,3",
            "3,b3,1,3,3",
        ]

    def test_star_filter_changes_structure(self, tmp_path, capsys):
        src = tmp_path / "reviews.csv"
        src.write_text(REVIEWS)
        code, out, _ = run(capsys, "forecast", "--input", str(src), "--stars", "3", "5")
        assert code == 0
        # the 1-star item drops out; b1 and b2 forecast each other
        assert "err-hypergraph: 2 (defined 2/2)" in out
        assert "err-graph: 2 (defined 2/2)" in out

    def test_star_filter_keeps_ratings_over_every_review(self, tmp_path, capsys):
        src = tmp_path / "reviews.csv"
        src.write_text("user_id,item_id,stars\nu1,b1,5\nu1,b2,1\nu2,b2,3\nu2,b1,3\n")
        dst = tmp_path / "forecast.csv"
        assert run(capsys, "forecast", "--input", str(src), "--stars", "3", "5", "--output", str(dst))[0] == 0
        # b2's 1-star review leaves the hypergraph but still counts in its rating.
        assert [line.split(",")[:3] for line in dst.read_text().splitlines()[1:]] == [["1", "b1", "4"], ["2", "b2", "2"]]

    def test_no_usable_structure_exits_5(self, tmp_path, capsys):
        src = tmp_path / "reviews.csv"
        src.write_text("user_id,item_id,stars\nu1,b1,5\n")
        code, _, err = run(capsys, "forecast", "--input", str(src))
        assert code == 5
        assert err.startswith("error:")

    @pytest.mark.parametrize("stars", ["0", "9"])
    def test_out_of_range_stars_is_a_usage_error(self, tmp_path, capsys, stars):
        src = tmp_path / "reviews.csv"
        src.write_text(REVIEWS)
        with pytest.raises(SystemExit) as info:
            main(["forecast", "--input", str(src), "--stars", "5", stars])
        assert info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestCsvLabels:
    def read_rows(self, path):
        with open(path, encoding="utf-8", newline="") as f:
            return list(csv.reader(f))

    def test_betweenness_output_round_trips_through_correlate(self, tmp_path, capsys):
        src = tmp_path / "reviews.csv"
        src.write_text(ODD_REVIEWS)
        dst = tmp_path / "scores.csv"
        code, _, _ = run(capsys, "betweenness", "--input", str(src), "--output", str(dst))
        assert code == 0
        rows = self.read_rows(dst)
        assert rows[0] == ["vertex", "label", "score"]
        assert sorted(rows[1:]) == [["1", ODD_LABELS[0], "0"], ["2", ODD_LABELS[1], "1"], ["3", ODD_LABELS[2], "0"]]
        assert _read_scores_csv(str(dst)) == {2: 1.0, 1: 0.0, 3: 0.0}
        code, out, _ = run(capsys, "correlate", str(dst), str(dst))
        assert code == 0 and out == "1\n"

    def test_forecast_output_keeps_labels(self, tmp_path, capsys):
        src = tmp_path / "reviews.csv"
        src.write_text(ODD_REVIEWS)
        dst = tmp_path / "forecast.csv"
        code, _, _ = run(capsys, "forecast", "--input", str(src), "--output", str(dst))
        assert code == 0
        rows = self.read_rows(dst)
        assert rows[0] == ["vertex", "label", "stars", "forecast_hyper", "forecast_graph"]
        assert [row[:2] for row in rows[1:]] == [["1", ODD_LABELS[0]], ["2", ODD_LABELS[1]], ["3", ODD_LABELS[2]]]
        assert all(len(row) == 5 for row in rows)

    def test_bare_carriage_return_label_round_trips(self, tmp_path, capsys):
        # A review CSV is read with universal newlines, so the label
        # arrives through JSON metadata instead.
        h = hypergraph_from_edges(3, [(1, 2), (2, 3)])
        h._vmeta = ["a\rb", "plain", "c\r\nd"]
        src = tmp_path / "path.json"
        src.write_text(write_json(h))
        dst = tmp_path / "scores.csv"
        code, _, _ = run(capsys, "betweenness", "--input", str(src), "--output", str(dst))
        assert code == 0
        assert dst.read_bytes() == b'vertex,label,score\n2,plain,1\n1,"a\rb",0\n3,"c\r\nd",0\n'
        assert self.read_rows(dst)[1:] == [["2", "plain", "1"], ["1", "a\rb", "0"], ["3", "c\r\nd", "0"]]
        code, out, _ = run(capsys, "correlate", str(dst), str(dst))
        assert code == 0 and out == "1\n"


class TestCorrelate:
    def write_scores(self, path, scores):
        lines = ["vertex,label,score"]
        lines += [f"{v},,{s}" for v, s in scores.items()]
        path.write_text("\n".join(lines) + "\n")

    def test_perfect_correlation(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        self.write_scores(a, {1: 1.0, 2: 2.0, 3: 3.0})
        self.write_scores(b, {1: 2.0, 2: 4.0, 3: 6.0})
        code, out, _ = run(capsys, "correlate", str(a), str(b))
        assert code == 0 and out == "1\n"

    def test_anticorrelation(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        self.write_scores(a, {1: 1.0, 2: 2.0, 3: 3.0})
        self.write_scores(b, {1: 3.0, 2: 2.0, 3: 1.0})
        code, out, _ = run(capsys, "correlate", str(a), str(b))
        assert code == 0 and out == "-1\n"

    def test_zero_variance_exits_5(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        self.write_scores(a, {1: 1.0, 2: 1.0})
        self.write_scores(b, {1: 3.0, 2: 2.0})
        code, _, err = run(capsys, "correlate", str(a), str(b))
        assert code == 5 and err.startswith("error:")

    def test_bad_header_exits_3(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("nope\n")
        b = tmp_path / "b.csv"
        self.write_scores(b, {1: 3.0, 2: 2.0})
        code, _, _ = run(capsys, "correlate", str(a), str(b))
        assert code == 3

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan", "Infinity"])
    def test_non_finite_score_exits_3(self, tmp_path, capsys, bad):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        self.write_scores(a, {1: 1.0, 2: bad, 3: 3.0})
        self.write_scores(b, {1: 2.0, 2: 4.0, 3: 6.0})
        code, out, err = run(capsys, "correlate", str(a), str(b))
        assert (code, out) == (3, "")
        assert err == f"error: {a}: score {bad!r} of vertex 2 is not finite\n"

    def test_repeated_vertex_exits_3(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("vertex,label,score\n1,,1\n2,,2\n3,,3\n2,,5\n")
        self.write_scores(b, {1: 2.0, 2: 4.0, 3: 6.0})
        code, out, err = run(capsys, "correlate", str(b), str(a))
        assert (code, out) == (3, "")
        assert err == f"error: {a}: vertex 2 scored twice\n"

    def test_empty_lines_before_the_header_are_skipped(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("\n\nvertex,label,score\n1,,1\n\n2,,2\n3,,4\n\n")
        self.write_scores(tmp_path / "b.csv", {1: 1.0, 2: 2.0, 3: 4.0})
        assert run(capsys, "correlate", str(a), str(tmp_path / "b.csv")) == (0, "1\n", "")

    def test_a_line_of_spaces_exits_3(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("vertex,label,score\n1,,1\n   \n2,,2\n")
        self.write_scores(tmp_path / "b.csv", {1: 1.0, 2: 2.0})
        code, out, err = run(capsys, "correlate", str(a), str(tmp_path / "b.csv"))
        assert (code, out) == (3, "")
        assert err == f"error: {a}: row ['   '] must have three fields\n"

    @pytest.mark.parametrize("other, code", [({1: 1.0, 2: 2.0}, 4), ({}, 5)], ids=["against-two-vertices", "against-empty"])
    def test_an_empty_file_is_the_empty_table(self, tmp_path, capsys, other, code):
        # A domain mismatch (4) or too few vertices to correlate (5), as for a header-only file.
        for empty in ("", "vertex,label,score\n"):
            (tmp_path / "a.csv").write_text(empty)
            self.write_scores(tmp_path / "b.csv", other)
            got, out, err = run(capsys, "correlate", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"))
            assert (got, out) == (code, "") and err.startswith("error:")


class TestRerun:
    def test_verifies_byte_identity(self, tmp_path, capsys):
        src = tmp_path / "path.hgf"
        src.write_text(PATH5)
        dst = tmp_path / "scores.csv"
        assert run(capsys, "betweenness", "--input", str(src), "--output", str(dst))[0] == 0
        manifest = tmp_path / "scores.csv.manifest.json"
        assert manifest.exists()
        code, _, err = run(capsys, "rerun", str(manifest))
        assert code == 0 and err == ""

    def test_detects_changed_input(self, tmp_path, capsys):
        src = tmp_path / "path.hgf"
        src.write_text(PATH5)
        dst = tmp_path / "scores.csv"
        assert run(capsys, "betweenness", "--input", str(src), "--output", str(dst))[0] == 0
        src.write_text(GOLDEN)  # different structure, same path
        code, _, err = run(capsys, "rerun", str(tmp_path / "scores.csv.manifest.json"))
        assert code == 1
        assert "digest changed" in err

    def test_manifest_digests_the_input_bytes_the_output_came_from(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "path.hgf"
        src.write_text(PATH5)
        dst = tmp_path / "scores.csv"
        score = cli.s_betweenness

        def rewrite_input_then_score(*args):
            src.write_text(GOLDEN)
            return score(*args)

        monkeypatch.setattr(cli, "s_betweenness", rewrite_input_then_score)
        assert run(capsys, "betweenness", "--input", str(src), "--output", str(dst))[0] == 0
        monkeypatch.undo()
        manifest = tmp_path / "scores.csv.manifest.json"
        doc = json.loads(manifest.read_text())
        assert doc["inputs"] == [{"path": str(src), "sha256": hashlib.sha256(PATH5.encode()).hexdigest()}]
        # rerun blames the input that changed, not the output.
        code, _, err = run(capsys, "rerun", str(manifest))
        assert code == 1
        assert err.startswith(f"error: {src} digest changed (")

    def test_replays_seeded_commands(self, tmp_path, capsys):
        src = tmp_path / "two.hgf"
        src.write_text("6 2\n1=1.0 2=1.0 3=1.0\n4=1.0 5=1.0 6=1.0\n")
        dst = tmp_path / "part.json"
        assert run(
            capsys, "communities", "--input", str(src), "--algo", "graph-lp",
            "--seed", "42", "--output", str(dst),
        )[0] == 0
        code, _, err = run(capsys, "rerun", str(tmp_path / "part.json.manifest.json"))
        assert code == 0 and err == ""

    def _relative_run(self, tmp_path, capsys, monkeypatch):
        """Betweenness recorded with paths relative to ``tmp_path/work``."""
        work = tmp_path / "work"
        (work / "data").mkdir(parents=True)
        (work / "out").mkdir()
        (work / "data" / "path.hgf").write_text(PATH5)
        monkeypatch.chdir(work)
        argv = ["betweenness", "--input", "data/path.hgf", "--output", "out/scores.csv"]
        assert run(capsys, *argv)[0] == 0
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        return work / "out" / "scores.csv"

    def test_replays_from_another_directory(self, tmp_path, capsys, monkeypatch):
        dst = self._relative_run(tmp_path, capsys, monkeypatch)
        before = dst.read_bytes()
        manifest = dst.with_name("scores.csv.manifest.json")
        for path in (str(manifest), "../work/out/scores.csv.manifest.json"):
            code, _, err = run(capsys, "rerun", path)
            assert code == 0 and err == ""
        assert dst.read_bytes() == before
        assert sorted(p.name for p in dst.parent.iterdir()) == ["scores.csv", "scores.csv.manifest.json"]

    def test_changed_input_is_named_without_replaying(self, tmp_path, capsys, monkeypatch):
        dst = self._relative_run(tmp_path, capsys, monkeypatch)
        (tmp_path / "work" / "data" / "path.hgf").write_text(GOLDEN)
        code, _, err = run(capsys, "rerun", str(dst) + ".manifest.json")
        assert code == 1
        assert err.startswith("error: data/path.hgf digest changed (")
        assert err.count("\n") == 1

    def test_tampered_output_is_reported_and_kept(self, tmp_path, capsys, monkeypatch):
        dst = self._relative_run(tmp_path, capsys, monkeypatch)
        manifest = dst.with_name("scores.csv.manifest.json")
        recorded = manifest.read_bytes()
        dst.write_bytes(b"vertex,label,score\n1,,9\n")
        code, _, err = run(capsys, "rerun", str(manifest))
        assert code == 1
        assert err.startswith("error: out/scores.csv digest changed (")
        assert "on replay" not in err
        assert dst.read_bytes() == b"vertex,label,score\n1,,9\n"
        assert manifest.read_bytes() == recorded

    def test_output_that_replays_differently_is_named(self, tmp_path, capsys, monkeypatch):
        dst = self._relative_run(tmp_path, capsys, monkeypatch)
        manifest = dst.with_name("scores.csv.manifest.json")
        doc = json.loads(manifest.read_text())
        doc["outputs"][0]["sha256"] = "0" * 64
        manifest.write_text(json.dumps(doc))
        before = dst.read_bytes()
        code, _, err = run(capsys, "rerun", str(manifest))
        assert code == 1
        lines = err.splitlines()
        assert lines[0].startswith("error: out/scores.csv digest changed on replay (000000000000 -> ")
        assert lines[1].startswith("error: out/scores.csv digest changed (000000000000 -> ")
        assert dst.read_bytes() == before

    def test_manifest_with_removed_flag_exits_3(self, tmp_path, capsys):
        src = tmp_path / "path.hgf"
        src.write_text(PATH5)
        dst = tmp_path / "scores.csv"
        assert run(capsys, "betweenness", "--input", str(src), "--output", str(dst))[0] == 0
        manifest = tmp_path / "scores.csv.manifest.json"
        doc = json.loads(manifest.read_text())
        doc["argv"].insert(1, "--deterministic")
        manifest.write_text(json.dumps(doc))
        code, out, err = run(capsys, "rerun", str(manifest))
        assert (code, out) == (3, "")
        assert err == f"error: {manifest}: argv does not replay a command: unrecognized arguments: --deterministic\n"

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["stats", "-h"], "argv does not replay a command: it asks for help or the version"),
            (["--version"], "argv must replay a command that writes a manifest, not '--version'"),
            (["stats", "--bogus"], "argv does not replay a command: the following arguments are required: --input"),
            (["nmi", "a.json", "b.json"], "argv must replay a command that writes a manifest, not 'nmi'"),
        ],
        ids=["help", "version", "unknown-flag", "command-without-manifest"],
    )
    def test_argv_that_replays_no_command_exits_3(self, tmp_path, capsys, argv, reason):
        src = tmp_path / "a.hgf"
        src.write_text(GOLDEN)
        out = tmp_path / "o.txt"
        assert run(capsys, "stats", "--input", str(src), "--output", str(out))[0] == 0
        manifest = Path(str(out) + ".manifest.json")
        doc = json.loads(manifest.read_text())
        doc["argv"] = argv
        manifest.write_text(json.dumps(doc))
        out.write_text("overwritten\n")
        assert run(capsys, "rerun", str(manifest)) == (3, "", f"error: {manifest}: {reason}\n")

    @pytest.mark.parametrize("edit", ["no-output", "no-output-recorded", "other-output"])
    def test_manifest_without_its_output_exits_3(self, tmp_path, capsys, edit):
        src = tmp_path / "a.hgf"
        src.write_text(GOLDEN)
        out = tmp_path / "o.txt"
        assert run(capsys, "stats", "--input", str(src), "--output", str(out))[0] == 0
        manifest = Path(str(out) + ".manifest.json")
        doc = json.loads(manifest.read_text())
        if edit == "no-output":
            doc["argv"], doc["outputs"] = ["stats", "--input", str(src)], []
            reason = "the manifest records no output"
        elif edit == "no-output-recorded":
            doc["outputs"] = []
            reason = "the manifest records no output"
        else:
            doc["argv"][-1] = str(tmp_path / "p.txt")
            reason = "argv's --output must name the first recorded output"
        manifest.write_text(json.dumps(doc))
        # A replay would pass without looking at the overwritten output.
        out.write_text("overwritten\n")
        assert run(capsys, "rerun", str(manifest)) == (3, "", f"error: {manifest}: {reason}\n")

    def test_non_utf8_names_reach_a_strict_stderr_as_their_bytes(self, tmp_path, capsysbinary):
        folder = bytes(tmp_path) + b"/d\xff"
        try:
            os.mkdir(folder)
        except OSError:
            pytest.skip("the file system refuses a name that is not UTF-8")
        src, out = os.fsdecode(folder + b"/in.hgf"), os.fsdecode(folder + b"/out.txt")
        Path(src).write_text(GOLDEN)
        assert main(["stats", "--input", src, "--output", out]) == 0
        Path(src).write_text(PATH5)
        capsysbinary.readouterr()
        # pytest's stderr encodes with strict errors, as PYTHONIOENCODING=utf-8:strict would.
        assert main(["rerun", out + ".manifest.json"]) == 1
        assert capsysbinary.readouterr().err.startswith(b"error: " + folder + b"/in.hgf digest changed (")
        Path(src).write_bytes(b"\xff\n")
        assert main(["stats", "--input", src]) == 3
        assert capsysbinary.readouterr().err == b"error: " + folder + b"/in.hgf: not UTF-8 text (invalid start byte)\n"
        assert main(["stats", "--input", src + ".missing"]) == 1
        assert b"No such file or directory" in capsysbinary.readouterr().err

    def test_manifest_of_a_non_utf8_path_replays(self, tmp_path):
        folder = bytes(tmp_path) + b"/d\xff"
        try:
            os.mkdir(folder)
        except OSError:
            pytest.skip("the file system refuses a name that is not UTF-8")
        src, out = folder + b"/in.hgf", folder + b"/out.txt"
        Path(os.fsdecode(src)).write_text(GOLDEN)
        env = {**os.environ, "PYTHONPATH": str(Path(hgkit.__file__).resolve().parent.parent)}
        hgkit_cli = [sys.executable, "-m", "hgkit.cli"]
        stats = subprocess.run([*hgkit_cli, "stats", "--input", src, "--output", out], capture_output=True, env=env)
        assert stats.returncode == 0, stats.stderr
        rerun = [*hgkit_cli, "rerun", out + b".manifest.json"]
        done = subprocess.run(rerun, capture_output=True, env=env)
        assert (done.returncode, done.stderr) == (0, b"")
        Path(os.fsdecode(out)).write_text("edited\n")
        done = subprocess.run(rerun, capture_output=True, env=env)
        assert done.returncode == 1 and b"digest changed" in done.stderr

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            '{"manifest_version": 1, "outputs": []}',
            '{"manifest_version": 2, "argv": ["stats", "--input", "g.hgf"], "outputs": []}',
            '{"manifest_version": 1, "argv": "stats --input g.hgf", "outputs": []}',
            '{"manifest_version": 1, "argv": ["stats", "--input", "g.hgf"], "outputs": [{"path": "x"}]}',
            '[1, 2]',
            '{"manifest_version": true, "argv": ["stats", "--input", "g.hgf"], "inputs": [], "outputs": []}',
            '{"manifest_version": 1.0, "argv": ["stats", "--input", "g.hgf"], "inputs": [], "outputs": []}',
            '{"manifest_version": 1, "argv": ["rerun"], "argv": ["stats", "--input", "g.hgf"], "inputs": [], "outputs": []}',
        ],
        ids=[
            "invalid-json", "missing-argv", "wrong-version", "argv-not-a-list", "output-without-digest", "not-an-object",
            "version-true", "version-float", "duplicate-argv",
        ],
    )
    def test_malformed_manifest_exits_3(self, tmp_path, capsys, text):
        manifest = tmp_path / "m.manifest.json"
        manifest.write_text(text)
        code, _, err = run(capsys, "rerun", str(manifest))
        assert code == 3 and err.startswith("error:")

    @pytest.mark.parametrize(
        "doc",
        [
            {"argv": ["stats", "--input", "\ud800"], "inputs": [], "outputs": []},
            {"argv": ["stats", "--input", "g.hgf"], "inputs": [{"path": "\udfff", "sha256": "0"}], "outputs": []},
            {"argv": ["stats", "--input", "g.hgf"], "inputs": [], "outputs": [{"path": "\ud800.txt", "sha256": "0"}]},
        ],
        ids=["argv", "input-path", "output-path"],
    )
    def test_lone_surrogate_in_manifest_exits_3(self, tmp_path, capsys, doc):
        manifest = tmp_path / "m.manifest.json"
        manifest.write_text(json.dumps({"manifest_version": 1, **doc}))
        code, out, err = run(capsys, "rerun", str(manifest))
        assert (code, out) == (3, "")
        assert err.startswith(f"error: {manifest}: manifest string '\\u")
        assert err.endswith("' holds a lone surrogate\n") and err.count("\n") == 1

    def test_manifest_replaying_rerun_is_refused(self, tmp_path, capsys):
        manifest = tmp_path / "m.manifest.json"
        doc = {"manifest_version": 1, "argv": ["rerun", str(manifest)], "outputs": []}
        manifest.write_text(json.dumps(doc))
        code, _, err = run(capsys, "rerun", str(manifest))
        assert code == 3 and "rerun" in err

    def test_manifest_records_argv_and_parameters(self, tmp_path, capsys):
        src = tmp_path / "two.hgf"
        src.write_text("2 1\n1=1.0 2=1.0\n")
        dst = tmp_path / "part.json"
        argv = [
            "communities", "--input", str(src), "--seed", "5", "--output", str(dst)
        ]
        assert run(capsys, *argv)[0] == 0
        doc = json.loads((tmp_path / "part.json.manifest.json").read_text())
        assert doc["argv"] == argv
        assert doc["parameters"]["seed"] == 5
        assert doc["parameters"]["algo"] == "hyper-lp"
        assert doc["tool_version"]


class TestErrorsAndUsage:
    def test_malformed_document_exits_3(self, tmp_path, capsys):
        src = tmp_path / "bad.hgf"
        src.write_text("x 2\n1=1.0\n2=1.0\n")
        code, _, err = run(capsys, "stats", "--input", str(src))
        assert code == 3 and err.startswith("error:")

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code, _, err = run(capsys, "stats", "--input", str(tmp_path / "nope.hgf"))
        assert code == 1 and err.startswith("error:")

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["stats"])
        assert info.value.code == 2
        assert "required: --input" in capsys.readouterr().err

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_format_token_exits_2(self, tmp_path, capsys):
        src = tmp_path / "g.hgf"
        src.write_text(GOLDEN)
        with pytest.raises(SystemExit) as info:
            main(["convert", "--input", str(src), "--to", "yaml"])
        assert info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["communities", "--max-iter", "0"],
            ["communities", "--max-iter", "-3"],
            ["betweenness", "--top-k", "-1"],
        ],
        ids=["max-iter-0", "max-iter-negative", "top-k-negative"],
    )
    def test_out_of_range_count_is_a_usage_error(self, tmp_path, capsys, argv):
        src = tmp_path / "path.hgf"
        src.write_text(PATH5)
        dst = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as info:
            main([argv[0], "--input", str(src), *argv[1:], "--output", str(dst)])
        assert info.value.code == 2
        assert f"argument {argv[1]}: value must be an integer of at least" in capsys.readouterr().err
        assert not dst.exists()

    def test_smallest_counts_are_accepted(self, tmp_path, capsys):
        src = tmp_path / "path.hgf"
        src.write_text(PATH5)
        code, out, _ = run(capsys, "communities", "--input", str(src), "--max-iter", "1")
        assert code == 0 and "iterations: 1\n" in out
        code, out, _ = run(capsys, "betweenness", "--input", str(src), "--top-k", "0")
        assert (code, out) == (0, "vertex,label,score\n")

    def test_non_integer_count_keeps_the_int_message(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["betweenness", "--input", "g.hgf", "--top-k", "x"])
        assert info.value.code == 2
        assert "invalid int value: 'x'" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("hgkit ")

    def test_removed_deterministic_flag_exits_2(self, tmp_path, capsys):
        src = tmp_path / "g.hgf"
        src.write_text(GOLDEN)
        with pytest.raises(SystemExit) as info:
            main(["stats", "--deterministic", "--input", str(src)])
        assert info.value.code == 2
        assert "unrecognized arguments: --deterministic" in capsys.readouterr().err


class TestInvalidUtf8:
    """Every input file the CLI reads is UTF-8; other bytes are a format error (exit 3)."""

    CASES = {
        "hgf": ("g.hgf", b"3 1\n1=1.0 \xff\n", ["stats", "--input"]),
        "json": ("g.json", b'{"format_version": 1, "n": "\xff"}', ["stats", "--input"]),
        "reviews-csv": ("r.csv", b"user_id,item_id,stars\nu1,b\xff,5\n", ["stats", "--input"]),
        "scenes-json": ("s.json", b'[{"id": 1, "members": ["\xc3"]}]', ["stats", "--format", "scenes-json", "--input"]),
        "forecast": ("r.csv", b"user_id,item_id,stars\nu1,b\xff,5\n", ["forecast", "--input"]),
        "partition-json": ("p.json", b'{"1": [1], "\xfe": []}', ["nmi", "good.json"]),
        "partition-csv": ("p.csv", b"vertex,label\n1,\x80\n", ["nmi", "good.json"]),
        "scores-csv": ("s.csv", b"vertex,label,score\n1,\xe9,0.5\n", ["correlate", "good.csv"]),
        "manifest": ("m.manifest.json", b'{"manifest_version": 1, "argv": ["\xff"]}', ["rerun"]),
    }

    @pytest.mark.parametrize("kind", list(CASES))
    def test_exits_3_with_an_error_line(self, tmp_path, capsys, monkeypatch, kind):
        name, data, argv = self.CASES[kind]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "good.json").write_text(Partition({1: 1}).to_json_text())
        (tmp_path / "good.csv").write_text("vertex,label,score\n1,,0.5\n")
        (tmp_path / name).write_bytes(data)
        code, out, err = run(capsys, *argv, name)
        assert (code, out) == (3, "")
        assert err.startswith(f"error: {name}: not UTF-8 text (")


class TestByteOrderMark:
    """Every CSV table may start with the UTF-8 byte order mark that spreadsheet exports write."""

    @pytest.mark.parametrize("command", [["stats"], ["forecast", "--full-precision"]])
    def test_same_output_with_and_without_it(self, tmp_path, capsys, command):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(REVIEWS.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + REVIEWS.encode())
        want = run(capsys, *command, "--input", str(plain))
        assert want[0] == 0
        assert run(capsys, *command, "--input", str(marked)) == want

    @pytest.mark.parametrize(
        "command, text",
        [("nmi", Partition({1: 1, 2: 1, 3: 2}).to_csv_text()), ("correlate", "vertex,label,score\n1,,1\n2,,2\n3,,4\n")],
        ids=["nmi", "correlate"],
    )
    def test_partition_and_score_tables_read_alike_with_it(self, tmp_path, capsys, command, text):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        want = run(capsys, command, str(plain), str(plain))
        assert want[0] == 0
        assert run(capsys, command, str(marked), str(plain)) == want
        assert run(capsys, command, str(plain), str(marked)) == want


class TestLoneSurrogates:
    """A JSON ``\\ud800`` escape decodes to a string no UTF-8 writer can encode: exit 3."""

    SCENES = '[{"id": 1, "members": ["\\ud800", "b"]}, {"id": 2, "members": ["b", "c"]}]'

    def test_scene_member_exits_3_before_any_output(self, tmp_path, capsys):
        src, dst = tmp_path / "s.json", tmp_path / "scores.csv"
        src.write_text(self.SCENES)
        code, out, err = run(
            capsys, "betweenness", "--input", str(src), "--format", "scenes-json", "--output", str(dst)
        )
        assert (code, out) == (3, "")
        assert err == "error: scene '1': '\\ud800' holds a lone surrogate\n"
        assert not dst.exists()

    def test_json_label_exits_3_before_any_output(self, tmp_path, capsys):
        h = hypergraph_from_edges(2, [(1, 2)])
        h.set_vertex_meta(1, "\udc80")
        src, dst = tmp_path / "g.json", tmp_path / "scores.csv"
        src.write_text(write_json(h))
        code, out, err = run(capsys, "betweenness", "--input", str(src), "--output", str(dst))
        assert (code, out) == (3, "")
        assert err == "error: metadata '\\udc80' holds a lone surrogate\n"
        assert not dst.exists()

    def test_escaped_pairs_and_nested_metadata_still_load(self, tmp_path, capsys):
        scenes = tmp_path / "s.json"
        scenes.write_text('[{"id": "\\u00e9", "members": ["\\ud83d\\ude00", "b"]}]')
        code, _, _ = run(capsys, "betweenness", "--input", str(scenes), "--format", "scenes-json")
        assert code == 0
        h = hypergraph_from_edges(2, [(1, 2)])
        h.set_vertex_meta(1, "\u00e9\U0001f600")
        h.set_vertex_meta(2, {"nested": "\ud800"})
        src = tmp_path / "g.json"
        src.write_text(write_json(h))
        code, out, _ = run(capsys, "betweenness", "--input", str(src))
        assert code == 0
        assert out.splitlines()[1:] == ["1,\u00e9\U0001f600,0", "2,,0"]


class TestParserLimits:
    """Inputs past a parser's limits are format errors (exit 3), not tracebacks.

    ``json`` refuses integer literals of more than 4,300 digits with a
    plain ``ValueError`` and nesting past the recursion limit with a
    ``RecursionError``, ``float`` overflows on an integer weight of
    1e309, and ``csv`` refuses fields of more than 131,072 characters.
    """

    LONG_INT = "1" * 5000
    DEEP = "[" * 100000 + "]" * 100000
    TOO_DEEP = "maximum recursion depth exceeded"
    HUGE_WEIGHT = "1" + "0" * 309
    LONG_FIELD = "b" * 131073
    CASES = {
        "json-long-int": (
            "g.json",
            f'{{"format_version": 1, "n": {LONG_INT}, "k": 0}}',
            ["stats", "--input"],
            "error: document is not valid JSON: Exceeds the limit (4300 digits)",
        ),
        "scenes-long-int": (
            "s.json",
            f'[{{"id": {LONG_INT}, "members": ["a"]}}]',
            ["stats", "--format", "scenes-json", "--input"],
            "error: scene document is not valid JSON: Exceeds the limit (4300 digits)",
        ),
        "partition-json-long-int": (
            "p.json",
            f'{{"1": [{LONG_INT}]}}',
            ["nmi", "good.json"],
            "error: partition document is not valid JSON: Exceeds the limit (4300 digits)",
        ),
        "json-deep": (
            "g.json",
            DEEP,
            ["stats", "--input"],
            f"error: document is not valid JSON: {TOO_DEEP}",
        ),
        "scenes-deep": (
            "s.json",
            DEEP,
            ["stats", "--format", "scenes-json", "--input"],
            f"error: scene document is not valid JSON: {TOO_DEEP}",
        ),
        "partition-json-deep": (
            "p.json",
            f'{{"1": {DEEP}}}',
            ["nmi", "good.json"],
            f"error: partition document is not valid JSON: {TOO_DEEP}",
        ),
        "manifest-deep": (
            "m.manifest.json",
            DEEP,
            ["rerun"],
            f"error: m.manifest.json: manifest is not valid JSON: {TOO_DEEP}",
        ),
        "json-huge-weight": (
            "g.json",
            f'{{"format_version": 1, "n": 1, "k": 1, "v2he": [{{"1": {HUGE_WEIGHT}}}], "he2v": [{{"1": 1.0}}]}}',
            ["stats", "--input"],
            "error: v2he weight must be finite, got an int beyond the float range\n",
        ),
        "reviews-long-field": (
            "r.csv",
            f"user_id,item_id,stars\nu1,{LONG_FIELD},5\n",
            ["stats", "--input"],
            "error: review CSV unparseable: field larger than field limit (131072)\n",
        ),
        "forecast-long-field": (
            "r.csv",
            f"user_id,item_id,stars\nu1,b1,5\n{LONG_FIELD},b1,5\n",
            ["forecast", "--input"],
            "error: review CSV unparseable: field larger than field limit (131072)\n",
        ),
        "partition-csv-long-field": (
            "p.csv",
            f"vertex,label\n1,{LONG_FIELD}\n",
            ["nmi", "good.json"],
            "error: partition CSV unparseable: field larger than field limit (131072)\n",
        ),
    }

    @pytest.mark.parametrize("kind", list(CASES))
    def test_exits_3_with_an_error_line(self, tmp_path, capsys, monkeypatch, kind):
        name, text, argv, message = self.CASES[kind]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "good.json").write_text(Partition({1: 1}).to_json_text())
        (tmp_path / name).write_text(text)
        code, out, err = run(capsys, *argv, name)
        assert (code, out) == (3, "")
        assert err.startswith(message)
        assert err.count("\n") == 1


class TestNumberGrammar:
    """Documents and integer options spell numbers alike: ASCII without underscores."""

    JSON_KEY = '{"format_version": 1, "n": 1, "k": 1, "v2he": [{"0_1": 1.0}], "he2v": [{"1": 1.0}]}'
    # Case -> file name, text, the command before the file, and its error line.
    DOCUMENTS = {
        "hgf-count": ("g.hgf", "1_0 1\n1=1.0\n", ["stats", "--input"], "vertex count '1_0' is not an integer"),
        "hgf-vertex": ("g.hgf", "4 1\n４=1.0\n", ["stats", "--input"], "hyperedge lines must be ASCII text"),
        "hgf-weight": ("g.hgf", "1 1\n1=1_0.5\n", ["stats", "--input"], "weight '1_0.5' is not a float"),
        "json-key": ("g.json", JSON_KEY, ["stats", "--input"], "v2he key '0_1' is not an integer"),
        "stars-underscore": ("r.csv", REVIEWS + "u3,b1,0_5\n", ["forecast", "--input"], "stars '0_5' is not an integer"),
        "stars-fullwidth": ("r.csv", REVIEWS + "u3,b1,４\n", ["stats", "--input"], "stars '４' is not an integer"),
        "partition-csv-vertex": ("p.csv", "vertex,label\n1_0,1\n", ["nmi", "good.json"], "partition vertex '1_0' is not an integer"),
        "partition-json-label": ("p.json", '{"1_0": [1]}', ["nmi", "good.json"], "partition label '1_0' is not an integer"),
        "score-vertex": ("s.csv", "vertex,label,score\n1_0,,1\n", ["correlate", "good.csv"], "s.csv: vertex '1_0' is not an integer"),
        "score": ("s.csv", "vertex,label,score\n1,,1_0.5\n", ["correlate", "good.csv"], "s.csv: score '1_0.5' is not a float"),
    }

    @pytest.mark.parametrize("kind", list(DOCUMENTS))
    def test_a_respelled_number_in_a_document_exits_3(self, tmp_path, capsys, monkeypatch, kind):
        name, text, argv, message = self.DOCUMENTS[kind]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "good.json").write_text(Partition({10: 1}).to_json_text())
        (tmp_path / "good.csv").write_text("vertex,label,score\n10,,0.5\n")
        (tmp_path / name).write_text(text, encoding="utf-8")
        assert run(capsys, *argv, name) == (3, "", f"error: {message}\n")

    # Case -> command, its input, and the option respelled.
    OPTIONS = {
        "s-underscore": ("betweenness", "g.hgf", "--s", "0_1"),
        "s-no-break-space": ("betweenness", "g.hgf", "--s", "\xa02"),
        "seed-arabic-indic": ("communities", "g.hgf", "--seed", "٣"),
        "max-iter-underscore": ("communities", "g.hgf", "--max-iter", "1_0"),
        "top-k-fullwidth": ("betweenness", "g.hgf", "--top-k", "２"),
        "stars-fullwidth": ("forecast", "r.csv", "--stars", "５"),
    }

    @pytest.mark.parametrize("kind", list(OPTIONS))
    def test_a_respelled_integer_option_is_a_usage_error(self, tmp_path, capsys, monkeypatch, kind):
        command, name, option, value = self.OPTIONS[kind]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g.hgf").write_text(PATH5)
        (tmp_path / "r.csv").write_text(REVIEWS)
        with pytest.raises(SystemExit) as info:
            main([command, "--input", name, option, value, "--output", "out"])
        assert info.value.code == 2
        assert f"argument {option}: invalid int value: {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, name, plain, padded",
        [
            ("betweenness", "g.hgf", ["--s", "2", "--top-k", "1"], ["--s", " +2 ", "--top-k", "01"]),
            ("communities", "g.hgf", ["--seed", "7", "--max-iter", "3"], ["--seed", "+7", "--max-iter", "\t3"]),
            ("forecast", "r.csv", ["--stars", "3", "5"], ["--stars", "03", " 5"]),
        ],
        ids=["betweenness", "communities", "forecast"],
    )
    def test_padded_and_signed_options_read_as_plain_ones(self, tmp_path, capsys, monkeypatch, command, name, plain, padded):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g.hgf").write_text(PATH5)
        (tmp_path / "r.csv").write_text(REVIEWS)
        want = run(capsys, command, "--input", name, *plain)
        assert want[0] == 0
        assert run(capsys, command, "--input", name, *padded) == want

    def test_s_zero_still_reaches_the_kernel(self, tmp_path, capsys):
        src = tmp_path / "g.hgf"
        src.write_text(PATH5)
        code, out, err = run(capsys, "betweenness", "--input", str(src), "--s", "0")
        assert (code, out) == (4, "") and err.startswith("error: ")


class TestBlankReviewCsv:
    """A review CSV is a table: a line of blanks is refused, an empty file is the empty table."""

    @pytest.mark.parametrize("command", [["stats"], ["convert", "--to", "hgf"], ["communities"], ["betweenness"], ["forecast"]])
    def test_every_loading_command_refuses_a_line_of_blanks(self, tmp_path, capsys, command):
        src = tmp_path / "r.csv"
        src.write_text(" \n\t\n")
        got = run(capsys, command[0], "--input", str(src), *command[1:])
        assert got == (3, "", "error: review CSV must start with header user_id,item_id,stars\n")

    def test_forecast_reads_its_input_once(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "r.csv"
        src.write_text(" \n")
        reads: list[Path] = []
        read_bytes = Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes", lambda self: reads.append(self) or read_bytes(self))
        assert run(capsys, "forecast", "--input", str(src))[0] == 3
        assert reads.count(src) == 1


def test_importing_the_cli_loads_neither_statistics_nor_tempfile():
    # -S keeps site hooks, which may import either module themselves, out
    # of the interpreter; the package directory goes on the path by hand.
    package_root = str(Path(hgkit.__file__).resolve().parent.parent)
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import hgkit.cli; "
        "print(sorted({'statistics', 'tempfile'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe, package_root],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout == "[]\n"


class TestLoadCache:
    """Commands on one input load it from a cache entry after the first; outputs never change."""

    FORMATS = ("hgf", "json", "reviews-csv", "scenes-json")
    COMMANDS = {
        "stats": ["stats", "--format", "{fmt}", "--output", "{out}.txt"],
        "convert": ["convert", "--from", "{fmt}", "--to", "json", "--output", "{out}.json"],
        "communities": ["communities", "--format", "{fmt}", "--max-iter", "5", "--output", "{out}.json"],
        "betweenness": ["betweenness", "--format", "{fmt}", "--s", "2", "--top-k", "10", "--output", "{out}.csv"],
        # On the clustered input (see write_input), whose two-section graph falls apart into small pieces.
        "betweenness-s1": ["betweenness", "--format", "{fmt}", "--s", "1", "--full-precision", "--output", "{out}.csv"],
        "betweenness-s2": ["betweenness", "--format", "{fmt}", "--s", "2", "--full-precision", "--output", "{out}.csv"],
        # forecast reads every input as a review CSV.
        "forecast": ["forecast", "--full-precision", "--output", "{out}.csv"],
        "forecast-stars": ["forecast", "--stars", "5", "4", "--full-precision", "--output", "{out}.csv"],
        "graph-lp": [
            "communities", "--format", "{fmt}", "--algo", "graph-lp", "--max-iter", "5", "--output", "{out}.json",
        ],
        "dot-twosection": ["convert", "--from", "{fmt}", "--to", "dot-twosection", "--output", "{out}.dot"],
    }
    # The commands that read no hypergraph when the co-member table entry beside it hits.
    TWO_SECTION = ("graph-lp", "dot-twosection")
    # Every command that reads the co-member table entry.
    TABLE = (*TWO_SECTION, "betweenness", "betweenness-s1", "betweenness-s2", "forecast", "forecast-stars")
    CASES = [(c, f) for c, f in product(COMMANDS, FORMATS) if f == "reviews-csv" or not c.startswith("forecast")]

    @staticmethod
    def reviews_text(seed: int = 7, rows: int = 4500, clustered: bool = False) -> str:
        """A random review CSV; a clustered one has each user review among 12 items of their own group of 10 users."""
        rng = random.Random(seed)
        if clustered:
            pairs = [(user, user // 10 * 12 + rng.randrange(12)) for user in (rng.randrange(1500) for _ in range(rows))]
        else:
            pairs = [(rng.randrange(1500), rng.randrange(2000)) for _ in range(rows)]
        lines = ["user_id,item_id,stars"] + [f"u{user},b{item},{rng.randint(1, 5)}" for user, item in pairs]
        return "\n".join(lines) + "\n"

    @classmethod
    def write_input(cls, tmp_path: Path, fmt: str, clustered: bool = False) -> Path:
        """An input in ``fmt`` above the cache's size threshold; a clustered one splits into small components."""
        text = cls.reviews_text(clustered=clustered)
        if fmt in ("hgf", "json"):
            h, _, _ = build_from_reviews(review_rows(text))
            text = write_hgf(h) if fmt == "hgf" else write_json(h)
        elif fmt == "scenes-json":
            rng = random.Random(8)
            text = json.dumps([
                {"id": f"s{i}", "members": [
                    f"c{i // 10 * 6 + rng.randrange(6) if clustered else rng.randrange(1500)}"
                    for _ in range(rng.randint(2, 5))
                ]}
                for i in range(1500)
            ])
        # Named so that every format but scenes-json is inferred.
        src = tmp_path / {"hgf": "in.hgf", "json": "in.json", "reviews-csv": "in.csv"}.get(fmt, "scenes.json")
        src.write_text(text)
        assert src.stat().st_size >= loadcache.MIN_BYTES
        return src

    @staticmethod
    def entries() -> list[Path]:
        return sorted((Path(os.environ["XDG_CACHE_HOME"]) / "hgkit").glob("*.marshal"))

    @staticmethod
    def outcome(capsys, argv: list[str], out: str) -> tuple:
        """Exit code, stdout and the bytes of the output file and its manifest."""
        code, stdout, _ = run(capsys, *argv)
        files = [Path(out), Path(out + ".manifest.json")]
        return code, stdout, [p.read_bytes() if p.exists() else None for p in files]

    @classmethod
    def argv(cls, command: str, src: Path, fmt: str, out: Path) -> tuple[list[str], str]:
        argv = [a.format(fmt=fmt, out=out) for a in cls.COMMANDS[command]]
        return [*argv, "--input", str(src)], argv[-1]

    @staticmethod
    def forbid_parsing(monkeypatch) -> None:
        """Fail any load that parses instead of adopting a cache entry."""

        def forbidden(*args):
            raise AssertionError("parsed although the cache holds the input")

        monkeypatch.setattr(cli, "_parse_hypergraph", forbidden)

    @staticmethod
    def forbid_deriving_rows(monkeypatch, hypergraph: bool) -> None:
        """Fail any load that counts co-members instead of adopting the table entry's rows.

        Unless ``hypergraph``, also fail one that adopts a hypergraph: a
        command that reads only the table loads none on a hit.
        """

        def forbidden(*args):
            raise AssertionError("counted co-members although the cache holds their table")

        monkeypatch.setattr(CoMemberTable, "of", forbidden)
        monkeypatch.setattr(views, "co_member_tallies", forbidden)
        monkeypatch.setattr(centrality, "co_member_tallies", forbidden)
        monkeypatch.setattr(TwoSectionView, "neighbors", forbidden)
        if not hypergraph:
            monkeypatch.setattr(Hypergraph, "_from_rows", forbidden)

    @staticmethod
    def entry(src: Path, key: str) -> Path:
        """The path of the entry of ``src`` under format key ``key``."""
        return Path(os.environ["XDG_CACHE_HOME"]) / "hgkit" / loadcache._entry_name(src.read_bytes(), key)

    def table_entry(self, src: Path, key: str) -> Path:
        return self.entry(src, f"{key} co-members")

    @pytest.mark.parametrize("command, fmt", CASES)
    def test_cold_warm_and_unusable_runs_agree(self, tmp_path, capsys, monkeypatch, fmt, command):
        src = self.write_input(tmp_path, fmt, clustered=command == "betweenness-s1")
        argv, out = self.argv(command, src, fmt, tmp_path / "out")
        cold = self.outcome(capsys, argv, out)
        # A command that reads co-member counts caches the hypergraph it parsed and, beside it, their table.
        assert cold[0] == 0 and len(self.entries()) == (2 if command in self.TABLE else 1)
        with monkeypatch.context() as patch:
            self.forbid_parsing(patch)
            if command in self.TABLE:
                self.forbid_deriving_rows(patch, hypergraph=command not in self.TWO_SECTION)
            assert self.outcome(capsys, argv, out) == cold
        unusable = tmp_path / "unusable"
        unusable.mkdir()
        (unusable / "hgkit").write_text("a file where the cache directory belongs")
        monkeypatch.setenv("XDG_CACHE_HOME", str(unusable))
        assert self.outcome(capsys, argv, out) == cold

    def test_subprocesses_share_entries(self, tmp_path):
        src = self.write_input(tmp_path, "reviews-csv")
        argv = [sys.executable, "-m", "hgkit.cli", "stats", "--input", str(src)]
        env = {**os.environ, "PYTHONPATH": str(Path(hgkit.__file__).resolve().parent.parent)}
        done = [subprocess.run(argv, capture_output=True, timeout=60, env=env) for _ in range(2)]
        assert [d.returncode for d in done] == [0, 0]
        assert done[0].stdout == done[1].stdout and done[0].stderr == done[1].stderr == b""
        [entry] = self.entries()
        assert entry.stat().st_mode & 0o777 == 0o600
        assert entry.parent.stat().st_mode & 0o777 == 0o700

    def test_an_edited_source_is_a_miss(self, tmp_path):
        package = tmp_path / "pkg"
        shutil.copytree(Path(hgkit.__file__).resolve().parent, package / "hgkit",
                        ignore=shutil.ignore_patterns("__pycache__"))
        src = self.write_input(tmp_path, "reviews-csv")
        argv = [sys.executable, "-m", "hgkit.cli", "stats", "--input", str(src)]
        env = {**os.environ, "PYTHONPATH": str(package)}
        for edit in ("", "", "# an edit that changes nothing else\n"):
            with open(package / "hgkit" / "views.py", "a") as f:
                f.write(edit)
            assert subprocess.run(argv, capture_output=True, timeout=60, env=env).returncode == 0
        assert len(self.entries()) == 2

    def test_rerun_of_a_cold_manifest_passes_warm(self, tmp_path, capsys, monkeypatch):
        src = self.write_input(tmp_path, "scenes-json")
        argv, out = self.argv("betweenness", src, "scenes-json", tmp_path / "scores")
        assert run(capsys, *argv)[0] == 0
        self.forbid_parsing(monkeypatch)
        assert run(capsys, "rerun", out + ".manifest.json")[:2] == (0, "")

    def test_rerun_of_a_cold_forecast_manifest_passes_warm(self, tmp_path, capsys, monkeypatch):
        src = self.write_input(tmp_path, "reviews-csv")
        argv, out = self.argv("forecast", src, "reviews-csv", tmp_path / "forecast")
        assert run(capsys, *argv)[0] == 0
        self.forbid_parsing(monkeypatch)
        # The replay prints forecast's report on stdout; stderr must stay empty.
        code, _, err = run(capsys, "rerun", out + ".manifest.json")
        assert (code, err) == (0, "")

    def test_a_warm_reviews_pass_hits_on_every_command(self, tmp_path, capsys, monkeypatch):
        src = self.write_input(tmp_path, "reviews-csv")
        commands = ("stats", "communities", "forecast", "betweenness", "convert")
        for command in commands:
            assert run(capsys, *self.argv(command, src, "reviews-csv", tmp_path / command)[0])[0] == 0
        found = []
        read = loadcache._read_entry
        monkeypatch.setattr(loadcache, "_read_entry", lambda name: found.append(read(name)) or found[-1])
        for command in commands:
            assert run(capsys, *self.argv(command, src, "reviews-csv", tmp_path / command)[0])[0] == 0
        # forecast and betweenness read the table entry after the hypergraph's.
        assert [entry is not None for entry in found] == [True] * 7
        assert len(self.entries()) == 2

    def test_the_star_filter_is_part_of_the_key(self, tmp_path, capsys):
        src = self.write_input(tmp_path, "reviews-csv")
        outputs = []
        for stars in ([], ["5", "4"], ["4", "5", "4"], ["3"]):
            code, out, _ = run(capsys, "forecast", "--input", str(src), *(["--stars", *stars] if stars else []))
            assert code == 0
            outputs.append(out)
        # No filter, {4, 5} in two spellings, and {3}: three builds, each with its table.
        assert outputs[1] == outputs[2] and len(set(outputs)) == 3
        assert len(self.entries()) == 6
        for stars in ([], [4, 5], [3]):
            key = cli._cache_key("reviews-csv", stars or None)
            assert self.entry(src, key).exists() and self.table_entry(src, key).exists()

    def test_one_changed_byte_is_a_miss(self, tmp_path, capsys):
        src = self.write_input(tmp_path, "reviews-csv")
        assert run(capsys, "stats", "--input", str(src))[0] == 0
        data = bytearray(src.read_bytes())
        data[-2:-1] = b"4" if data[-2:-1] != b"4" else b"5"
        src.write_bytes(data)
        assert run(capsys, "stats", "--input", str(src))[0] == 0
        assert len(self.entries()) == 2

    def test_the_format_is_part_of_the_key(self, tmp_path, capsys):
        src = self.write_input(tmp_path, "scenes-json")
        assert run(capsys, "stats", "--format", "scenes-json", "--input", str(src))[0] == 0
        # Inferred from the name, the format is json, whose reader rejects an array.
        code, out, err = run(capsys, "stats", "--input", str(src))
        assert (code, out) == (3, "") and err == "error: document must be a JSON object\n"

    @pytest.mark.parametrize("damage", ["truncate", "flip"])
    def test_damaged_entry_is_ignored_and_rewritten(self, tmp_path, capsys, damage):
        src = self.write_input(tmp_path, "json")
        want = run(capsys, "stats", "--input", str(src))
        [entry] = self.entries()
        good = entry.read_bytes()
        if damage == "truncate":
            entry.write_bytes(good[: len(good) // 2])
        else:
            # One bit of the last hyperedge label: marshal loads the payload,
            # only the entry's digest tells it from the original.
            at = good.rindex(json.loads(src.read_text())["hemeta"][-1].encode())
            entry.write_bytes(good[:at] + bytes([good[at] ^ 0x01]) + good[at + 1 :])
        assert run(capsys, "stats", "--input", str(src)) == want
        assert self.entries() == [entry] and entry.read_bytes() == good

    @pytest.mark.parametrize("kind", ["symlink", "group-writable", "foreign-owned"])
    def test_untrusted_directory_is_not_used(self, tmp_path, capsys, monkeypatch, kind):
        src = self.write_input(tmp_path, "hgf")
        want = run(capsys, "stats", "--input", str(src))
        xdg, target = tmp_path / "xdg", tmp_path / "target"
        xdg.mkdir()
        target.mkdir(mode=0o700)
        if kind == "symlink":
            (xdg / "hgkit").symlink_to(target)
        else:
            target = xdg / "hgkit"
            target.mkdir(mode=0o700)
            if kind == "group-writable":
                target.chmod(0o770)
            elif os.geteuid() == 0:
                os.chown(target, 54321, -1)
            else:
                pytest.skip("only root can hand a directory to another user")
        monkeypatch.setenv("XDG_CACHE_HOME", str(xdg))
        for _ in range(2):
            assert run(capsys, "stats", "--input", str(src)) == want
        assert list(target.iterdir()) == []

    def test_failing_commands_leave_no_entry(self, tmp_path, capsys, monkeypatch):
        bad = tmp_path / "bad.csv"
        bad.write_text(self.reviews_text() + "u1,b1,9\n")
        # Every user reviews one item, so no forecast is defined (exit 5) after a clean parse.
        lonely = tmp_path / "lonely.csv"
        lonely.write_text("user_id,item_id,stars\n" + "".join(f"u{i},b{i},5\n" for i in range(4000)))
        assert lonely.stat().st_size >= loadcache.MIN_BYTES
        scenes = self.write_input(tmp_path, "scenes-json")
        argv, out = self.argv("betweenness", scenes, "scenes-json", tmp_path / "scores")
        with monkeypatch.context() as patch:
            patch.setenv("XDG_CACHE_HOME", str(tmp_path / "elsewhere"))
            assert run(capsys, *argv)[0] == 0
        Path(out).write_text("changed\n")  # so that a replay exits 1
        for argv, code in (
            (["stats", "--input", str(bad)], 3),
            (["forecast", "--input", str(bad)], 3),
            (["forecast", "--input", str(lonely)], 5),
            (["betweenness", "--input", str(scenes), "--format", "scenes-json", "--s", "0"], 4),
            (["rerun", out + ".manifest.json"], 1),
        ):
            assert [run(capsys, *argv)[0] for _ in range(2)] == [code, code]
            assert self.entries() == []

    BAD_HEADER = "user,item,stars\n"
    FORECAST_FAILURES = {
        "blank-small": (" \n\t\n", 3),
        "blank-large": (" " * 40 * 1024, 3),
        "empty": ("", 5),
        "bad-stars-small": (REVIEWS + "u3,b1,9\n", 3),
        "bad-stars-large": ("{reviews}u3,b1,9\n", 3),
        "bad-header-small": (BAD_HEADER + "u1,b1,5\n", 3),
        "bad-header-large": (BAD_HEADER + "{reviews}", 3),
    }

    @pytest.mark.parametrize("kind", list(FORECAST_FAILURES))
    def test_forecast_fails_alike_cold_and_warm(self, tmp_path, capsys, kind):
        text, code = self.FORECAST_FAILURES[kind]
        src = tmp_path / "reviews.csv"
        src.write_text(text.format(reviews=self.reviews_text().partition("\n")[2]))
        assert (src.stat().st_size >= loadcache.MIN_BYTES) == kind.endswith("-large")
        argv = ["forecast", "--input", str(src)]
        cold = run(capsys, *argv)
        assert (cold[0], cold[1]) == (code, "") and cold[2].startswith("error: ")
        # stats reads a review CSV as forecast does: it refuses all but the
        # empty file, which is the empty table and too small to cache.
        assert run(capsys, "stats", "--input", str(src))[0] == (0 if kind == "empty" else 3)
        assert self.entries() == []
        assert run(capsys, *argv) == cold
        assert self.entries() == []

    def test_least_recently_used_entries_are_evicted(self, tmp_path, capsys):
        text = self.reviews_text()
        inputs = []
        for i in range(loadcache.MAX_ENTRIES + 3):
            src = tmp_path / f"r{i}.csv"
            src.write_text(text + f"extra{i},b1,5\n")
            inputs.append(src)
        dated: list[Path] = []
        for i, src in enumerate(inputs[: loadcache.MAX_ENTRIES]):
            assert run(capsys, "stats", "--input", str(src))[0] == 0
            [new] = set(self.entries()) - set(dated)
            # Distinct, ordered use times however coarse the file system clock.
            os.utime(new, ns=(i, i))
            dated.append(new)
        assert run(capsys, "stats", "--input", str(inputs[0]))[0] == 0  # a hit: now the most recent
        for src in inputs[loadcache.MAX_ENTRIES:]:
            assert run(capsys, "stats", "--input", str(src))[0] == 0
            assert len(self.entries()) == loadcache.MAX_ENTRIES
        # The three newcomers pushed out the three least recently used.
        assert set(self.entries()) & set(dated) == {dated[0], *dated[4:]}

    def test_small_inputs_are_never_cached(self, tmp_path, capsys):
        src = tmp_path / "g.hgf"
        src.write_text(GOLDEN)
        for _ in range(2):
            assert run(capsys, "stats", "--input", str(src))[0] == 0
        assert self.entries() == []

    @pytest.mark.parametrize("command", [*TWO_SECTION, "betweenness", "forecast"])
    @pytest.mark.parametrize("damage", ["truncate", "recount"])
    def test_damaged_rows_entry_is_ignored_and_rewritten(self, tmp_path, capsys, monkeypatch, command, damage):
        fmt = "reviews-csv" if command == "forecast" else "scenes-json"
        src = self.write_input(tmp_path, fmt)
        argv, out = self.argv(command, src, fmt, tmp_path / "out")
        cold = self.outcome(capsys, argv, out)
        entry = self.table_entry(src, fmt)
        good = entry.read_bytes()
        digest = hashlib.sha256().digest_size
        payload = marshal.loads(good[digest:])
        if damage == "truncate":
            entry.write_bytes(good[: len(good) // 2])
        else:
            # A table that marshal loads, its first count one off, behind the
            # old digest: only the digest tells it from the original.
            codes, ids, counts, ends = payload
            damaged = (codes, ids, bytes([counts[0] ^ 1]) + counts[1:], ends)
            entry.write_bytes(good[:digest] + marshal.dumps(damaged))
        with monkeypatch.context() as patch:
            # The table is packed again from the hypergraph entry, not from the input.
            self.forbid_parsing(patch)
            assert self.outcome(capsys, argv, out) == cold
        assert len(self.entries()) == 2
        assert entry.read_bytes() == good

    # Wrong table payloads, each made from the entry's own (codes, ids, counts, ends).
    WRONG_TABLES = {
        "5-tuple": None,  # the hypergraph entry's payload
        "4-tuple": None,  # the first four lists of the hypergraph entry's payload
        "list": lambda codes, ids, counts, ends: [codes, ids, counts, ends],
        "float-codes": lambda codes, ids, counts, ends: ("ddd", ids, counts, ends),
        "part-item": lambda codes, ids, counts, ends: (codes, ids + b"\0", counts, ends),
        "fewer-counts": lambda codes, ids, counts, ends: (codes, ids, counts[:-1], ends),
        "short-ends": lambda codes, ids, counts, ends: (codes, ids, counts, ends[: len(ends) // 2]),
        "text-ids": lambda codes, ids, counts, ends: (codes, ids.decode("latin-1"), counts, ends),
    }

    @pytest.mark.parametrize(
        "kind, shape",
        [("hypergraph", "rows"), ("hypergraph", "4-tuple")] + [("two-section", shape) for shape in WRONG_TABLES],
    )
    def test_entry_of_the_wrong_shape_is_ignored_and_rewritten(self, tmp_path, capsys, monkeypatch, kind, shape):
        src = self.write_input(tmp_path, "scenes-json")
        command = "stats" if kind == "hypergraph" else "graph-lp"
        argv, out = self.argv(command, src, "scenes-json", tmp_path / "out")
        cold = self.outcome(capsys, argv, out)
        if kind == "hypergraph":
            assert run(capsys, *self.argv("graph-lp", src, "scenes-json", tmp_path / "lp")[0])[0] == 0
        entries = {"hypergraph": self.entry(src, "scenes-json"), "two-section": self.table_entry(src, "scenes-json")}
        payloads = {k: loadcache._read_entry(e.name) for k, e in entries.items()}
        assert type(payloads["hypergraph"]) is tuple and len(payloads["hypergraph"]) == 5
        # Behind a matching digest: only the shape tells it from the entry's own payload.
        wrong = {"rows": payloads["two-section"], "5-tuple": payloads["hypergraph"], "4-tuple": payloads["hypergraph"][:4]}
        wrong = wrong[shape] if shape in wrong else self.WRONG_TABLES[shape](*payloads["two-section"])
        blob = marshal.dumps(wrong)
        entries[kind].write_bytes(hashlib.sha256(blob).digest() + blob)
        with monkeypatch.context() as patch:
            if kind == "two-section":
                # The table is packed again from the hypergraph entry, not from the input.
                self.forbid_parsing(patch)
            assert self.outcome(capsys, argv, out) == cold
        assert len(self.entries()) == 2
        assert loadcache._read_entry(entries[kind].name) == payloads[kind]

    def test_failing_two_section_commands_leave_no_entry(self, tmp_path, capsys):
        src = self.write_input(tmp_path, "scenes-json")
        bad = tmp_path / "bad.json"
        bad.write_text(src.read_text()[:-1])
        missing = str(tmp_path / "no-such-directory" / "out")
        graph_lp = ["communities", "--format", "scenes-json", "--algo", "graph-lp"]
        dot = ["convert", "--from", "scenes-json", "--to", "dot-twosection"]
        # An output that cannot be written (exit 1) and an input that does not parse (exit 3).
        for argv, code in (
            ([*graph_lp, "--input", str(src), "--output", missing], 1),
            ([*dot, "--input", str(src), "--output", missing], 1),
            ([*graph_lp, "--input", str(bad)], 3),
            ([*dot, "--input", str(bad)], 3),
        ):
            assert [run(capsys, *argv)[0] for _ in range(2)] == [code, code]
            assert self.entries() == []

    def test_a_warm_forecast_reads_the_hypergraph_and_table_entries(self, tmp_path, capsys, monkeypatch):
        src = self.write_input(tmp_path, "reviews-csv")
        argv, _ = self.argv("forecast", src, "reviews-csv", tmp_path / "forecast")
        assert run(capsys, *argv)[0] == 0
        wanted = [self.entry(src, "reviews-csv"), self.table_entry(src, "reviews-csv")]
        assert self.entries() == sorted(wanted)
        names = []
        read = loadcache._read_entry
        monkeypatch.setattr(loadcache, "_read_entry", lambda name: names.append(name) or read(name))
        assert run(capsys, *argv)[0] == 0
        assert names == [entry.name for entry in wanted]

    def test_the_table_entry_is_the_same_after_a_parse_or_an_adoption(self, tmp_path, capsys):
        src = self.write_input(tmp_path, "reviews-csv")
        forecast, _ = self.argv("forecast", src, "reviews-csv", tmp_path / "forecast")
        entry = self.table_entry(src, "reviews-csv")
        assert run(capsys, *forecast)[0] == 0  # packs the hypergraph it parsed
        parsed = entry.read_bytes()
        shutil.rmtree(entry.parent)
        assert run(capsys, "stats", "--input", str(src))[0] == 0
        assert run(capsys, *forecast)[0] == 0  # packs the hypergraph it adopted
        assert entry.read_bytes() == parsed
        # Flat byte strings carry no marshal references, so no object
        # identity of the run that packed them can reach the entry.
        codes, *blobs = loadcache._read_entry(entry.name)
        # 2-byte ids for 2,000 items, 1-byte counts and 2-byte ends for fewer than 65,536 entries.
        assert codes == "HBH" and [type(b) for b in blobs] == [bytes] * 3

    def test_entries_that_differ_in_bytes_load_equal_payloads(self, tmp_path, capsys):
        # An entry is named by its input, not by its payload's bytes: marshal
        # writes one payload as other bytes when its objects are shared
        # otherwise, and either entry loads it.
        src = self.write_input(tmp_path, "reviews-csv")
        want = run(capsys, "stats", "--input", str(src))
        [entry] = self.entries()
        digest = hashlib.sha256().digest_size
        written = entry.read_bytes()[digest:]
        payload = marshal.loads(written)
        # The same payload with no object shared: marshal version 2 writes no references.
        rewritten = marshal.dumps(marshal.loads(marshal.dumps(payload, 2)))
        assert rewritten != written and marshal.loads(rewritten) == payload
        entry.write_bytes(hashlib.sha256(rewritten).digest() + rewritten)
        assert run(capsys, "stats", "--input", str(src)) == want
        assert loadcache._read_entry(entry.name) == payload

    @pytest.mark.parametrize("command", TWO_SECTION)
    def test_small_inputs_never_cache_rows(self, tmp_path, capsys, command):
        src = tmp_path / "scenes.json"
        src.write_text('[{"id": 1, "members": ["a", "b", "c"]}, {"id": 2, "members": ["b", "d"]}]')
        assert src.stat().st_size < loadcache.MIN_BYTES
        argv, out = self.argv(command, src, "scenes-json", tmp_path / "out")
        outcomes = [self.outcome(capsys, argv, out) for _ in range(2)]
        assert outcomes[0][0] == 0 and outcomes[0] == outcomes[1]
        assert self.entries() == []

    @pytest.mark.parametrize("command", TWO_SECTION)
    def test_rows_are_keyed_on_the_format(self, tmp_path, capsys, command):
        scenes = self.write_input(tmp_path, "scenes-json")
        reviews = self.write_input(tmp_path, "reviews-csv")
        for src, fmt, other, error in (
            (scenes, "scenes-json", "reviews-csv", "review CSV must start with header user_id,item_id,stars"),
            (reviews, "reviews-csv", "scenes-json", "scene document is not valid JSON"),
        ):
            argv, _ = self.argv(command, src, fmt, tmp_path / "out")
            assert run(capsys, *argv)[0] == 0
            assert self.table_entry(src, fmt).exists()
            # The same bytes under the other format key parse, and fail, as without a cache.
            argv, _ = self.argv(command, src, other, tmp_path / "out")
            code, out, err = run(capsys, *argv)
            assert (code, out) == (3, "") and err.startswith(f"error: {error}")
            assert not self.table_entry(src, other).exists()


class TestHashSeeds:
    """Seeded commands write the same bytes under any string hash seed.

    Each hash seed runs every command as its own process, in its own
    directory with its own load cache, on the same two input files.
    """

    HASH_SEEDS = ("0", "12345")
    # Command -> its arguments, reading ``{scenes}`` or ``{reviews}``.
    COMMANDS = {
        "graph-lp": ["communities", "--input", "{scenes}", "--format", "scenes-json", "--algo", "graph-lp",
                     "--full-precision", "--output", "out/graph-lp.json"],
        "hyper-lp": ["communities", "--input", "{reviews}", "--full-precision", "--output", "out/hyper-lp.json"],
        "betweenness": ["betweenness", "--input", "{scenes}", "--format", "scenes-json", "--s", "2",
                        "--full-precision", "--output", "out/scores.csv"],
        "forecast": ["forecast", "--input", "{reviews}", "--stars", "4", "5", "--full-precision",
                     "--output", "out/forecast.csv"],
        "convert": ["convert", "--input", "{scenes}", "--from", "scenes-json", "--to", "json", "--output", "out/scenes.json"],
    }

    def outcome(self, tmp_path: Path, hash_seed: str, inputs: dict[str, str]) -> dict[str, bytes]:
        """Each command's stdout, and each file it wrote, by name."""
        here = tmp_path / f"hash-{hash_seed}"
        (here / "out").mkdir(parents=True)
        env = {
            **os.environ,
            "PYTHONHASHSEED": hash_seed,
            "XDG_CACHE_HOME": str(here / "cache"),
            "PYTHONPATH": str(Path(hgkit.__file__).resolve().parent.parent),
        }
        got = {}
        for name, argv in self.COMMANDS.items():
            argv = [a.format(**inputs) for a in argv]
            done = subprocess.run([sys.executable, "-m", "hgkit.cli", *argv], cwd=here, env=env, capture_output=True, timeout=60)
            assert (done.returncode, done.stderr) == (0, b""), (name, hash_seed, done.stderr)
            got[f"stdout of {name}"] = done.stdout
        for path in sorted((here / "out").iterdir()):
            got[path.name] = path.read_bytes()
        return got

    def test_outputs_and_manifests_do_not_depend_on_the_hash_seed(self, tmp_path):
        inputs = {"scenes": tmp_path / "scenes.json", "reviews": tmp_path / "reviews.csv"}
        inputs["scenes"].write_text(seeded_scenes_json(random.Random(3)), encoding="utf-8")
        inputs["reviews"].write_text(seeded_reviews_csv(random.Random(3)), encoding="utf-8")
        first, second = (self.outcome(tmp_path, seed, {k: str(v) for k, v in inputs.items()}) for seed in self.HASH_SEEDS)
        # Ten output files, five of them manifests; their digests and argv name no hash-seed directory.
        assert len(first) == 15 and first.keys() == second.keys()
        differ = next((name for name in first if first[name] != second[name]), None)
        assert differ is None, f"{differ} differs between hash seeds {self.HASH_SEEDS}"
