"""Tests of the benchmark itself: generators, output checks, span arithmetic.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

import hgkit.cli  # noqa: E402
from helpers import textbook_betweenness  # noqa: E402


# --- generators ---------------------------------------------------------------


@pytest.mark.parametrize(
    "generate",
    [
        workloads.reviews_records,
        workloads.scenes_members,
        workloads.edit_build,
        workloads.edit_ops,
    ],
)
def test_generators_are_deterministic_per_seed(generate):
    assert generate(3) == generate(3)
    assert generate(3) != generate(4)


def test_generated_inputs_have_the_documented_shape():
    records = workloads.reviews_records(1)
    assert len(records) == workloads.REVIEW_RECORDS
    assert all(1 <= stars <= 5 for _, _, stars in records)
    scenes = workloads.scenes_members(1)
    assert len(scenes) == workloads.SCENE_COUNT
    for members in scenes:
        groups = [c // workloads.SCENE_GROUP for c in members]
        assert len(set(members)) == len(members)
        assert groups.count(groups[0]) >= workloads.SCENE_SIZES[0]
        assert len(set(groups)) <= 2
    ops, n, k = workloads.edit_ops(1)
    assert len([op for op in ops if op[0] != "analytics"]) == workloads.EDIT_OPS
    assert ops.count(("analytics",)) == workloads.EDIT_OPS // workloads.EDIT_ANALYTICS_EVERY
    assert n > 0 and k > 0


def test_corrupted_reviews_differ_in_one_stars_cell():
    text = workloads.reviews_csv(workloads.reviews_records(2)[:500])
    bad = workloads.corrupt_reviews_csv(text, 2)
    assert bad == workloads.corrupt_reviews_csv(text, 2)
    diff = [(a, b) for a, b in zip(text.splitlines(), bad.splitlines()) if a != b]
    assert len(diff) == 1 and diff[0][1].endswith(",9")


# --- output checks against real outputs and corrupted ones ---------------------------


def small_reviews(tmp_path: Path) -> tuple[Path, workloads.Facts]:
    rng = random.Random(5)
    records = [(f"u{rng.randrange(40)}", f"b{rng.randrange(60)}", rng.randint(1, 5)) for _ in range(300)]
    path = tmp_path / "reviews.csv"
    path.write_text(workloads.reviews_csv(records))
    return path, workloads.reviews_facts(records)


def small_scenes(tmp_path: Path) -> tuple[Path, workloads.Facts]:
    rng = random.Random(6)
    scenes = [[g * 8 + j for j in rng.sample(range(8), rng.randint(2, 5))] for g in (0, 1, 2) for _ in range(6)]
    scenes.append([0, 8, 16])
    path = tmp_path / "scenes.json"
    path.write_text(workloads.scenes_json(scenes))
    return path, workloads.scenes_facts(scenes)


def cli(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert hgkit.cli.main(list(argv)) == 0
    return out.getvalue()


def rejects(check, *args) -> bool:
    try:
        check(*args)
    except (CheckFailed, ValueError, KeyError, IndexError):
        return True
    return False


def test_stats_check(tmp_path):
    path, facts = small_reviews(tmp_path)
    report = cli("stats", "--input", str(path))
    checks.check_stats(report, facts)
    assert rejects(checks.check_stats, report.replace(f"vertices: {facts.n}", f"vertices: {facts.n - 1}"), facts)
    assert rejects(checks.check_stats, report.replace(f"incidences: {facts.incidences}", "incidences: 1"), facts)
    assert rejects(checks.check_stats, report.replace("component-sizes: ", "component-sizes: 1 "), facts)


def test_partition_check(tmp_path):
    path, facts = small_reviews(tmp_path)
    out = tmp_path / "part.json"
    report = cli("communities", "--input", str(path), "--max-iter", "5", "--output", str(out))
    text = out.read_text()
    checks.check_partition(text, report, facts.n)
    blocks = json.loads(text)
    label = next(iter(blocks))
    dropped = {**blocks, label: blocks[label][1:]}
    doubled = {**blocks, label: blocks[label] + [1]}
    assert rejects(checks.check_partition, json.dumps(dropped), report, facts.n)
    assert rejects(checks.check_partition, json.dumps(doubled), report, facts.n)
    assert rejects(checks.check_partition, text, report.replace("communities: ", "communities: 9"), facts.n)


def test_forecast_check(tmp_path):
    path, facts = small_reviews(tmp_path)
    out = tmp_path / "forecast.csv"
    cli("forecast", "--input", str(path), "--output", str(out))
    text = out.read_text()
    checks.check_forecast(text, facts.n)
    lines = text.splitlines()
    assert rejects(checks.check_forecast, "\n".join(lines[:-1]) + "\n", facts.n)
    cells = lines[1].split(",")
    cells[3] = "5.5"
    assert rejects(checks.check_forecast, "\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n", facts.n)
    cells[3] = "nan"
    assert rejects(checks.check_forecast, "\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n", facts.n)


def test_betweenness_checks(tmp_path):
    path, facts = small_scenes(tmp_path)
    out = tmp_path / "scores.csv"
    cli("betweenness", "--input", str(path), "--format", "scenes-json", "--s", "1", "--top-k", "5",
        "--full-precision", "--output", str(out))
    text = out.read_text()
    checks.check_betweenness(text, 5, facts.n)
    header, *rows = text.splitlines()
    assert rejects(checks.check_betweenness, "\n".join([header, *rows[::-1]]) + "\n", 5, facts.n)
    assert rejects(checks.check_betweenness, "\n".join([header, *rows[:-1]]) + "\n", 5, facts.n)
    v, label, score = rows[-1].split(",")
    assert rejects(checks.check_betweenness, "\n".join([header, *rows[:-1], f"{v},{label},-1.0"]) + "\n", 5, facts.n)

    oracle: dict[int, float] = {}
    for part in checks.components_of(checks.s_adjacency_of(facts.co_member_counts(), 1)):
        oracle.update(textbook_betweenness(part))
    checks.check_against_oracle(text, oracle, 5, facts.n)
    top = max(oracle, key=oracle.get)
    assert rejects(checks.check_against_oracle, text, {**oracle, top: oracle[top] + 1.0}, 5, facts.n)
    assert rejects(checks.check_against_oracle, text, {**oracle, facts.n: 1e6}, 5, facts.n)


def test_dot_and_writer_checks(tmp_path):
    path, facts = small_scenes(tmp_path)
    pairs = len(facts.co_member_counts())
    dot, hgf, js = tmp_path / "g.dot", tmp_path / "g.hgf", tmp_path / "g.json"
    for fmt, out in (("dot-twosection", dot), ("hgf", hgf), ("json", js)):
        cli("convert", "--input", str(path), "--from", "scenes-json", "--to", fmt, "--output", str(out))
    checks.check_dot(dot.read_text(), facts.n, pairs)
    checks.check_hgf(hgf.read_text(), facts)
    checks.check_json(js.read_text(), facts)

    dot_lines = dot.read_text().splitlines()
    edge = next(i for i, line in enumerate(dot_lines) if " -- " in line)
    assert rejects(checks.check_dot, "\n".join(dot_lines[:edge] + dot_lines[edge + 1 :]), facts.n, pairs)
    hgf_lines = hgf.read_text().splitlines()
    hgf_lines[1] = hgf_lines[1].split(" ", 1)[1]
    assert rejects(checks.check_hgf, "\n".join(hgf_lines) + "\n", facts)
    doc = json.loads(js.read_text())
    doc["he2v"][0].popitem()
    assert rejects(checks.check_json, json.dumps(doc), facts)


def test_edit_check():
    good = {"n": 5, "k": 3, "nhv": 5, "nhe": 3, "wrong_ids": 0, "consistent": True, "rejects_bad_id": True}
    checks.check_edit(json.dumps(good), 5, 3)
    for key, value in (("n", 6), ("nhe", 2), ("wrong_ids", 1), ("consistent", False), ("rejects_bad_id", False)):
        assert rejects(checks.check_edit, json.dumps({**good, key: value}), 5, 3)


# --- spans ------------------------------------------------------------------------------


def test_self_time_on_a_hand_built_tree():
    #   root   [0, 100]
    #   a      [10, 40]  child of root
    #   a1     [15, 20]  child of a
    #   b      [30, 60]  child of root, overlapping a
    #   c      [90, 120] child of root, running past it
    tree = [
        ["root", 0, 100, None, "r"],
        ["a", 10, 40, 0, "r"],
        ["a1", 15, 20, 1, "r"],
        ["b", 30, 60, 0, "r"],
        ["c", 90, 120, 0, "r"],
        ["other", 200, 250, None, "s"],
    ]
    assert spans.self_times(tree) == [100 - 50 - 10, 30 - 5, 5, 30, 30, 50]
    assert spans.root_time(tree, "r") == pytest.approx(100e-9)
    assert spans.root_time(tree, "s") == pytest.approx(50e-9)


def test_layer_times_sum_self_time_per_metric():
    tree = [
        ["centrality.s_betweenness", 0, 1_000, None, "b"],
        ["centrality.s_adjacency", 100, 400, 0, "b"],
        ["hgio.read_hgf", 2_000, 2_500, None, "b"],
        ["hgio.read_json", 3_000, 3_100, None, "b"],
    ]
    times = spans.layer_times(tree)
    assert times["centrality.brandes_s"] == pytest.approx(700e-9)
    assert times["centrality.s_adjacency_s"] == pytest.approx(300e-9)
    assert times["hgio.parse_s"] == pytest.approx(600e-9)


def test_tracer_nests_spans_and_restores_originals(tmp_path):
    import hgkit.centrality
    from hgkit import TwoSectionView

    path, _ = small_scenes(tmp_path)
    originals = (hgkit.cli.s_betweenness, hgkit.centrality.s_adjacency, TwoSectionView.neighbors)
    tracer = spans.Tracer()
    tracer.wrap_namespace(hgkit.cli)
    tracer.wrap(hgkit.centrality, "s_adjacency", "centrality.s_adjacency")
    tracer.wrap_class(TwoSectionView, ("neighbors",))
    tracer.run = "step"
    try:
        cli("betweenness", "--input", str(path), "--format", "scenes-json", "--s", "2")
    finally:
        tracer.restore()
    assert (hgkit.cli.s_betweenness, hgkit.centrality.s_adjacency, TwoSectionView.neighbors) == originals
    names = [s[0] for s in tracer.spans]
    assert names[:3] == ["hgio.read_scenes_json", "hgio.build_from_scenes", "centrality.s_betweenness"]
    parent = names.index("centrality.s_betweenness")
    child = names.index("centrality.s_adjacency")
    assert tracer.spans[child][3] == parent and tracer.spans[parent][3] is None
    assert tracer.counts["hgio.records"] == 19 and len(tracer.deferred) == 1


def test_every_time_metric_is_declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    assert set(spans.TIME_METRICS.values()) <= declared


# --- the host-speed reference -----------------------------------------------------------


def test_reference_is_fixed_and_independent_of_hgkit():
    done = [
        subprocess.run(
            [sys.executable, "-X", "importtime", str(BENCH / "reference.py")],
            capture_output=True, text=True, timeout=60, env={"PATH": ""},
        )
        for _ in range(2)
    ]
    assert [d.returncode for d in done] == [0, 0]
    assert done[0].stdout == done[1].stdout and len(done[0].stdout.strip()) == 64
    assert "hgkit" not in done[0].stderr


def test_host_speed_scales_by_the_reference_runs_around_a_child():
    import run

    speed = run.HostSpeed.__new__(run.HostSpeed)
    speed.runs = [run.Child(0, 0.0, cpu, 0.0, "") for cpu in (0.4, 0.6, 0.5, 0.5, 0.5, 0.5, 1.0)]
    # (CPU seconds, reference runs before it): a short child sees one run on
    # each side, an 8 s child four (cut to the runs there are).
    speed.children = [(1.0, 1), (8.0, 3), (0.5, 6)]
    assert speed.scaled(0) == pytest.approx(1.0 * 0.5 / 0.5)
    assert speed.scaled(1) == pytest.approx(8.0 * 0.5 / (4.0 / 7))
    assert speed.scaled(2) == pytest.approx(0.5 * 0.5 / 0.75)


# --- the contract's bare directory ------------------------------------------------------


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "edit", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
