"""Seeded benchmark of the hgkit batch CLI and mutation API.

    python3 bench/run.py --workload reviews|scenes|edit --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it needs nothing but the standard
library and the sources under ``src``.  The seed fixes every input.
Inputs, outputs and results go to ``.bench_work/`` under the root.

Each workload is a closed loop with one client: a pass runs its steps
one at a time, each a fresh ``python -m hgkit.cli ...`` process (the
``edit`` workload: one ``bench/driver.py edit`` process) timed from
spawn to exit, and passes repeat until ``--seconds`` have gone, at least
twice.  Every step's output is checked against facts the benchmark
derived itself, and every later pass must reproduce the first pass's
output digests.  One malformed-input step per CLI workload must fail
with its documented exit code; it is not timed.  The edit child checks
the same for an out-of-range member id.

``--trace 0`` reports the end-to-end metrics: medians over passes of the
job time and of the largest child max-RSS, and the median time of
``SETUP_REPS`` fresh processes that import hgkit and load the input.

Both times are CPU seconds (user plus system) of the child processes,
taken from ``os.wait4``, scaled to a fixed host speed.  On a shared
virtual machine the wall clock also counts the time the host takes the
CPU away, and even CPU time drifts by a quarter within seconds as other
tenants load the processor and its caches.  So the run also times
``reference.py``, a fixed job that imports nothing from hgkit, before the
first child and after every child, and multiplies each child's CPU time
by ``REFERENCE_S`` over the mean CPU time of the reference runs around
it (``HostSpeed``): the figures read as CPU seconds on a host
where the reference takes ``REFERENCE_S``.  A change to hgkit moves them
in full; a change of host speed cancels.  The raw CPU and spawn-to-exit
wall times are kept in the result's ``meta``.

``--trace 1`` runs one pass of child processes for the step walls, then
the same steps in this process, first plain, then with spans recorded
around every hgkit call the CLI (or the edit driver) makes, and reports
per-layer self times and counts from those spans (see ``spans.py``).
A layer that a workload never calls reports 0.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the interpreter, the machine, the commit and the inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import marshal
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_PASSES = 2
REFERENCE_S = 0.5
"""CPU seconds of ``reference.py`` on the host speed the times are scaled to."""
WINDOW_CPU_S = 2.0
"""A timed child is scaled by one reference run on each side per this much of its CPU time."""
SETUP_REPS = 5
STARTUP_REPS = 5
DEADLINE_S = 170.0
TOP_K = 20
S = 2
CLI_COMMANDS = ("stats", "communities", "forecast", "betweenness", "convert")


@dataclass
class Step:
    name: str
    argv: list[str]
    """Arguments after the interpreter."""
    check: Callable[[str, str | None], None]
    """Called with the step's stdout and the text of its output file."""
    output: Path | None = None
    stable: Callable[[str], str] = lambda stdout: stdout
    """The part of stdout that must repeat exactly for a seed."""

    @property
    def command(self) -> str:
        return self.name.split(".")[0]


@dataclass
class Work:
    name: str
    dir: Path
    steps: list[Step]
    malformed: tuple[list[str], int] | None
    """A CLI call on a broken input, with the exit code it must end in."""
    setup_argv: list[str]
    inputs: list[dict]
    facts: workloads.Facts | None = None
    s_betweenness_step: str | None = None
    _pairs: dict | None = field(default=None, repr=False)

    def co_member_counts(self) -> dict[tuple[int, int], int]:
        if self._pairs is None:
            self._pairs = self.facts.co_member_counts()
        return self._pairs


@dataclass
class Tally:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{what}: {problem}")


class DeadlineExceeded(Exception):
    pass


# A malformed output can fail a check by breaking its parsing, not only its assertions.
CHECK_ERRORS = (checks.CheckFailed, ValueError, KeyError, IndexError, TypeError, AttributeError)


# --- workloads ---------------------------------------------------------------------


def _cli(*args: str) -> list[str]:
    return ["-m", "hgkit.cli", *args]


def _rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


def _describe(path: Path, n: int, k: int, incidences: int) -> dict:
    return {"path": _rel(path), "n": n, "k": k, "incidences": incidences, "bytes": path.stat().st_size}


def prepare_reviews(seed: int, d: Path) -> Work:
    records = workloads.reviews_records(seed)
    text = workloads.reviews_csv(records)
    src, bad = d / "reviews.csv", d / "reviews-bad-stars.csv"
    src.write_text(text, encoding="utf-8")
    bad.write_text(workloads.corrupt_reviews_csv(text, seed), encoding="utf-8")
    facts = workloads.reviews_facts(records)
    inp = _rel(src)
    steps = [
        Step("stats", _cli("stats", "--input", inp), lambda out, _: checks.check_stats(out, facts)),
        Step(
            "communities",
            _cli("communities", "--input", inp, "--algo", "hyper-lp", "--max-iter", "20",
                 "--output", _rel(d / "communities.json")),
            lambda out, text: checks.check_partition(text, out, facts.n),
            d / "communities.json",
        ),
        Step(
            "forecast",
            _cli("forecast", "--input", inp, "--output", _rel(d / "forecast.csv")),
            lambda _, text: checks.check_forecast(text, facts.n),
            d / "forecast.csv",
        ),
        Step(
            "betweenness",
            _cli("betweenness", "--input", inp, "--s", str(S), "--top-k", str(TOP_K),
                 "--full-precision", "--output", _rel(d / "betweenness.csv")),
            lambda _, text: checks.check_betweenness(text, TOP_K, facts.n),
            d / "betweenness.csv",
        ),
        Step(
            "convert",
            _cli("convert", "--input", inp, "--to", "hgf", "--output", _rel(d / "reviews.hgf")),
            lambda _, text: checks.check_hgf(text, facts),
            d / "reviews.hgf",
        ),
    ]
    return Work(
        "reviews", d, steps,
        malformed=(_cli("stats", "--input", _rel(bad)), 3),
        setup_argv=[_rel(BENCH / "driver.py"), "setup", "reviews", inp],
        inputs=[_describe(src, facts.n, facts.k, facts.incidences)],
        facts=facts,
        s_betweenness_step="betweenness",
    )


def prepare_scenes(seed: int, d: Path) -> Work:
    scenes = workloads.scenes_members(seed)
    src = d / "scenes.json"
    src.write_text(workloads.scenes_json(scenes), encoding="utf-8")
    facts = workloads.scenes_facts(scenes)
    inp = _rel(src)
    work = Work(
        "scenes", d, [],
        malformed=(_cli("betweenness", "--input", inp, "--format", "scenes-json", "--s", "0"), 4),
        setup_argv=[_rel(BENCH / "driver.py"), "setup", "scenes", inp],
        inputs=[_describe(src, facts.n, facts.k, facts.incidences)],
        facts=facts,
        s_betweenness_step="betweenness",
    )
    work.steps = [
        Step("stats", _cli("stats", "--input", inp, "--format", "scenes-json"),
             lambda out, _: checks.check_stats(out, facts)),
        Step(
            "communities",
            _cli("communities", "--input", inp, "--format", "scenes-json", "--algo", "graph-lp",
                 "--output", _rel(d / "communities.json")),
            lambda out, text: checks.check_partition(text, out, facts.n),
            d / "communities.json",
        ),
        Step(
            "convert.dot",
            _cli("convert", "--input", inp, "--from", "scenes-json", "--to", "dot-twosection",
                 "--output", _rel(d / "twosection.dot")),
            lambda _, text: checks.check_dot(text, facts.n, len(work.co_member_counts())),
            d / "twosection.dot",
        ),
        Step(
            "convert.json",
            _cli("convert", "--input", inp, "--from", "scenes-json", "--to", "json",
                 "--output", _rel(d / "scenes-hypergraph.json")),
            lambda _, text: checks.check_json(text, facts),
            d / "scenes-hypergraph.json",
        ),
        Step(
            "betweenness",
            _cli("betweenness", "--input", inp, "--format", "scenes-json", "--s", str(S),
                 "--top-k", str(TOP_K), "--full-precision", "--output", _rel(d / "betweenness.csv")),
            lambda _, text: checks.check_betweenness(text, TOP_K, facts.n),
            d / "betweenness.csv",
        ),
    ]
    return work


EDIT_COUNTERS = ("n", "k", "read_cells", "remaps", "wrong_ids", "analytics")


def prepare_edit(seed: int, d: Path) -> Work:
    ops, n, k = workloads.edit_ops(seed)
    build = workloads.edit_build(seed)
    src = d / "edit.marshal"
    src.write_bytes(marshal.dumps({"build": build, "ops": ops}))
    inp = _rel(src)
    driver = _rel(BENCH / "driver.py")
    incidences = sum(len(m) for m in build)
    step = Step(
        "edit",
        [driver, "edit", inp],
        lambda out, _: checks.check_edit(out, n, k),
        stable=lambda out: json.dumps({key: json.loads(out)[key] for key in EDIT_COUNTERS + ("digest",)}),
    )
    return Work(
        "edit", d, [step],
        malformed=None,
        setup_argv=[driver, "setup", "edit", inp],
        inputs=[{**_describe(src, workloads.EDIT_VERTICES, len(build), incidences), "operations": len(ops)}],
    )


PREPARE = {"reviews": prepare_reviews, "scenes": prepare_scenes, "edit": prepare_edit}


# --- child processes ------------------------------------------------------------------


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Child:
    rc: int
    wall_s: float
    """Spawn to exit."""
    cpu_s: float
    """User plus system time of the child."""
    rss_mb: float
    stdout: str


def spawn(argv: list[str], stdout: Path, deadline: float) -> Child:
    """Run one child to its end and return what it used."""
    with open(stdout, "wb") as out, open(stdout.with_suffix(".stderr"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        watchdog.start()
        try:
            # wait4 gives this child's own rusage; RUSAGE_CHILDREN would
            # accumulate the maximum over every child so far.
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if time.monotonic() >= deadline:
        raise DeadlineExceeded(" ".join(argv))
    return Child(
        proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
        stdout.read_text(encoding="utf-8"),
    )


def _read(path: Path | None) -> str | None:
    return path.read_text(encoding="utf-8") if path is not None and path.exists() else None


def digest(step: Step, stdout: str) -> str:
    sha = hashlib.sha256(step.stable(stdout).encode())
    if step.output is not None:
        for path in (step.output, step.output.with_name(step.output.name + ".manifest.json")):
            sha.update(path.read_bytes() if path.exists() else b"<missing>")
    return sha.hexdigest()


def _verify(step: Step, rc: int, stdout: str, first: str | None) -> tuple[str, str | None]:
    """Digest of the step's output and the reason it failed, if it did."""
    if rc != 0:
        return "", f"exit code {rc}"
    d = digest(step, stdout)
    if first is not None:
        return d, None if d == first else "output differs from the first pass"
    try:
        step.check(stdout, _read(step.output))
    except CHECK_ERRORS as exc:
        return d, f"check failed: {exc!r}"
    return d, None


def run_pass(
    work: Work, tally: Tally, deadline: float, first: dict | None, speed: HostSpeed | None = None
) -> dict:
    """One closed-loop pass: every step once, in order, each waited for."""
    result = {}
    for step in work.steps:
        child = spawn(step.argv, work.dir / f"{step.name}.stdout", deadline)
        d, problem = _verify(step, child.rc, child.stdout, first[step.name]["digest"] if first else None)
        tally.record(f"{work.name}/{step.name}", problem)
        result[step.name] = {
            "wall_s": child.wall_s, "cpu_s": child.cpu_s, "rss_mb": child.rss_mb,
            "speed_index": speed.timed(child.cpu_s) if speed else None,
            "digest": d, "stdout": child.stdout,
        }
    return result


def run_malformed(work: Work, tally: Tally, deadline: float) -> None:
    if work.malformed is None:
        return
    argv, want = work.malformed
    rc = spawn(argv, work.dir / "malformed.stdout", deadline).rc
    tally.record(f"{work.name}/malformed", None if rc == want else f"exit code {rc}, expected {want}")


def median_wall(label: str, argv: list[str], reps: int, work: Work, deadline: float, tally: Tally) -> float:
    walls = []
    for _ in range(reps):
        child = spawn(argv, work.dir / f"{label}.stdout", deadline)
        tally.record(f"{work.name}/{label}", None if child.rc == 0 else f"exit code {child.rc}")
        walls.append(child.wall_s)
    return statistics.median(walls)


# --- reference betweenness -------------------------------------------------------------


def check_oracle(work: Work, tally: Tally) -> None:
    """Cross-check the printed top-k against tests/helpers.textbook_betweenness.

    Betweenness adds up over connected parts, so the reference runs on
    each part of the benchmark's own s-adjacency separately.
    """
    if work.s_betweenness_step is None:
        return
    from helpers import textbook_betweenness

    oracle: dict[int, float] = {}
    for part in checks.components_of(checks.s_adjacency_of(work.co_member_counts(), S)):
        oracle.update(textbook_betweenness(part))
    step = next(s for s in work.steps if s.name == work.s_betweenness_step)
    try:
        checks.check_against_oracle(_read(step.output), oracle, TOP_K, work.facts.n)
        tally.record(f"{work.name}/oracle", None)
    except CHECK_ERRORS as exc:
        tally.record(f"{work.name}/oracle", repr(exc))


# --- timed run ----------------------------------------------------------------------------


class HostSpeed:
    """Scales child CPU times to the fixed host speed of ``REFERENCE_S``.

    ``reference.py`` runs once before the first child and once after
    each.  A child is scaled by the mean CPU time of the reference runs
    around it: one on each side per ``WINDOW_CPU_S`` of its own CPU time,
    at least one.  A short child sees only the host's speed of the
    moment, so the runs right beside it fit best; a long child averages
    short swings out itself, and so do more runs around it.
    """

    def __init__(self, work: Work, tally: Tally, deadline: float) -> None:
        self.work, self.tally, self.deadline = work, tally, deadline
        self.runs: list[Child] = []
        self.children: list[tuple[float, int]] = []
        """CPU seconds of each timed child and the number of reference runs before it."""
        self.measure()

    def measure(self) -> None:
        child = spawn([_rel(BENCH / "reference.py")], self.work.dir / "reference.stdout", self.deadline)
        first = self.runs[0].stdout if self.runs else child.stdout
        self.tally.record(
            f"{self.work.name}/reference",
            f"exit code {child.rc}" if child.rc else None if child.stdout == first else "digest changed",
        )
        self.runs.append(child)

    def timed(self, cpu_s: float) -> int:
        """Note a child that has just ended, run the reference after it, and return its index."""
        self.children.append((cpu_s, len(self.runs)))
        self.measure()
        return len(self.children) - 1

    def scaled(self, index: int) -> float:
        cpu_s, before = self.children[index]
        side = max(1, round(cpu_s / WINDOW_CPU_S))
        around = [r.cpu_s for r in self.runs[max(before - side, 0):before + side]]
        return cpu_s * REFERENCE_S / statistics.fmean(around)


def timed_run(work: Work, seconds: float, tally: Tally, deadline: float) -> tuple[dict, dict]:
    speed = HostSpeed(work, tally, deadline)
    setups: list[tuple[Child, int]] = []
    for _ in range(SETUP_REPS):
        child = spawn(work.setup_argv, work.dir / "setup.stdout", deadline)
        tally.record(f"{work.name}/setup", None if child.rc == 0 else f"exit code {child.rc}")
        setups.append((child, speed.timed(child.cpu_s)))
    passes: list[dict] = []
    start = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
        began = time.monotonic()
        passes.append(run_pass(work, tally, deadline, passes[0] if passes else None, speed))
        if len(passes) >= MIN_PASSES and time.monotonic() + (time.monotonic() - began) > deadline - 20:
            break
    jobs = [sum(speed.scaled(s["speed_index"]) for s in p.values()) for p in passes]
    peaks = [max(s["rss_mb"] for s in p.values()) for p in passes]
    metrics = {
        "job_s": statistics.median(jobs),
        "setup_s": statistics.median(speed.scaled(i) for _, i in setups),
        "peak_rss_mb": statistics.median(peaks),
    }
    detail = {
        "passes": len(passes),
        "job_s": jobs,
        "job_cpu_s": [sum(s["cpu_s"] for s in p.values()) for p in passes],
        "job_wall_s": [sum(s["wall_s"] for s in p.values()) for p in passes],
        "setup_cpu_s": [c.cpu_s for c, _ in setups],
        "setup_wall_s": [c.wall_s for c, _ in setups],
        "reference_cpu_s": [c.cpu_s for c in speed.runs],
        "step_cpu_s": {name: [p[name]["cpu_s"] for p in passes] for name in passes[0]},
        "step_wall_s": {name: [p[name]["wall_s"] for p in passes] for name in passes[0]},
    }
    return metrics, detail


# --- traced run ---------------------------------------------------------------------------


def _in_process(work: Work, tracer: spans.Tracer | None) -> dict[str, tuple[float, str]]:
    """Run every step once in this process; seconds and output digest per step."""
    import driver
    import hgkit.cli

    def edit(step: Step) -> tuple[float, str]:
        data = driver.load_edit(step.argv[-1])
        start = time.perf_counter()
        h = driver.build(data["build"])
        counters = driver.stream(h, data["ops"])
        elapsed = time.perf_counter() - start
        return elapsed, digest(step, json.dumps({**counters, "digest": driver.digest(h, counters)}))

    def command(step: Step) -> tuple[float, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            rc = hgkit.cli.main(step.argv[2:])
            elapsed = time.perf_counter() - start
        return elapsed, digest(step, buf.getvalue()) if rc == 0 else f"exit code {rc}"

    out = {}
    for step in work.steps:
        if tracer is not None:
            tracer.run = step.name
        try:
            out[step.name] = (edit if step.name == "edit" else command)(step)
        except Exception as exc:  # a crash in hgkit is a failed step, not a failed benchmark
            out[step.name] = (0.0, f"raised {exc!r}")
    return out


def _instrument(tracer: spans.Tracer) -> None:
    import driver
    import hgkit.centrality
    import hgkit.cli
    from hgkit import Hypergraph, Partition, TwoSectionView

    tracer.wrap_namespace(hgkit.cli)
    tracer.wrap_namespace(driver)
    tracer.wrap(hgkit.centrality, "s_adjacency", "centrality.s_adjacency")
    tracer.wrap_class(TwoSectionView, ("neighbors",))
    tracer.wrap_class(Hypergraph, spans.HYPERCORE_MUTATORS + spans.HYPERCORE_QUERIES)
    tracer.wrap_class(Partition, ("to_json_text", "to_csv_text"))


def _s_adjacency_peak_mb(work: Work) -> float:
    """Peak traced allocation of s_adjacency alone; tracemalloc slows it, so not timed."""
    import driver
    from hgkit.centrality import s_adjacency

    h = driver.setup(work.name, work.setup_argv[-1])
    tracemalloc.start()
    try:
        s_adjacency(h, S)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def traced_run(work: Work, metric_names: list[str], tally: Tally, deadline: float) -> tuple[dict, dict]:
    startup = median_wall("startup", _cli("--version"), STARTUP_REPS, work, deadline, tally)
    walls = run_pass(work, tally, deadline, None)

    plain = _in_process(work, None)
    tracer = spans.Tracer()
    _instrument(tracer)
    try:
        traced = _in_process(work, tracer)
    finally:
        tracer.restore()
    for name in walls:
        for label, run in (("plain", plain), ("traced", traced)):
            tally.record(
                f"{work.name}/{name}/in-process-{label}",
                None if run[name][1] == walls[name]["digest"] else "output differs from the child's",
            )

    m: dict[str, float] = dict.fromkeys(metric_names, 0)
    m.update(spans.layer_times(tracer.spans))
    m.update(tracer.counts)
    for h, adj in tracer.deferred:
        edges = adj.edges()
        m["centrality.pair_increments"] += sum(
            h.hyperedge_size(e) * (h.hyperedge_size(e) - 1) // 2 for e in h.hyperedges()
        )
        m["centrality.s_edges"] += len(edges)
        m["centrality.bfs_sources"] += len({v for edge in edges for v in edge})
    tracer.deferred.clear()
    m["centrality.kept_ratio"] = (
        m["centrality.s_edges"] / len(work.co_member_counts()) if work.s_betweenness_step else 0.0
    )
    m["centrality.s_adjacency_peak_mb"] = _s_adjacency_peak_mb(work) if work.s_betweenness_step else 0.0
    m["community.lp_s_per_sweep"] = (
        m["community.lp_s"] / m["community.lp_sweeps"] if m["community.lp_sweeps"] else 0.0
    )
    for command in CLI_COMMANDS:
        m[f"cli.{command}_s"] = sum(walls[s.name]["wall_s"] for s in work.steps if s.command == command)
    if "edit" in walls:
        m["hypercore.edit_stream_s"] = json.loads(walls["edit"]["stdout"])["stream_s"]
    m["cli.startup_s"] = startup
    # A step's library time, untraced, is its plain in-process time less
    # the part of its traced run that lies outside every span; the spans
    # themselves are inflated by tracing.
    m["cli.overhead_s"] = sum(
        w["wall_s"] - plain[name][0] + traced[name][0] - spans.root_time(tracer.spans, name)
        for name, w in walls.items()
    )
    plain_s = sum(t for t, _ in plain.values())
    m["trace.overhead_frac"] = (sum(t for t, _ in traced.values()) - plain_s) / plain_s if plain_s else 0.0
    tracer.dump(work.dir / "spans.jsonl.gz")
    detail = {"spans": len(tracer.spans), "in_process_s": plain_s}
    return m, detail


# --- entry point ---------------------------------------------------------------------------


def _git_head() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(PREPARE))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "hgkit" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: run from a checkout of hgkit; {SRC / 'hgkit'} or {spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path[1:1] = [str(SRC), str(ROOT / "tests")]

    work_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    work = PREPARE[args.workload](args.seed, work_dir)
    tally = Tally()
    try:
        # Warm-up: writes __pycache__ and pulls the input into the page cache.
        spawn(work.steps[0].argv, work_dir / "warmup.stdout", deadline)
        run_malformed(work, tally, deadline)
        if args.trace:
            metrics, detail = traced_run(work, [m["name"] for m in spec["per_layer"]], tally, deadline)
        else:
            metrics, detail = timed_run(work, args.seconds, tally, deadline)
        check_oracle(work, tally)
    except DeadlineExceeded as exc:
        print(f"error: the run passed its {DEADLINE_S:.0f} s deadline at: {exc}", file=sys.stderr)
        return 1

    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names},
    }
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "commit": _git_head(),
        "inputs": work.inputs,
        "fail_frac": len(tally.failures) / tally.attempted,
        "failures": tally.failures,
        **detail,
    }
    (work_dir / "result.json").write_text(json.dumps({"meta": meta, **result}, indent=2) + "\n", encoding="utf-8")
    for path in work_dir.iterdir():
        if path.name not in ("result.json", "spans.jsonl.gz"):
            path.unlink()
    for failure in tally.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
