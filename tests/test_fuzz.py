"""Seeded fuzzing of the command line, in process.

Valid documents of every input kind are mutated (byte flips,
truncations, duplicated lines, non-finite floats, small and oversized
integers) and fed to every command through ``cli.main``.  Each run must
end in a documented exit code with an ``error:`` line or usage text on
stderr, never in an uncaught exception.  Every output that a successful
run writes must be accepted by the package's own reader, and its
manifest must replay.  A spreadsheet save of each valid CSV table (a
byte order mark and CRLF line ends) must change no exit code, stdout
or output byte of any command.
"""

from __future__ import annotations

import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from hgkit import Partition, read_hgf, read_json, write_json
from hgkit.cli import OUTPUT_FORMATS, _read_manifest, _read_scores_csv, main
from hgkit.hgio import MAX_HGF_VERTICES

SEED = 1990
MUTANTS_PER_KIND = 5

HGF = "5 4\n1=1.0 2=1.5\n2=1.0 3=2.0\n3=1.0 4=1.0 5=0.5\n1=1.0 5=1.0\n"
REVIEWS = "user_id,item_id,stars\nu1,b1,5\nu1,b2,3\nu2,b2,4\nu2,b3,1\nu3,b3,2\nu3,b1,5\n"
SCENES = json.dumps(
    [{"id": 1, "members": ["a", "b", "c"]}, {"id": "s2", "members": ["c", "d"]}, {"id": 3, "members": ["d", "a"]}]
)
PARTITION = Partition({1: 1, 2: 1, 3: 2, 4: 2, 5: 2})
SCORES = "vertex,label,score\n1,a,0.5\n2,b,1.5\n3,,2.25\n4,d,-1.0\n5,e,0.75\n"

NON_FINITE = ["nan", "inf", "-inf", "1e309", "NaN", "Infinity"]
INTEGERS = ["0", "-1", "1", "2", str(MAX_HGF_VERTICES + 1), str(10**30)]
NUMBER = re.compile(r"-?\d+(?:\.\d+)?")

# Input kind -> file name and the --format/--from value, if any.
KINDS = {
    "hgf": ("in.hgf", "hgf"),
    "json": ("in.json", "json"),
    "reviews": ("in.csv", "reviews-csv"),
    "scenes": ("scenes.json", "scenes-json"),
    "partition-json": ("part.json", None),
    "partition-csv": ("part.csv", None),
    "scores": ("scores.csv", None),
    "manifest": ("out.json.manifest.json", None),
}

# Output file name -> the package reader that must accept it.
READERS = {
    "out.hgf": lambda path: read_hgf(path.read_text(encoding="utf-8")),
    "out.json": lambda path: read_json(path.read_text(encoding="utf-8")),
    "part.json": lambda path: Partition.from_json_text(path.read_text(encoding="utf-8")),
    "part.csv": lambda path: Partition.from_csv_text(path.read_text(encoding="utf-8")),
    "scores.csv": lambda path: _read_scores_csv(str(path)),
}


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process run; argparse's exit counts as its code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an uncaught exception is a traceback for a CLI user
            raise AssertionError(f"{argv}: uncaught {exc!r}") from exc
    return rc, out.getvalue(), err.getvalue()


def base_documents(tmp_path: Path) -> dict[str, str]:
    h = read_hgf(HGF)
    for v in h.vertices():
        h.set_vertex_meta(v, f"v{v}")
    h.set_hyperedge_meta(2, {"scene": [1, 2.5, None]})
    docs = {
        "hgf": HGF,
        "json": write_json(h),
        "reviews": REVIEWS,
        "scenes": SCENES,
        "partition-json": PARTITION.to_json_text(),
        "partition-csv": PARTITION.to_csv_text(),
        "scores": SCORES,
    }
    source = tmp_path / "base.hgf"
    source.write_text(HGF, encoding="utf-8")
    assert run(["convert", "--input", str(source), "--to", "json", "--output", str(tmp_path / "out.json")])[0] == 0
    docs["manifest"] = (tmp_path / "out.json.manifest.json").read_text(encoding="utf-8")
    return docs


def mutate(text: str, rng: random.Random) -> bytes:
    data = text.encode("utf-8")
    how = rng.randrange(5)
    if how == 0:  # flip one bit of one byte
        i = rng.randrange(len(data))
        return data[:i] + bytes([data[i] ^ (1 << rng.randrange(8))]) + data[i + 1 :]
    if how == 1:  # truncate
        return data[: rng.randrange(len(data))]
    if how == 2:  # duplicate a line
        lines = text.splitlines(keepends=True)
        i = rng.randrange(len(lines))
        return "".join(lines[: i + 1] + lines[i:]).encode("utf-8")
    numbers = list(NUMBER.finditer(text))
    if not numbers:
        return data
    m = rng.choice(numbers)
    token = rng.choice(NON_FINITE if how == 3 else INTEGERS)
    return (text[: m.start()] + token + text[m.end() :]).encode("utf-8")


def commands(path: str, fmt: str | None, out: Path, valid: dict[str, str]) -> list[list[str]]:
    """Every command, reading ``path`` where it takes an input."""
    fmt_args = ["--format", fmt] if fmt else []
    from_args = ["--from", fmt] if fmt else []

    def output(name: str) -> list[str]:
        return ["--output", str(out / name)]

    return [
        ["stats", "--input", path, *fmt_args, *output("stats.txt")],
        *(["convert", "--input", path, *from_args, "--to", to, *output(f"out.{to}")] for to in OUTPUT_FORMATS),
        ["communities", "--input", path, *fmt_args, "--max-iter", "5", *output("part.json")],
        ["communities", "--input", path, *fmt_args, "--algo", "graph-lp", "--seed", "3", *output("part.csv")],
        ["betweenness", "--input", path, *fmt_args, *output("scores.csv")],
        ["betweenness", "--input", path, *fmt_args, "--s", "2", "--top-k", "2", "--full-precision"],
        ["forecast", "--input", path, *output("forecast.csv")],
        ["forecast", "--input", path, "--stars", "4", "5"],
        ["nmi", path, valid["partition-json"]],
        ["correlate", valid["scores"], path],
        ["rerun", path],
    ]


def check_run(argv: list[str]) -> int:
    rc, _, err = run(argv)
    what = f"{argv} -> {rc}: {err!r}"
    assert "Traceback" not in err, what
    os_error = rc == 1 and err.startswith("error: [Errno")
    digest_changed = rc == 1 and argv[0] == "rerun" and "digest changed" in err
    assert rc in (0, 2, 3, 4, 5) or os_error or digest_changed, what
    if rc != 0:
        assert err.startswith("error:") or "usage:" in err, what
    return rc


def check_outputs(argv: list[str]) -> None:
    """A successful run's output is read back by the package and its manifest replays."""
    if "--output" not in argv:
        return
    path = Path(argv[argv.index("--output") + 1])
    reader = READERS.get(path.name)
    if reader is not None:
        reader(path)
    manifest = str(path) + ".manifest.json"
    _read_manifest(manifest)
    rc, _, err = run(["rerun", manifest])
    assert (rc, err) == (0, ""), argv


def valid_inputs(tmp_path: Path, docs: dict[str, str]) -> dict[str, str]:
    """The paths of a valid partition JSON and score CSV, for commands that take two files."""
    valid = {}
    for name in ("partition-json", "scores"):
        valid[name] = str(tmp_path / KINDS[name][0])
        Path(valid[name]).write_text(docs[name], encoding="utf-8")
    return valid


def spreadsheet_save(text: str) -> bytes:
    """``text`` as a spreadsheet saves it: a UTF-8 byte order mark, then CRLF line ends."""
    return b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode("utf-8")


@pytest.mark.parametrize("kind", list(KINDS))
def test_mutated_inputs_end_in_a_documented_exit(tmp_path, kind):
    docs = base_documents(tmp_path)
    valid = valid_inputs(tmp_path, docs)
    rng = random.Random(f"{SEED}:{kind}")
    name, fmt = KINDS[kind]
    inputs = [docs[kind].encode("utf-8")] + [mutate(docs[kind], rng) for _ in range(MUTANTS_PER_KIND)]
    for i, data in enumerate(inputs):
        case = tmp_path / f"case{i}"
        (case / "out").mkdir(parents=True)
        path = case / name
        path.write_bytes(data)
        for argv in commands(str(path), fmt, case / "out", valid):
            if check_run(argv) == 0:
                check_outputs(argv)


@pytest.mark.parametrize("kind", ["reviews", "partition-csv", "scores"])
def test_a_spreadsheet_save_changes_no_output(tmp_path, kind):
    docs = base_documents(tmp_path)
    valid = valid_inputs(tmp_path, docs)
    name, fmt = KINDS[kind]
    seen = []
    for case, data in (("plain", docs[kind].encode("utf-8")), ("saved", spreadsheet_save(docs[kind]))):
        out = tmp_path / case / "out"
        out.mkdir(parents=True)
        (tmp_path / case / name).write_bytes(data)
        results = [run(argv)[:2] for argv in commands(str(tmp_path / case / name), fmt, out, valid)]
        # Manifests record the input's path and digest, which differ by design.
        written = {p.name: p.read_bytes() for p in out.iterdir() if not p.name.endswith(".manifest.json")}
        seen.append((results, written))
    assert any(rc == 0 for rc, _ in seen[0][0])
    assert seen[1] == seen[0]
