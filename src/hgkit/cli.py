"""Batch command line interface.

Subcommands: stats, convert, communities, nmi, betweenness, forecast,
correlate, rerun.  Data goes to stdout or to --output; diagnostics go
to stderr.  Exit code 0 means success; malformed documents exit 3, bad
ids or mismatched domains exit 4, degenerate inputs exit 5, usage
errors exit 2.

Every command that writes an output file also writes a sibling
``<output>.manifest.json`` recording the arguments plus input and
output digests; ``hgkit rerun`` replays a manifest and verifies the
outputs come back byte-identical.

``stats``, ``convert``, ``communities``, ``betweenness`` and
``forecast`` read their input once as bytes and take what they build
from a ``loadcache`` entry when an earlier command stored one for the
same bytes; otherwise they build it and, once the command has succeeded,
store it.  The CLI decides what each entry holds and how it is adopted,
and rewrites one whose payload its adopter refuses:

- ``_load_hypergraph``'s entry, keyed ``<fmt>`` (``<fmt> --stars [..]``
  for a star-filtered review build), is the 5-tuple ``_parse_hypergraph``
  makes: the four incidence and metadata lists, then a review CSV's
  per-item star sums and counts, which ``forecast`` rates items by.
- ``_load_co_members``' entry, keyed as the hypergraph's plus
  `` co-members``, is the hypergraph's ``CoMemberTable.payload()``: the
  three arrays' typecodes, then the bytes of the ids, counts and row
  ends, cast back by ``CoMemberTable.from_payload``.  Every command
  that reads co-member counts reads it: ``forecast``'s graph route sums
  its slices, ``betweenness`` filters it to the s-adjacency graph,
  ``convert --to dot-twosection`` writes it, and ``communities --algo
  graph-lp``'s LP and modularity read its slices as any graph's rows.
  A hit of the last two loads no hypergraph; a miss packs the loaded one.
  Its rows are in ``s_adjacency``'s walk order, ascending hyperedges,
  then ascending members, not the two-section view's, which graph-LP
  and ``graph_modularity`` cannot tell apart: their row sums are float
  sums of small integers, exact in any order, and tied labels are
  sorted.
  The entry takes 3.07 MB for the benchmark's 100k-review input (2-byte
  ids, 1-byte counts) and 0.93 MB for its 12k-scene input.

Outputs are the same with or without an entry.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys
from collections import Counter
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from . import __version__, hgio, hypercore, loadcache
from .analytics import (
    component_sizes,
    graph_modularity,
    hypergraph_modularity,
)
from .centrality import pearson, s_betweenness
from .community import LpConfig, graph_label_propagation, hypergraph_label_propagation, nmi
from .errors import (
    DegenerateInputError,
    EmptyEvaluationSetError,
    FormatError,
    HgkitError,
)
from .forecast import average_error, evaluation_size, forecast_graph, forecast_hypergraph
from .hgio import (
    _csv_chunks,
    _csv_rows,
    build_from_reviews,
    build_from_scenes,
    hgf_chunks,
    json_chunks,
    read_hgf,
    read_json,
    read_scenes_json,
    review_rows,
)
from .hypercore import Hypergraph
from .partition import Partition
from .views import CoMemberTable

INPUT_FORMATS = ("hgf", "json", "reviews-csv", "scenes-json")


def _fmt(x: float, full: bool) -> str:
    return repr(x) if full else f"{x:.6g}"


def _decode(data: bytes, path: str) -> str:
    """The bytes of input file ``path`` as text, decoded as ``open`` decodes UTF-8.

    Bytes that are not UTF-8 raise ``FormatError``.
    """
    try:
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _read_text(path: str) -> str:
    """The text of a UTF-8 input file, read as ``open`` reads it."""
    return _decode(Path(path).read_bytes(), path)


def _infer_format(path: str) -> str:
    suffix = Path(path).suffix.lower()
    return {".hgf": "hgf", ".json": "json", ".csv": "reviews-csv"}.get(suffix, "hgf")


def _read_input(args: argparse.Namespace, fmt: str | None) -> tuple[bytes, str]:
    """The bytes of ``args.input`` and its format, ``fmt`` or inferred from the name."""
    data = Path(args.input).read_bytes()
    # The manifest records these bytes, the ones the output is made from.
    args.input_sha256 = hashlib.sha256(data).hexdigest()
    return data, fmt or _infer_format(args.input)


def _cache_key(fmt: str, star_filter: list[int] | None) -> str:
    """The load-cache key of the hypergraph that ``fmt`` and ``star_filter`` build from an input."""
    return fmt if star_filter is None else f"{fmt} --stars {sorted(set(star_filter))}"


def _load_hypergraph(
    args: argparse.Namespace, data: bytes, fmt: str, star_filter: list[int] | None = None
) -> tuple[Hypergraph, tuple[list[int], list[int]] | None]:
    """The hypergraph that input bytes ``data`` of ``args.input`` hold and its star tallies.

    Both are adopted from the payload ``_parse_hypergraph`` makes, taken
    from the load cache when it holds these bytes under this key.
    """
    parse = lambda: _parse_hypergraph(_decode(data, args.input), fmt, star_filter)  # noqa: E731
    adopt = lambda p: (Hypergraph._from_rows(*p[:4]), p[4]) if type(p) is tuple and len(p) == 5 else None  # noqa: E731
    return args.cache.load(data, _cache_key(fmt, star_filter), parse, adopt)


def _load_co_members(
    args: argparse.Namespace, data: bytes, fmt: str, star_filter: list[int] | None = None, h: Hypergraph | None = None
) -> CoMemberTable:
    """The co-member table of the hypergraph that ``_load_hypergraph`` loads, from the load cache when it holds one.

    A hit reads no hypergraph.  A miss packs ``h`` when the caller holds
    it, else the hypergraph ``_load_hypergraph`` loads.
    """

    def pack() -> tuple[str, bytes, bytes, bytes]:
        return CoMemberTable.of(h if h is not None else _load_hypergraph(args, data, fmt, star_filter)[0]).payload()

    return args.cache.load(data, f"{_cache_key(fmt, star_filter)} co-members", pack, CoMemberTable.from_payload)


def _parse_hypergraph(text: str, fmt: str, star_filter: list[int] | None = None) -> tuple:
    """The payload of the hypergraph in ``text``: its four index and metadata lists, then its star tallies.

    The tallies of a review CSV are two lists, each item's star sum and
    review count at position v-1 for vertex v, taken over every review:
    ``star_filter`` drops reviews from the hypergraph only.  Other formats
    carry None.
    """
    tallies = None
    # A review CSV is a table, whose reader refuses a line of blanks.
    if fmt == "reviews-csv":
        totals: dict[str, list[int]] = {}
        h, item_labels, _ = build_from_reviews(_tally_stars(review_rows(text), totals), star_filter)
        tallies = [totals[i][0] for i in item_labels], [totals[i][1] for i in item_labels]
    # An entirely blank file stands for the empty structure in any other format.
    elif not text.strip():
        h = Hypergraph(0, 0)
    elif fmt == "hgf":
        h = read_hgf(text)
    elif fmt == "json":
        h = read_json(text)
    else:
        h, _ = build_from_scenes(read_scenes_json(text))
    return h._v2he, h._he2v, h._vmeta, h._hemeta, tallies


def _tally_stars(
    rows: Iterable[tuple[str, str, int]], totals: dict[str, list[int]]
) -> Iterator[tuple[str, str, int]]:
    """Pass ``rows`` through, adding each one's stars to ``totals[item]`` = [sum, count]."""
    for row in rows:
        tally = totals.get(row[1])
        if tally is None:
            totals[row[1]] = [row[2], 1]
        else:
            tally[0] += row[2]
            tally[1] += 1
        yield row


def _load_partition(path: str) -> Partition:
    text = _read_text(path)
    if Path(path).suffix.lower() == ".csv":
        return Partition.from_csv_text(text)
    return Partition.from_json_text(text)


def _write_manifest(args: argparse.Namespace, outputs: dict[str, str]) -> None:
    """Write ``<first output>.manifest.json``; ``outputs`` maps each output path to its digest."""
    primary = next(iter(outputs))
    parameters = {
        key: value
        for key, value in vars(args).items()
        if key not in ("func", "argv_snapshot", "cache", "input_sha256") and isinstance(value, (str, int, float, bool, list, type(None)))
    }
    doc = {
        "manifest_version": 1,
        "tool": "hgkit",
        "tool_version": __version__,
        "command": args.command,
        "argv": args.argv_snapshot,
        "parameters": parameters,
        "inputs": [{"path": args.input, "sha256": args.input_sha256}],
        "outputs": [{"path": p, "sha256": digest} for p, digest in outputs.items()],
    }
    Path(primary + ".manifest.json").write_text(
        json.dumps(doc, indent=2) + "\n", encoding="utf-8"
    )


def _emit(args: argparse.Namespace, chunks: Iterable[str]) -> None:
    """Send a document's text chunks to --output (with manifest) or stdout.

    Each chunk is written as it comes, so the document never exists as
    one string.  The manifest's output digest is taken over the bytes
    as they are written.
    """
    if args.output:
        digest = hashlib.sha256()
        with open(args.output, "wb") as out:
            for chunk in chunks:
                data = chunk.encode("utf-8")
                digest.update(data)
                out.write(data)
        _write_manifest(args, {args.output: digest.hexdigest()})
    else:
        for chunk in chunks:
            sys.stdout.write(chunk)


# --- stats ------------------------------------------------------------------


def _histogram_line(counts: Counter[int]) -> str:
    return " ".join(f"{key}:{counts[key]}" for key in sorted(counts))


def cmd_stats(args: argparse.Namespace) -> int:
    h, _ = _load_hypergraph(args, *_read_input(args, args.format))
    components = component_sizes(h)
    sizes = Counter(map(len, h._he2v))
    degrees = Counter(map(len, h._v2he))
    lines = [
        f"vertices: {h.nhv}",
        f"hyperedges: {h.nhe}",
        f"incidences: {h.incidence_count}",
        f"components: {components.total()}",
        "component-sizes: " + " ".join(map(str, sorted(components.elements(), reverse=True))),
        "hyperedge-size-histogram: " + _histogram_line(sizes),
        "degree-histogram: " + _histogram_line(degrees),
    ]
    report = "\n".join(line.rstrip() for line in lines) + "\n"
    sys.stdout.write(report)
    if args.output:
        _emit(args, [report])
    return 0


# --- convert ----------------------------------------------------------------


def _dot_chunks(name: str, n_nodes: int, edge_chunks: Iterable[str]) -> Iterator[str]:
    """A graph in DOT: every node, one chunk per line, then the edge chunks."""
    yield f"graph {name} {{\n"
    for v in range(1, n_nodes + 1):
        yield f"  {v};\n"
    yield from edge_chunks
    yield "}\n"


def _two_section_edge_chunks(table: CoMemberTable) -> Iterator[str]:
    """Each edge (u, v) with u < v in ascending order, one chunk per u with higher neighbours.

    Each row's higher (neighbour, count) pairs are sorted straight from
    the table's slices; the counts are integers and print as ``str``.
    """
    for u, (ids, counts) in enumerate(table.rows(), start=1):
        higher = [pair for pair in zip(ids, counts) if pair[0] > u]
        if higher:
            higher.sort()
            yield "".join([f"  {u} -- {v} [weight={c}];\n" for v, c in higher])


def _bipartite_edge_chunks(h: Hypergraph) -> Iterator[str]:
    """The bipartite view's edges in ascending order, read off the vertex index.

    Every edge joins a vertex u to a hyperedge node n + e above it, with
    weight 1; one chunk per vertex in a hyperedge.
    """
    n = h.nhv
    for u, row in enumerate(h._v2he, start=1):
        if row:
            yield "".join([f"  {u} -- {n + e} [weight=1];\n" for e in sorted(row)])


# Output format -> generator of the document's text chunks, from the
# hypergraph, or for dot-twosection from its co-member table.
_CONVERT_WRITERS = {
    "hgf": hgf_chunks,
    "json": json_chunks,
    "dot-bipartite": lambda h: _dot_chunks("bipartite", h.nhv + h.nhe, _bipartite_edge_chunks(h)),
    "dot-twosection": lambda t: _dot_chunks("twosection", t.n_nodes, _two_section_edge_chunks(t)),
}
OUTPUT_FORMATS = tuple(_CONVERT_WRITERS)


def cmd_convert(args: argparse.Namespace) -> int:
    if args.to_fmt == "dot-twosection":
        source = _load_co_members(args, *_read_input(args, args.from_fmt))
    else:
        source, _ = _load_hypergraph(args, *_read_input(args, args.from_fmt))
    _emit(args, _CONVERT_WRITERS[args.to_fmt](source))
    return 0


# --- communities ------------------------------------------------------------


def cmd_communities(args: argparse.Namespace) -> int:
    cfg = LpConfig(max_iterations=args.max_iter, seed=args.seed)
    if args.algo == "hyper-lp":
        h, _ = _load_hypergraph(args, *_read_input(args, args.format))
        part, iterations = hypergraph_label_propagation(h, cfg)
        score = lambda: hypergraph_modularity(h, part)  # noqa: E731
    else:
        graph = _load_co_members(args, *_read_input(args, args.format))
        part, iterations = graph_label_propagation(graph, cfg)
        score = lambda: graph_modularity(graph, part)  # noqa: E731
    try:
        modularity = _fmt(score(), args.full_precision)
    except DegenerateInputError:
        modularity = "n/a"
    text = (
        part.to_csv_text()
        if args.output and args.output.lower().endswith(".csv")
        else part.to_json_text()
    )
    _emit(args, [text])
    print(f"algorithm: {args.algo}")
    print(f"communities: {part.community_count}")
    print(f"iterations: {iterations}")
    print(f"modularity: {modularity}")
    return 0


# --- nmi ----------------------------------------------------------------------


def cmd_nmi(args: argparse.Namespace) -> int:
    score = nmi(_load_partition(args.partition_a), _load_partition(args.partition_b))
    print(_fmt(score, args.full_precision))
    return 0


# --- betweenness ----------------------------------------------------------------


SCORES_HEADER = ["vertex", "label", "score"]


def _score_rows(h: Hypergraph, ranked: list[tuple[int, float]], full: bool) -> Iterator[list[str]]:
    yield SCORES_HEADER
    for v, score in ranked:
        meta = h.get_vertex_meta(v)
        label = meta if isinstance(meta, str) else ""
        yield [str(v), label, _fmt(score, full)]


def cmd_betweenness(args: argparse.Namespace) -> int:
    data, fmt = _read_input(args, args.format)
    h, _ = _load_hypergraph(args, data, fmt)
    vector = s_betweenness(h, args.s, _load_co_members(args, data, fmt, h=h))
    ranked = vector.top(args.top_k) if args.top_k is not None else vector.ranked()
    _emit(args, _csv_chunks(_score_rows(h, ranked, args.full_precision)))
    return 0


# --- forecast --------------------------------------------------------------------


def cmd_forecast(args: argparse.Namespace) -> int:
    # Ratings are in-sample item means over every review, unfiltered;
    # the star filter shapes only the hypergraph.
    data, fmt = _read_input(args, "reviews-csv")
    h, (sums, counts) = _load_hypergraph(args, data, fmt, args.stars)
    ratings = {v: total / n for v, total, n in zip(h.vertices(), sums, counts)}
    hyper = forecast_hypergraph(h, ratings)
    graph = forecast_graph(_load_co_members(args, data, fmt, args.stars, h), ratings)
    if evaluation_size(hyper) == 0 and evaluation_size(graph) == 0:
        raise EmptyEvaluationSetError("no vertex received a defined prediction")
    full = args.full_precision
    header = ["vertex", "label", "stars", "forecast_hyper", "forecast_graph"]
    rows = (
        [str(v), label, _fmt(ratings[v], full)]
        + ["" if p is None else _fmt(p, full) for p in (hyper[v], graph[v])]
        for v, label in zip(h.vertices(), h._vmeta)
    )
    _emit(args, _csv_chunks(chain([header], rows)))
    print(
        f"err-hypergraph: {_fmt(average_error(hyper, ratings), full)}"
        f" (defined {evaluation_size(hyper)}/{h.nhv})"
    )
    print(
        f"err-graph: {_fmt(average_error(graph, ratings), full)}"
        f" (defined {evaluation_size(graph)}/{h.nhv})"
    )
    return 0


# --- correlate ---------------------------------------------------------------------


def _read_scores_csv(path: str) -> dict[int, float]:
    """Vertex -> score from a score CSV; scores must be finite, vertices distinct."""
    scores: dict[int, float] = {}
    for row in _csv_rows(_read_text(path), SCORES_HEADER, FormatError, f"{path}: score"):
        if len(row) != 3:
            raise FormatError(f"{path}: row {row!r} must have three fields")
        v = hgio._number(row[0], int, FormatError, f"{path}: vertex")
        score = hgio._number(row[2], float, FormatError, f"{path}: score")
        if not math.isfinite(score):
            raise FormatError(f"{path}: score {row[2]!r} of vertex {v} is not finite")
        if v in scores:
            raise FormatError(f"{path}: vertex {v} scored twice")
        scores[v] = score
    return scores


def cmd_correlate(args: argparse.Namespace) -> int:
    rho = pearson(_read_scores_csv(args.csv_a), _read_scores_csv(args.csv_b))
    print(_fmt(rho, args.full_precision))
    return 0


# --- rerun -----------------------------------------------------------------------


def _read_manifest(path: str) -> tuple[dict[str, Any], argparse.Namespace]:
    """Load a run manifest and parse its argv, rejecting any document ``rerun`` cannot replay."""
    doc = hgio._json(_read_text(path), dict, FormatError, f"{path}: manifest")
    hypercore.check_int(doc.get("manifest_version"), 1, 1, FormatError, f"{path}: manifest_version")
    argv = doc.get("argv")
    if not isinstance(argv, list) or not argv or not all(isinstance(a, str) for a in argv):
        raise FormatError(f"{path}: argv must be a non-empty list of strings")
    # The commands that write a manifest.
    if argv[0] not in ("stats", "convert", "communities", "betweenness", "forecast"):
        raise FormatError(f"{path}: argv must replay a command that writes a manifest, not {argv[0]!r}")
    for key in ("inputs", "outputs"):
        records = doc.get(key)
        if not isinstance(records, list) or not all(
            isinstance(r, dict) and isinstance(r.get("path"), str) and isinstance(r.get("sha256"), str)
            for r in records
        ):
            raise FormatError(f"{path}: {key} must be a list of path and sha256 strings")
    # Argv and paths name files, so they must encode as ``open`` encodes a
    # name: a non-UTF-8 name that hgkit recorded holds escaped bytes.
    for name in [*argv, *(r["path"] for key in ("inputs", "outputs") for r in doc[key])]:
        try:
            os.fsencode(name)
        except UnicodeEncodeError:
            raise FormatError(f"{path}: manifest string {name!r} holds a lone surrogate") from None
    # argparse exits after printing help, the version (exit 0) or a usage
    # error; none of them replays a command.
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
            replay = _build_parser().parse_args(argv)
    except SystemExit as exc:
        reason = printed.getvalue().rpartition(": error: ")[2].strip() if exc.code else "it asks for help or the version"
        raise FormatError(f"{path}: argv does not replay a command: {reason}") from None
    # Without an output there is nothing to compare the replay with.
    if not doc["outputs"]:
        raise FormatError(f"{path}: the manifest records no output")
    if replay.output != doc["outputs"][0]["path"]:
        raise FormatError(f"{path}: argv's --output must name the first recorded output")
    return doc, replay


def _recorded_cwd(manifest: str, output: str) -> Path:
    """The working directory that a manifest's relative paths were recorded in.

    A manifest is written at ``<output>.manifest.json``, ``output`` being
    its first recorded output, so that directory is the manifest's own,
    one level up per directory in the recorded output path.  When that
    path is absolute or contains ``..``, or the manifest no longer
    carries its name, paths resolve against the current directory
    instead.
    """
    here = Path(os.path.abspath(manifest))
    recorded = Path(output)
    if recorded.is_absolute() or ".." in recorded.parts or here.name != recorded.name + ".manifest.json":
        return Path()
    base = here.parent
    for _ in recorded.parent.parts:
        base = base.parent
    return base


def _report_error(message: str) -> None:
    """Write ``error: <message>`` to stderr.

    A name that is not UTF-8 holds its bytes escaped as lone surrogates,
    which a stream with strict errors refuses; there the line goes out
    through the stream's bytes, the name as the bytes it stands for.
    """
    line = f"error: {message}\n"
    try:
        sys.stderr.write(line)
    except UnicodeEncodeError:
        sys.stderr.flush()
        sys.stderr.buffer.write(os.fsencode(line))
        sys.stderr.buffer.flush()


def _digest_changed(record: dict[str, str], path: Path, how: str = "") -> bool:
    """Whether the file at ``path`` lacks the record's digest, reported on stderr."""
    fresh = hashlib.sha256(path.read_bytes()).hexdigest()
    if fresh == record["sha256"]:
        return False
    _report_error(f"{record['path']} digest changed{how} ({record['sha256'][:12]} -> {fresh[:12]})")
    return True


def _first_difference(a: bytes, b: bytes) -> str:
    """Where two unequal documents first differ: ``line N``, counted from 1, or ``end of file`` if one is a prefix."""
    if a.startswith(b) or b.startswith(a):
        return "end of file"
    pairs = enumerate(zip(a.split(b"\n"), b.split(b"\n")), start=1)
    return f"line {next(n for n, (x, y) in pairs if x != y)}"


def cmd_rerun(args: argparse.Namespace) -> int:
    """Check the recorded inputs, replay into a temporary directory, compare.

    Recorded outputs are only read, never written: an output counts as
    changed when the replay or the file at its recorded path no longer
    has the recorded digest; every changed file is named, and where it differs.
    """
    doc, replay = _read_manifest(args.manifest)
    base = _recorded_cwd(args.manifest, replay.output)
    # Lists and ``|`` rather than generators and ``or``, so that every
    # changed file is reported.
    if any([_digest_changed(r, base / r["path"]) for r in doc["inputs"]]):
        return 1
    replay.argv_snapshot = list(doc["argv"])
    replay.cache = args.cache
    # Every command that writes a manifest reads one --input.
    replay.input = str(base / replay.input)
    import tempfile  # only rerun needs it; kept off every other command's start-up

    with tempfile.TemporaryDirectory() as tmp:
        replay.output = str(Path(tmp) / Path(replay.output).name)
        rc = replay.func(replay)
        if rc != 0:
            return rc
        changed = False
        for r in doc["outputs"]:
            replayed, recorded = Path(tmp) / Path(r["path"]).name, base / r["path"]
            if _digest_changed(r, replayed, " on replay") | _digest_changed(r, recorded):
                changed = True
                a, b = replayed.read_bytes(), recorded.read_bytes()
                if a != b:
                    _report_error(f"{r['path']} first differs from its replay at {_first_difference(a, b)}")
    return 1 if changed else 0


# --- parser ----------------------------------------------------------------------


def _integer(low: int | None = None) -> Callable[[str], int]:
    """An argparse type: an integer in hgio's number grammar, no smaller than ``low`` if given."""

    def parse(text: str) -> int:
        value = hgio._number(text, int, ValueError, "option")
        return hypercore.check_int(value, low, None, argparse.ArgumentTypeError, "value")

    # argparse names the type in its "invalid int value" message.
    parse.__name__ = "int"
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgkit", description="Hypergraph analytics toolbox"
    )
    parser.add_argument("--version", action="version", version=f"hgkit {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--full-precision",
        action="store_true",
        help="print floats at full precision instead of 6 significant digits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", parents=[common], help="structural summary of a hypergraph")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=INPUT_FORMATS)
    p.add_argument("--output")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("convert", parents=[common], help="rewrite a hypergraph in another format")
    p.add_argument("--input", required=True)
    p.add_argument("--from", dest="from_fmt", choices=INPUT_FORMATS)
    p.add_argument("--to", dest="to_fmt", required=True, choices=OUTPUT_FORMATS)
    p.add_argument("--output")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("communities", parents=[common], help="label propagation communities")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=INPUT_FORMATS)
    p.add_argument("--algo", choices=("hyper-lp", "graph-lp"), default="hyper-lp")
    p.add_argument("--seed", type=_integer(), default=0)
    p.add_argument("--max-iter", type=_integer(1), default=100)
    p.add_argument("--output")
    p.set_defaults(func=cmd_communities)

    p = sub.add_parser("nmi", parents=[common], help="compare two partition files")
    p.add_argument("partition_a")
    p.add_argument("partition_b")
    p.set_defaults(func=cmd_nmi)

    p = sub.add_parser("betweenness", parents=[common], help="s-betweenness ranking as CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=INPUT_FORMATS)
    p.add_argument("--s", type=_integer(), default=1)
    p.add_argument("--top-k", type=_integer(0))
    p.add_argument("--output")
    p.set_defaults(func=cmd_betweenness)

    p = sub.add_parser("forecast", parents=[common], help="rating forecasts from a review CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--stars", type=_integer(), nargs="+", choices=range(1, 6))
    p.add_argument("--output")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("correlate", parents=[common], help="Pearson correlation of two score CSVs")
    p.add_argument("csv_a")
    p.add_argument("csv_b")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("rerun", parents=[common], help="replay a run manifest and verify digests")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_rerun)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.argv_snapshot = list(argv)
    args.cache = loadcache.Session()
    try:
        rc = args.func(args)
    except HgkitError as exc:
        _report_error(str(exc))
        return exc.exit_code
    except OSError as exc:
        _report_error(str(exc))
        return 1
    # Only a command that succeeded leaves load-cache entries behind.
    if rc == 0:
        args.cache.commit()
    return rc


if __name__ == "__main__":
    sys.exit(main())
