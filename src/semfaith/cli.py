"""Command-line front end: pair scoring, corpus scoring, DistSim, and the
two-phase edit-sensitivity harness.  All outputs are deterministic given the
same inputs, flags, and seed."""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .graph import (
    GraphFormatError,
    GraphValidationError,
    load_graph,
    parse_json,
    read_corpus,
    read_utf8,
)
from .harness import (
    HarnessError,
    build_chain,
    compute_deltas,
    emit_manifest,
    load_manifest,
    read_edit_corpus,
    version_id,
)
from .measures import (
    ScoreTriple,
    TokenMismatchError,
    UsimReport,
    distsim,
    usim,
)

EXIT_OK = 0
EXIT_WORKER = 1  # a scoring worker process died without a result
EXIT_FORMAT = 3  # malformed input document
EXIT_VALIDATION = 4  # well-formed input violating an invariant/precondition
EXIT_PAIRING = 5  # corpora that cannot be paired


class PairingError(ValueError):
    pass


class WorkerError(RuntimeError):
    """A forked scoring worker ended without sending its reports."""


def _fmt(x: Fraction) -> str:
    return f"{float(x):.4f}"


def _triple_dict(t: ScoreTriple) -> dict:
    return {
        "p": _fmt(t.precision),
        "r": _fmt(t.recall),
        "f": _fmt(t.f_score),
        "matched_candidate": t.matched_candidate,
        "candidate_count": t.candidate_count,
        "matched_reference": t.matched_reference,
        "reference_count": t.reference_count,
    }


def _report_dict(pair_id: str, report: UsimReport) -> dict:
    return {
        "id": pair_id,
        "s_to_c": _triple_dict(report.s_to_c),
        "c_to_s": _triple_dict(report.c_to_s),
        "average": _fmt(report.average),
    }


_PAIR_COLUMNS = [
    "id",
    "s_to_c_p", "s_to_c_r", "s_to_c_f",
    "c_to_s_p", "c_to_s_r", "c_to_s_f",
    "average",
]


def _pair_values(report: UsimReport) -> list[Fraction]:
    """The scores of one pair, in ``_PAIR_COLUMNS[1:]`` order."""
    return [
        report.s_to_c.precision, report.s_to_c.recall, report.s_to_c.f_score,
        report.c_to_s.precision, report.c_to_s.recall, report.c_to_s.f_score,
        report.average,
    ]


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        data = text.encode("utf-8")  # before the file is created
        Path(out).write_bytes(data)


def _score_kwargs(args: argparse.Namespace) -> dict:
    return {
        "lowercase": args.lowercase,
        "include_remote": not args.no_remote,
        "strict_parent": args.strict_parent,
        "max_norm_dist": args.max_norm_dist,
    }


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _non_negative_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not value >= 0:  # also false for NaN
        raise argparse.ArgumentTypeError(f"must be a non-negative number, got {text!r}")
    return value


def _output_path(text: str) -> str:
    path = Path(text)
    if path.is_dir():
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    if not path.parent.is_dir():
        raise argparse.ArgumentTypeError(f"the directory of {text!r} does not exist")
    return text


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("tsv", "json-lines"), default="tsv",
        help="report format (default: tsv)",
    )
    parser.add_argument(
        "--lowercase", action="store_true",
        help="lowercase tokens before comparison (default: case-sensitive)",
    )
    parser.add_argument(
        "--no-remote", action="store_true",
        help="exclude remote edges from all counts (default: included)",
    )
    parser.add_argument(
        "--strict-parent", action="store_true",
        help="require parent nodes to be aligned too for an edge match "
        "(default: child and label only)",
    )
    parser.add_argument(
        "--max-norm-dist", type=_non_negative_float, default=None, metavar="0..1",
        help="forbid token pairs whose normalized edit distance exceeds this "
        "(default: no threshold)",
    )
    parser.add_argument(
        "--out", type=_output_path, default=None, metavar="PATH",
        help="write the report here (default: standard output)",
    )


# -- subcommands -----------------------------------------------------------


def cmd_score(args: argparse.Namespace) -> int:
    g_s = load_graph(args.source)
    g_c = load_graph(args.correction)
    report = usim(g_s, g_c, **_score_kwargs(args))
    if args.format == "json-lines":
        text = json.dumps(_report_dict(g_s.id, report), sort_keys=True) + "\n"
    else:
        lines = ["\t".join(["direction", "precision", "recall", "f_score",
                            "matched_candidate", "candidate_count",
                            "matched_reference", "reference_count"])]
        for name, t in (("s_to_c", report.s_to_c), ("c_to_s", report.c_to_s)):
            lines.append("\t".join([
                name, _fmt(t.precision), _fmt(t.recall), _fmt(t.f_score),
                str(t.matched_candidate), str(t.candidate_count),
                str(t.matched_reference), str(t.reference_count),
            ]))
        lines.append(f"average\t{_fmt(report.average)}")
        text = "\n".join(lines) + "\n"
    _write_output(text, args.out)
    return EXIT_OK


def _paired_corpora(source_path: str, correction_path: str):
    sources = read_corpus(source_path)
    corrections = read_corpus(correction_path)
    shared = sorted(set(sources) & set(corrections))
    only_s = sorted(set(sources) - set(corrections))
    only_c = sorted(set(corrections) - set(sources))
    for pair_id in only_s:
        print(f"warning: id {pair_id!r} present only in source corpus", file=sys.stderr)
    for pair_id in only_c:
        print(f"warning: id {pair_id!r} present only in correction corpus", file=sys.stderr)
    if not shared:
        raise PairingError("no graph ids shared between the two corpora")
    return [(pair_id, sources[pair_id], corrections[pair_id]) for pair_id in shared]


def _shards(pairs: list, jobs: int) -> list[list[int]]:
    """Pair indices in ``min(jobs, len(pairs))`` shards of about equal cost,
    a pair costing its source token count times its correction token count.
    Greedy longest-first: each pair goes to the shard with the least cost so
    far, then the fewest pairs, then the lowest index, so no shard is empty.
    Each shard lists its pairs in pair order."""
    shards: list[list[int]] = [[] for _ in range(min(jobs, len(pairs)))]
    loads = [0] * len(shards)
    costs = [len(g_s.tokens) * len(g_c.tokens) for _, g_s, g_c in pairs]
    for i in sorted(range(len(pairs)), key=lambda i: -costs[i]):
        k = min(range(len(shards)), key=lambda k: (loads[k], len(shards[k])))
        shards[k].append(i)
        loads[k] += costs[i]
    return [sorted(shard) for shard in shards]


def _score_shard(pairs: list, shard: list[int], kwargs: dict):
    """``(reports, failure)`` for the pairs of ``shard`` in order.  Scoring
    stops at the first pair that raises; ``failure`` is then its index and
    exception, otherwise None."""
    reports = []
    for i in shard:
        _, g_s, g_c = pairs[i]
        try:
            reports.append(usim(g_s, g_c, **kwargs))
        except Exception as exc:
            return reports, (i, exc)
    return reports, None


def _fork_worker(pairs: list, shard: list[int], kwargs: dict) -> tuple[int, int]:
    """Fork a child that writes the pickled ``_score_shard`` result of
    ``shard`` to a pipe.  Returns the child's pid and the pipe's read end.
    Forking is safe because the command starts no threads."""
    import pickle  # here, not at the top: only runs that fork pay for it

    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        # The child leaves only through os._exit, so it never runs the
        # caller's exit handlers or flushes stdio buffers it inherited.
        status = 1
        try:
            os.close(read_end)
            data = pickle.dumps(_score_shard(pairs, shard, kwargs))
            with open(write_end, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, read_end


def _collect(pid: int, read_end: int):
    """The ``_score_shard`` result that worker ``pid`` sent.  The pipe is
    read to EOF before the wait, so a result larger than the pipe buffer
    cannot leave the child blocked on its write."""
    import pickle

    with open(read_end, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status or not data:
        if os.WIFSIGNALED(status):
            how = f"killed by signal {os.WTERMSIG(status)}"
        else:
            how = f"exit code {os.WEXITSTATUS(status)}"
        raise WorkerError(
            f"scoring worker {pid} ended with wait status {status} ({how}) "
            "without sending its reports"
        )
    return pickle.loads(data)


def _score_pairs(pairs: list, jobs: int, kwargs: dict) -> list[UsimReport]:
    """The ``usim`` report of every pair, in pair order.

    The pairs are split into ``min(jobs, len(pairs))`` shards (one where
    ``os.fork`` is missing).  This process scores the first shard and a
    forked child each other one.  The reports, and the exception raised when
    a pair fails (that of the first failing pair in pair order), are the
    same for every ``jobs``."""
    shards = _shards(pairs, jobs if hasattr(os, "fork") else 1)
    workers: list[tuple[int, int]] = []
    try:
        for shard in shards[1:]:
            workers.append(_fork_worker(pairs, shard, kwargs))
        results = [_score_shard(pairs, shards[0], kwargs)]
        while workers:
            results.append(_collect(*workers.pop(0)))
    finally:
        if workers:  # only when this process failed: stop and reap the rest
            import signal

            for pid, read_end in workers:
                os.kill(pid, signal.SIGKILL)
                os.close(read_end)
                os.waitpid(pid, 0)
    failures = [failure for _, failure in results if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    reports: list = [None] * len(pairs)
    for shard, (shard_reports, _) in zip(shards, results):
        for i, report in zip(shard, shard_reports):
            reports[i] = report
    return reports


def cmd_corpus(args: argparse.Namespace) -> int:
    pairs = _paired_corpora(args.source, args.correction)
    reports = _score_pairs(pairs, args.jobs, _score_kwargs(args))
    results = [(pair_id, report) for (pair_id, _, _), report in zip(pairs, reports)]

    n = len(results)
    agg = [_fmt(sum(column) / n) for column in zip(*(_pair_values(r) for _, r in results))]
    if args.format == "json-lines":
        lines = [json.dumps(_report_dict(pair_id, r), sort_keys=True)
                 for pair_id, r in results]
        lines.append(json.dumps(
            {"aggregate": True, "pairs": n, **dict(zip(_PAIR_COLUMNS[1:], agg))},
            sort_keys=True,
        ))
    else:
        lines = ["\t".join(_PAIR_COLUMNS)]
        lines.extend("\t".join([pair_id] + [_fmt(v) for v in _pair_values(r)])
                     for pair_id, r in results)
        lines.append("\t".join(["<aggregate>"] + agg))
    _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _load_groups(path: str) -> list[tuple[str, frozenset[str]]]:
    doc = parse_json(read_utf8(path, GraphFormatError), GraphFormatError, f"groups file {path}")
    if not isinstance(doc, dict) or not all(
        isinstance(k, str) and isinstance(v, list) and all(isinstance(x, str) for x in v)
        for k, v in doc.items()
    ):
        raise GraphFormatError(
            f"groups file {path}: expected an object mapping names to label lists"
        )
    return [(name, frozenset(labels)) for name, labels in doc.items()]


def cmd_distsim(args: argparse.Namespace) -> int:
    pairs = _paired_corpora(args.source, args.correction)
    groups = _load_groups(args.groups) if args.groups else None
    rows = distsim(
        [(g_s, g_c) for _, g_s, g_c in pairs],
        groups=groups,
        include_remote=not args.no_remote,
    )
    if args.format == "json-lines":
        lines = [
            json.dumps(
                {"group": row.name, "labels": sorted(row.labels),
                 "distance": _fmt(row.value), "similarity": _fmt(row.similarity)},
                sort_keys=True,
            )
            for row in rows
        ]
    else:
        lines = ["group\tlabels\tdistance\tsimilarity"]
        lines.extend(
            f"{row.name}\t{','.join(sorted(row.labels))}\t{_fmt(row.value)}\t{_fmt(row.similarity)}"
            for row in rows
        )
    _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_maege_gen(args: argparse.Namespace) -> int:
    records = read_edit_corpus(args.edit_corpus)
    chains = [
        build_chain(sid, tokens, edits, args.seed, pin_source_index=args.pin_source)
        for sid, tokens, edits in records
    ]
    emit_manifest(chains, args.out)
    return EXIT_OK


def cmd_maege_score(args: argparse.Namespace) -> int:
    chains = load_manifest(args.manifest)
    graphs_dir = Path(args.graphs)
    graphs = {}
    for chain in chains:
        for k in range(len(chain.versions)):
            vid = version_id(chain.sentence_id, k)
            if vid in graphs:
                continue
            path = graphs_dir / f"{vid}.json"
            if not path.is_file():
                raise HarnessError(f"no graph file for version {vid!r} at {path}")
            graphs[vid] = load_graph(path)
            if graphs[vid].tokens != chain.versions[k]:
                raise GraphValidationError(
                    f"graph for version {vid!r} at {path} does not have the "
                    "manifest tokens of that version"
                )
    report = compute_deltas(chains, graphs, **_score_kwargs(args))
    if args.format == "json-lines":
        lines = [
            json.dumps(
                {"type": td.edit_type, "delta_mean": _fmt(td.delta_mean),
                 "occurrences": td.occurrences},
                sort_keys=True,
            )
            for td in report
        ]
    else:
        lines = ["type\tdelta_mean\toccurrences"]
        lines.extend(
            f"{td.edit_type}\t{_fmt(td.delta_mean)}\t{td.occurrences}" for td in report
        )
    _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# -- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semfaith",
        description="Reference-less semantic faithfulness scoring between "
        "source and correction semantic graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="score one source/correction graph pair")
    p.add_argument("source", help="source graph document")
    p.add_argument("correction", help="correction graph document")
    _add_common_flags(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("corpus", help="score two corpora paired by graph id")
    p.add_argument("source", help="source corpus (directory or .jsonl)")
    p.add_argument("correction", help="correction corpus (directory or .jsonl)")
    _add_common_flags(p)
    p.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="score the pairs in this many processes, forked where the "
        "platform has fork (default: 1)",
    )
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("distsim", help="per-label-group count distance over a corpus")
    p.add_argument("source", help="source corpus (directory or .jsonl)")
    p.add_argument("correction", help="correction corpus (directory or .jsonl)")
    _add_common_flags(p)
    p.add_argument(
        "--groups", default=None, metavar="FILE",
        help="JSON object mapping group names to label lists "
        "(default: A+D, Scene, and one group per observed label)",
    )
    p.set_defaults(func=cmd_distsim)

    p = sub.add_parser("maege", help="two-phase edit-sensitivity harness")
    maege_sub = p.add_subparsers(dest="maege_command", required=True)

    g = maege_sub.add_parser("gen", help="build version chains and a parse manifest")
    g.add_argument("edit_corpus", help="newline-delimited edit records")
    g.add_argument("--seed", type=int, default=0, help="master RNG seed (default: 0)")
    g.add_argument(
        "--pin-source", type=int, default=None, metavar="K",
        help="pin the comparison source to version K instead of sampling it",
    )
    g.add_argument(
        "--out", type=_output_path, required=True, metavar="PATH",
        help="manifest output path",
    )
    g.set_defaults(func=cmd_maege_gen)

    s = maege_sub.add_parser("score", help="aggregate per-edit-type score deltas")
    s.add_argument("manifest", help="manifest produced by 'maege gen'")
    s.add_argument("graphs", help="directory of parsed graphs named <version_id>.json")
    _add_common_flags(s)
    s.set_defaults(func=cmd_maege_score)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphFormatError, HarnessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (GraphValidationError, TokenMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except PairingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PAIRING
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WORKER


if __name__ == "__main__":
    sys.exit(main())
