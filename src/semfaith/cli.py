"""Command-line front end: pair scoring, corpus scoring, DistSim, and the
two-phase edit-sensitivity harness.  All outputs are deterministic given the
same inputs, flags, and seed."""
from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import BinaryIO

from .graph import (
    GraphFormatError,
    GraphValidationError,
    is_str_list,
    load_graph,
    parse_json,
    read_corpus,
    read_utf8,
)
from .harness import (
    HarnessError,
    build_chains,
    chain_scores,
    load_chain_graphs,
    load_manifest,
    manifest_text,
    type_deltas,
)
from .measures import (
    ScoreTriple,
    UsimReport,
    distsim,
    usim,
)

EXIT_OK = 0


class PairingError(ValueError):
    pass


class WorkerError(RuntimeError):
    """A forked scoring worker ended without sending its reports."""


class OutputError(Exception):
    """The report or manifest could not be written to ``--out``, or the
    report or the help to standard output."""


# The exit code of each error that main reports; argparse exits 2 on a bad flag.
EXIT_CODES = {
    WorkerError: 1,  # a scoring worker process died without a result
    OutputError: 2,  # like an unusable --out that the flag check catches
    GraphFormatError: 3,  # malformed input, an empty input path, or a field TSV cannot hold
    HarnessError: 3,
    GraphValidationError: 4,  # well-formed input violating an invariant/precondition
    PairingError: 5,  # corpora that cannot be paired
}


def _fmt(x: Fraction) -> str:
    """``x`` to four decimals: the exact value rounded half to even, with
    its sign kept, so a value in [-0.00005, 0) prints ``-0.0000``."""
    q = round(abs(x) * 10000)
    return f"{'-' if x < 0 else ''}{q // 10000}.{q % 10000:04d}"


def _triple_dict(t: ScoreTriple) -> dict:
    """``t`` with its scores formatted, in ``ScoreTriple`` field order."""
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


def _tsv_field(column: str, value) -> str:
    """``value`` as one TSV field: a list comma-joined, anything else by
    ``str``.  A field holding a tab or a line break would split its row, so
    it raises instead."""
    text = ",".join(value) if isinstance(value, list) else str(value)
    if "\t" in text or "".join(text.splitlines()) != text:
        raise GraphFormatError(
            f"TSV column {column!r} cannot hold {text!r}, which contains a tab "
            "or a line break; use --format json-lines"
        )
    return text


def _write_report(args: argparse.Namespace, header: list[str], rows: list[list],
                  records: list[dict] | None = None) -> None:
    """Write the report to ``args.out``, or to standard output when it is
    None.  As TSV it is ``header`` and then ``rows``; as JSON lines it is
    ``records``, by default one object per row keyed by ``header``.  The
    text is encoded before the file is opened, so a report that cannot be
    encoded leaves no file.  A write that fails, to either, raises
    ``OutputError``."""
    if args.format == "json-lines":
        if records is None:
            records = [dict(zip(header, row)) for row in rows]
        lines = [json.dumps(record, sort_keys=True) for record in records]
    else:
        lines = ["\t".join(_tsv_field(column, value) for column, value in zip(header, row))
                 for row in [header, *rows]]
    _write_text("\n".join(lines) + "\n", args.out)


def _write_text(text: str, out: str | None = None) -> None:
    """Write ``text`` to the file ``out``, or to standard output when it is
    None, and flush it.  A write that fails, to either, raises
    ``OutputError``."""
    try:
        if out is not None:
            Path(out).write_bytes(text.encode("utf-8"))
        elif sys.stdout is None:  # descriptor 1 was closed at startup
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        where = "standard output" if out is None else out
        raise OutputError(f"cannot write {where}: {exc.strerror}") from exc


def _warn(text: str) -> None:
    """Write ``text`` to standard error and flush it.  Text that cannot be
    written is lost: when descriptor 2 was closed at startup (``sys.stderr``
    is None), or when the write fails."""
    if sys.stderr is not None:
        try:
            print(text, end="", file=sys.stderr, flush=True)
        except OSError:
            pass


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
    try:
        if path.is_dir():
            raise argparse.ArgumentTypeError(f"{text!r} is a directory")
        if not path.parent.is_dir():
            raise argparse.ArgumentTypeError(f"the directory of {text!r} does not exist")
    except OSError as exc:  # a name too long for the file system, say
        raise argparse.ArgumentTypeError(f"{text!r}: {exc.strerror}") from None
    return text


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("tsv", "json-lines"), default="tsv",
        help="report format (default: tsv)",
    )
    parser.add_argument(
        "--no-remote", action="store_true",
        help="exclude remote edges from all counts (default: included)",
    )
    parser.add_argument(
        "--out", type=_output_path, default=None, metavar="PATH",
        help="write the report here (default: standard output)",
    )


def _add_alignment_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--lowercase", action="store_true",
        help="lowercase tokens before comparison (default: case-sensitive)",
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


# -- subcommands -----------------------------------------------------------


def cmd_score(args: argparse.Namespace) -> int:
    g_s = load_graph(args.source)
    g_c = load_graph(args.correction)
    report = usim(g_s, g_c, **_score_kwargs(args))
    _write_report(
        args,
        ["direction", *ScoreTriple._fields],
        [[name, *_triple_dict(t).values()]
         for name, t in (("s_to_c", report.s_to_c), ("c_to_s", report.c_to_s))]
        + [["average", _fmt(report.average)]],
        [_report_dict(g_s.id, report)],
    )
    return EXIT_OK


def _paired_corpora(source_path: str, correction_path: str):
    sources = read_corpus(source_path)
    corrections = read_corpus(correction_path)
    shared = sorted(set(sources) & set(corrections))
    only_s = sorted(set(sources) - set(corrections))
    only_c = sorted(set(corrections) - set(sources))
    for pair_id in only_s:
        _warn(f"warning: id {pair_id!r} present only in source corpus\n")
    for pair_id in only_c:
        _warn(f"warning: id {pair_id!r} present only in correction corpus\n")
    if not shared:
        raise PairingError("no graph ids shared between the two corpora")
    return [(pair_id, sources[pair_id], corrections[pair_id]) for pair_id in shared]


# The cgroup file system, where the CPU quota of this process is read.
_CGROUP = Path("/sys/fs/cgroup")


def _cpu_quota() -> int | None:
    """The CPUs that this process's cgroup CPU quota allows, rounded up: the
    quota over the period in cgroup v2 ``cpu.max``, else in v1
    ``cpu/cpu.cfs_quota_us`` and ``cpu/cpu.cfs_period_us``.  None when there
    is no quota (``max`` in v2, -1 in v1) or no file that can be read and
    parsed."""
    for names in (["cpu.max"], ["cpu/cpu.cfs_quota_us", "cpu/cpu.cfs_period_us"]):
        try:
            text = b" ".join((_CGROUP / name).read_bytes() for name in names)
            quota, period = map(int, text.split())
        except FileNotFoundError:
            continue
        except (OSError, ValueError):  # unreadable, "max", or malformed
            return None
        return -(-quota // period) if quota > 0 and period > 0 else None
    return None


def _usable_cpus() -> int:
    """The number of CPUs this process may run on: its CPU affinity count,
    bounded by its cgroup CPU quota."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        cpus = os.cpu_count() or 1
    quota = _cpu_quota()
    return cpus if quota is None else min(cpus, quota)


def _shards(costs: list[int], jobs: int) -> list[list[int]]:
    """Item indices in ``min(jobs, len(costs))`` shards (at least one) of
    about equal total cost.  Greedy longest-first: each item goes to the
    shard with the least cost so far, then the fewest items, then the lowest
    index, so no shard is empty unless there are no items.  Each shard lists
    its items in item order."""
    shards: list[list[int]] = [[] for _ in range(max(1, min(jobs, len(costs))))]
    loads = [0] * len(shards)
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        k = min(range(len(shards)), key=lambda k: (loads[k], len(shards[k])))
        shards[k].append(i)
        loads[k] += costs[i]
    return [sorted(shard) for shard in shards]


def _run_items(work, shard: list[int]):
    """``work(i)`` for each item ``i`` of ``shard`` in order, up to the first
    that raises, as ``(results, failure)``: the results by item index, and
    ``(i, exception)`` for the item that raised, otherwise None."""
    results = {}
    for i in shard:
        try:
            results[i] = work(i)
        except Exception as exc:
            return results, (i, exc)
    return results, None


def _fork_worker(work, shard: list[int]) -> tuple[int, BinaryIO] | None:
    """Fork a child that writes the pickled ``_run_items(work, shard)`` to
    a pipe.  Returns the child's pid and the pipe's read end, opened, or
    None when the pipe or the fork fails, with no descriptor left open.
    Forking is safe because the commands start no threads."""
    import pickle  # here, not at the top: only runs that fork pay for it

    try:
        read_end, write_end = os.pipe()
    except OSError:  # at the file descriptor limit, say
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:
        # The child leaves only through os._exit, so it never runs the
        # caller's exit handlers or flushes stdio buffers it inherited.
        status = 1
        try:
            os.close(read_end)
            data = pickle.dumps(_run_items(work, shard))
            with open(write_end, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, open(read_end, "rb")


def _collect(workers: list[tuple[int, BinaryIO]]):
    """The ``_run_items`` result that the first of ``workers`` sent.  The
    pipe is read to EOF before the wait, so a result larger than the pipe
    buffer cannot leave the child blocked on its write.  The worker leaves
    ``workers`` when it is reaped, so ``workers`` holds exactly the children
    still to reap."""
    import pickle

    pid, pipe = workers[0]
    with pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    del workers[0]
    if status or not data:
        code = os.waitstatus_to_exitcode(status)
        how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
        raise WorkerError(
            f"scoring worker {pid} ended with wait status {status} ({how}) "
            "without sending its reports"
        )
    return pickle.loads(data)


def _run_shards(costs: list[int], jobs: int, work) -> list:
    """``work(i)`` of every item ``i``, in item order.

    The items are split by ``_shards`` into ``jobs`` shards (one where
    ``os.fork`` is missing), each run by ``_run_items``.  This process runs
    the first shard and a forked child each other one; once a pipe or a
    fork fails, this process runs the rest too.  Each shard stops at its
    first failing item, so the lowest item that fails in any shard is the
    first that fails in item order; its exception is raised, and the
    results and the error are the same for every ``jobs``."""
    shards = _shards(costs, jobs if hasattr(os, "fork") else 1)
    local = shards[:1]
    workers: list[tuple[int, BinaryIO]] = []
    try:
        for j, shard in enumerate(shards[1:], start=1):
            worker = _fork_worker(work, shard)
            if worker is None:
                local += shards[j:]
                break
            workers.append(worker)
        outcomes = [_run_items(work, shard) for shard in local]
        while workers:
            outcomes.append(_collect(workers))
    finally:
        if workers:  # only when this process failed: stop and reap the rest
            import signal

            for pid, pipe in workers:
                os.kill(pid, signal.SIGKILL)
                pipe.close()
                os.waitpid(pid, 0)
    failures = [failure for _, failure in outcomes if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = {}
    for shard_results, _ in outcomes:
        results.update(shard_results)
    return [results[i] for i in range(len(costs))]


def cmd_corpus(args: argparse.Namespace) -> int:
    pairs = _paired_corpora(args.source, args.correction)
    kwargs = _score_kwargs(args)
    costs = [len(g_s.tokens) * len(g_c.tokens) for _, g_s, g_c in pairs]
    reports = _run_shards(costs, args.jobs, lambda i: usim(*pairs[i][1:], **kwargs))
    ids = [pair_id for pair_id, _, _ in pairs]
    n = len(reports)
    agg = [_fmt(sum(column) / n) for column in zip(*map(_pair_values, reports))]
    _write_report(
        args,
        _PAIR_COLUMNS,
        [[pair_id, *map(_fmt, _pair_values(r))] for pair_id, r in zip(ids, reports)]
        + [["<aggregate>", *agg]],
        [*map(_report_dict, ids, reports),
         {"aggregate": True, "pairs": n, **dict(zip(_PAIR_COLUMNS[1:], agg))}],
    )
    return EXIT_OK


def _load_groups(path: str) -> list[tuple[str, frozenset[str]]]:
    doc = parse_json(read_utf8(path, GraphFormatError), GraphFormatError, f"groups file {path}")
    if not isinstance(doc, dict) or not all(
            isinstance(k, str) and is_str_list(v) for k, v in doc.items()):
        raise GraphFormatError(
            f"groups file {path}: expected an object mapping names to label lists"
        )
    return [(name, frozenset(labels)) for name, labels in doc.items()]


def cmd_distsim(args: argparse.Namespace) -> int:
    pairs = _paired_corpora(args.source, args.correction)
    groups = None if args.groups is None else _load_groups(args.groups)
    rows = distsim(
        [(g_s, g_c) for _, g_s, g_c in pairs],
        groups=groups,
        include_remote=not args.no_remote,
    )
    _write_report(
        args,
        ["group", "labels", "distance", "similarity"],
        [[row.name, sorted(row.labels), _fmt(row.value), _fmt(row.similarity)]
         for row in rows],
    )
    return EXIT_OK


def cmd_maege_gen(args: argparse.Namespace) -> int:
    chains = build_chains(args.edit_corpus, args.seed, args.pin_source)
    _write_text(manifest_text(chains), args.out)
    return EXIT_OK


def cmd_maege_score(args: argparse.Namespace) -> int:
    chains = load_manifest(args.manifest)
    kwargs = _score_kwargs(args)
    costs = [
        sum(len(chain.versions[chain.source_index]) * len(tokens) for tokens in chain.versions)
        for chain in chains
    ]
    scores = _run_shards(
        costs, _usable_cpus(),
        lambda c: chain_scores(chains[c], load_chain_graphs(args.graphs, chains[c]), **kwargs),
    )
    _write_report(
        args,
        ["type", "delta_mean", "occurrences"],
        [[td.edit_type, _fmt(td.delta_mean), td.occurrences]
         for td in type_deltas(chains, scores)],
    )
    return EXIT_OK


# -- parser ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that writes as the commands do: help through
    ``_write_text`` to standard output, usage and error text through
    ``_warn``.  Its subparsers are of this class too."""

    def print_help(self, file=None) -> None:
        _write_text(self.format_help())

    def print_usage(self, file=None) -> None:
        _warn(self.format_usage())

    def exit(self, status=0, message=None):
        if message:
            _warn(message)
        sys.exit(status)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="semfaith",
        description="Reference-less semantic faithfulness scoring between "
        "source and correction semantic graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="score one source/correction graph pair")
    p.add_argument("source", help="source graph document")
    p.add_argument("correction", help="correction graph document")
    _add_common_flags(p)
    _add_alignment_flags(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("corpus", help="score two corpora paired by graph id")
    p.add_argument("source", help="source corpus (directory or .jsonl)")
    p.add_argument("correction", help="correction corpus (directory or .jsonl)")
    _add_common_flags(p)
    _add_alignment_flags(p)
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
    _add_alignment_flags(s)
    s.set_defaults(func=cmd_maege_score)

    return parser


# The arguments that name an input file or directory.  An empty one would
# be Path(""), the current directory.
_INPUT_PATHS = ("source", "correction", "edit_corpus", "manifest", "graphs", "groups")


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for name in _INPUT_PATHS:
            if getattr(args, name, None) == "":
                raise GraphFormatError(f"cannot read {name.replace('_', ' ')}: the path is empty")
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        _warn(f"error: {exc}\n")
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))


def run() -> None:
    """The process entry of the ``semfaith`` command: ``os._exit`` with the
    exit code of ``main()``, or of argparse's ``SystemExit``, which skips
    interpreter teardown.  Nothing is lost by that: ``_write_report`` and
    the help flush standard output, ``_warn`` flushes standard error, the
    package registers no exit handler, and every file it opens is closed
    before ``main`` returns.  What a failed write left in a buffer is
    dropped, where teardown would try it again and exit 120.  Any other
    exception leaves ``main`` as usual."""
    try:
        code = main()
    except SystemExit as exc:  # argparse: 0 after the help, 2 on a bad flag
        code = exc.code
    os._exit(code)


if __name__ == "__main__":
    run()
