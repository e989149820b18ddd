#!/usr/bin/env python3
"""The semfaith benchmark: three seeded workloads through the real CLI.

    python3 bench/run.py                        # every workload, end-to-end metrics
    python3 bench/run.py --workload corpus-deep --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload maege-chains --trace 1   # traced replay
    python3 bench/run.py --workload corpus-long --record-expected

Run it from anywhere; it measures the checkout it lives in.  The package is
run from ``src/`` (``python -m semfaith.cli`` with ``PYTHONPATH=src``), never
from an installed copy, and everything is written under ``bench/.work/``.

``--trace 0`` runs the workload's CLI command in fresh processes for
``--seconds`` and reports ``items_per_s``, ``setup_s`` and ``peak_rss_mb``
(medians over the run).  ``--trace 1`` replays the workload in-process with
spans around the public calls of each module (see ``replay.py``) and reports
the per-layer metrics.  Both print a table of every metric with its unit and,
as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``fail_ratio`` is ``failed / attempted``.  An item (a pair, or a maege
version) fails when its output row is missing, when an identity pair does
not read 1.0000 in all seven columns, when a maege edit type's occurrences
differ from the counts the generator wrote, when its row differs between
invocations, or, at the default seed, when its row differs from
``bench/expected/<workload>.tsv``.  A non-zero exit of the CLI fails every
item of that invocation.  The command exits non-zero when any item fails.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
EXPECTED = BENCH / "expected"
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402  (benchmark-owned input generator)

DEFAULT_SEED = 0
SETUP_PROBES = 10
MIN_INVOCATIONS = 3
CHILD_TIMEOUT_S = 150
CORPUS_HEADER = "id\ts_to_c_p\ts_to_c_r\ts_to_c_f\tc_to_s_p\tc_to_s_r\tc_to_s_f\taverage"
MAEGE_HEADER = "type\tdelta_mean\toccurrences"
IDENTITY_VALUES = "\t".join(["1.0000"] * 7)
MAEGE_FLAGS = ["--lowercase", "--max-norm-dist", "0.6"]
MAEGE_SCORING = {"lowercase": True, "max_norm_dist": 0.6}  # the same, as usim keywords

END_TO_END = {
    "items_per_s": "items/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


# -- the checkout under test -----------------------------------------------


def import_checkout():
    """Import ``semfaith`` from this checkout's ``src/`` and prove it."""
    if not (SRC / "semfaith" / "__init__.py").is_file():
        raise BenchError(f"no src/semfaith package in {ROOT}")
    sys.path.insert(0, str(SRC))
    import semfaith

    if ROOT not in Path(semfaith.__file__).resolve().parents:
        raise BenchError(f"imported {semfaith.__file__}, which is outside {ROOT}")
    return semfaith


def environment() -> dict:
    import numpy
    import scipy

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            if done.returncode == 0:
                sha = done.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def child_env(**extra: str) -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC), **extra}


def run_child(argv: list[str], log: Path, stdout: Path | None = None,
              env: dict | None = None) -> tuple[int, float, float]:
    """Run one process to exit.  Returns (exit code, wall seconds, peak RSS
    in MiB); the RSS comes from ``os.wait4`` on this child alone."""
    with open(log, "ab") as err, open(stdout or os.devnull, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env or child_env())
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "semfaith.cli", *args]


# -- inputs ----------------------------------------------------------------


def snapshot(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def generate(workload: str, seed: int, work: Path) -> tuple[Path, dict]:
    """Run the generator under two ``PYTHONHASHSEED`` values and require
    byte-identical files."""
    outs = []
    for hash_seed in ("0", "1"):
        out = work / f"inputs-hashseed{hash_seed}"
        argv = [sys.executable, str(BENCH / "gen.py"), "--workload", workload,
                "--seed", str(seed), "--out", str(out)]
        code, _, _ = run_child(argv, work / "stderr.log",
                               env=child_env(PYTHONHASHSEED=hash_seed))
        if code != 0:
            raise BenchError(f"input generator exited with {code}; see {work / 'stderr.log'}")
        outs.append(out)
    if snapshot(outs[0]) != snapshot(outs[1]):
        raise BenchError("generated inputs differ between PYTHONHASHSEED values")
    return outs[0], json.loads((outs[0] / "meta.json").read_text(encoding="utf-8"))


def prepare(workload: str, seed: int, inputs: Path, work: Path) -> dict:
    """The workload's measured CLI arguments and its set-up probe arguments.
    For maege-chains this runs ``maege gen`` and the stand-in parser first
    (untimed)."""
    if workload != "maege-chains":
        src, cor = str(inputs / "source.jsonl"), str(inputs / "correction.jsonl")
        jobs = "2" if workload == "corpus-long" else "1"
        return {"command": ["corpus", src, cor, "--jobs", jobs],
                "sequential": ["corpus", src, cor, "--jobs", "1"],
                "probe": ["corpus", src, cor], "scoring": {}}
    manifest, graphs = work / "manifest.json", work / "graphs"
    argv = cli("maege", "gen", str(inputs / "edits.jsonl"), "--seed", str(seed),
               "--out", str(manifest))
    code, _, _ = run_child(argv, work / "stderr.log")
    if code != 0:
        raise BenchError(f"maege gen exited with {code}; see {work / 'stderr.log'}")
    gen.parse_manifest(manifest, graphs)
    command = ["maege", "score", str(manifest), str(graphs), *MAEGE_FLAGS]
    return {"command": command, "sequential": command,
            "probe": ["maege", str(manifest), str(graphs)], "scoring": MAEGE_SCORING,
            "manifest": manifest, "graphs": graphs}


# -- correctness gate ------------------------------------------------------


def table_rows(text: str | None, header: str) -> dict[str, str] | None:
    """Rows keyed by their first column; None if the output is malformed."""
    if text is None:
        return None
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return None
    return {line.split("\t", 1)[0]: line for line in lines[1:]}


def failed_items(workload: str, meta: dict, text: str | None,
                 reference: str | None, expected: str | None) -> int:
    """Items of one output that fail the gate.  ``reference`` is an earlier
    output of the same inputs; ``expected`` the recorded default-seed output."""
    header = MAEGE_HEADER if workload == "maege-chains" else CORPUS_HEADER
    rows = table_rows(text, header)
    if rows is None:
        return meta["items"]
    others = [r for r in (table_rows(reference, header), table_rows(expected, header))
              if r is not None]

    def bad(key: str) -> bool:
        row = rows.get(key)
        return row is None or any(row != other.get(key) for other in others)

    if workload != "maege-chains":
        identity = set(meta["identity"])
        failed = sum(
            1 for pid in meta["pairs"]
            if bad(pid) or (pid in identity and rows[pid] != f"{pid}\t{IDENTITY_VALUES}")
        )
    else:
        # items are versions, but the report has one row per edit type, built
        # from every version: one wrong row fails them all
        counts = meta["type_counts"]
        if set(rows) != set(counts) or any(
                bad(edit_type) or rows[edit_type].split("\t")[2] != str(count)
                for edit_type, count in counts.items()):
            return meta["items"]
        failed = 0
    # outputs must be byte-identical: a difference in row order or in the
    # aggregate line, which no single item owns, fails every item
    for other in others:
        if list(other) != list(rows) or (not failed and other != rows):
            return meta["items"]
    return failed


def expected_output(workload: str, seed: int) -> str | None:
    if seed != DEFAULT_SEED:
        return None
    path = EXPECTED / f"{workload}.tsv"
    if not path.is_file():
        raise BenchError(f"missing recorded output {path}")
    return path.read_text(encoding="utf-8")


# -- end-to-end run --------------------------------------------------------


def probe_setup(spec: dict, work: Path) -> float:
    """Wall seconds of one set-up probe in a fresh process."""
    out = work / "probe.out"
    argv = [sys.executable, str(BENCH / "load_inputs.py"), *spec["probe"]]
    code, wall, _ = run_child(argv, work / "stderr.log", stdout=out)
    if code != 0:
        raise BenchError(f"set-up probe exited with {code}; see {work / 'stderr.log'}")
    module = Path(out.read_text(encoding="utf-8").strip()).resolve()
    if ROOT not in module.parents:
        raise BenchError(f"set-up probe imported {module}, outside {ROOT}")
    return wall


def end_to_end(workload: str, seed: int, seconds: int, meta: dict, spec: dict,
               work: Path) -> tuple[dict, int, int]:
    """CLI runs until ``seconds`` have passed.  Set-up probes are spread over
    the same window (probe k is due at k/SETUP_PROBES of it), so the two
    medians sample the same phases of the machine."""
    probe_setup(spec, work)  # untimed warm-up: compiles bytecode
    expected = expected_output(workload, seed)
    out = work / "out.tsv"
    setup, rates, rss, attempted, failed = [], [], [], 0, 0
    reference = None
    start = time.perf_counter()
    while len(rates) < MIN_INVOCATIONS or time.perf_counter() < start + seconds:
        while (len(setup) < SETUP_PROBES
               and time.perf_counter() - start >= len(setup) * seconds / SETUP_PROBES):
            setup.append(probe_setup(spec, work))
        out.unlink(missing_ok=True)
        code, wall, peak = run_child(cli(*spec["command"], "--out", str(out)),
                                     work / "stderr.log")
        text = out.read_text(encoding="utf-8") if code == 0 and out.is_file() else None
        attempted += meta["items"]
        failed += failed_items(workload, meta, text, reference, expected)
        reference = reference or text
        rates.append(meta["items"] / wall)
        rss.append(peak)
    while len(setup) < SETUP_PROBES:
        setup.append(probe_setup(spec, work))
    values = {
        "items_per_s": statistics.median(rates),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    notes = (f"{len(rates)} CLI runs of {meta['items']} items; "
             f"{len(setup)} set-up probes; medians")
    return {"metrics": metrics, "notes": notes}, attempted, failed


# -- command line ----------------------------------------------------------


def declared_metrics(trace: bool) -> dict[str, str]:
    """name -> unit, as BENCHMARK.json declares them for this mode."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def print_table(workload: str, rows: dict[str, dict]) -> None:
    for name, metric in rows.items():
        print(f"{workload:<13} {name:<32} {metric['value']:>16.6f}  {metric['unit']}")


def run_workload(workload: str, seed: int, seconds: int, trace: bool, env: dict) -> bool:
    work = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs, meta = generate(workload, seed, work)
    spec = prepare(workload, seed, inputs, work)
    print(f"# {workload}: {meta['why']}")
    if trace:
        import replay

        result, attempted, failed = replay.run(
            workload, seed, inputs, meta, spec, work, env,
            check=lambda text, reference=None: failed_items(
                workload, meta, text, reference, expected_output(workload, seed)),
        )
    else:
        result, attempted, failed = end_to_end(workload, seed, seconds, meta, spec, work)
    metrics = result["metrics"]
    declared = declared_metrics(trace)
    if {n: m["unit"] for n, m in metrics.items()} != declared:
        raise BenchError("reported metrics do not match BENCHMARK.json")
    print(f"# {result['notes']}")
    print_table(workload, {**metrics, **result.get("extra", {})})
    print_table(workload, {"fail_ratio": {"value": failed / attempted, "unit": "ratio"}})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return failed == 0


def record_expected(workload: str) -> None:
    """Write bench/expected/<workload>.tsv from the CLI at the default seed
    (corpus-long sequentially, so its --jobs 2 runs are held to it)."""
    work = WORK / f"{workload}-record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs, _ = generate(workload, DEFAULT_SEED, work)
    spec = prepare(workload, DEFAULT_SEED, inputs, work)
    EXPECTED.mkdir(exist_ok=True)
    out = EXPECTED / f"{workload}.tsv"
    code, _, _ = run_child(cli(*spec["sequential"], "--out", str(out)), work / "stderr.log")
    if code != 0:
        raise BenchError(f"CLI exited with {code}; see {work / 'stderr.log'}")
    print(f"wrote {out}")


def main() -> int:
    parser = argparse.ArgumentParser(description="semfaith benchmark")
    parser.add_argument("--workload", choices=[*gen.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30,
                        help="measuring time per workload with --trace 0 (default: 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true",
                        help="record the default-seed CLI output that the gate compares to")
    args = parser.parse_args()
    workloads = list(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        import_checkout()
        if args.record_expected:
            for workload in workloads:
                record_expected(workload)
            return 0
        env = environment()
        print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
        ok = True
        for workload in workloads:
            ok = run_workload(workload, args.seed, args.seconds, bool(args.trace), env) and ok
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
