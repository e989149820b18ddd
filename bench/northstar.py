#!/usr/bin/env python3
"""One-off reproduction of the baseline lines under ROADMAP aim 1: the time
of one ``usim`` pair at 10/40/50/100/200 tokens, and of one 3000-node
single-token chain compared with itself.  It is not a gated workload.

    python3 bench/northstar.py

Pairs have the token shape of the ROADMAP baseline: short English words
from a 20-word vocabulary, trees whose internal nodes take 2 to span-width
children, up to 2 remote edges per side, and a correction that replaces
about 15% of the source tokens and has a tree of its own.  Each pair is
timed until one second has passed (at least once) and the median is
printed.
"""
from __future__ import annotations

import random
import statistics
import sys
import time

import run
from gen import DEEP_WORDS, add_remotes, flat_tree, to_doc

SIZES = (10, 40, 50, 100, 200)
CHAIN_NODES = 3000


def time_usim(usim, g_s, g_c) -> tuple[float, int]:
    """Median seconds of one call, and the number of calls timed."""
    times: list[float] = []
    while not times or (sum(times) < 1.0 and len(times) < 25):
        start = time.perf_counter()
        usim(g_s, g_c)
        times.append(time.perf_counter() - start)
    return statistics.median(times), len(times)


def pair_docs(rng: random.Random, n: int) -> tuple[dict, dict]:
    words = [rng.choice(DEEP_WORDS) for _ in range(n)]
    fixed = [rng.choice(DEEP_WORDS) if rng.random() < 0.15 else w for w in words]
    docs = []
    for gid, tokens in ((f"n{n}", words), (f"n{n}", fixed)):
        tree = flat_tree(rng, tokens, max_kids=None)
        add_remotes(rng, tree, rng.randint(0, 2))
        docs.append(to_doc(gid, tree))
    return docs[0], docs[1]


def chain_doc(nodes: int) -> dict:
    """One token under ``nodes - 1`` unary internal nodes."""
    ids = [f"n{k:05d}" for k in range(nodes - 1)] + ["w0"]
    return {
        "id": "chain",
        "tokens": ["word"],
        "nodes": [{"id": i} for i in ids[:-1]] + [{"id": "w0", "anchor": 0}],
        "edges": [{"parent": a, "child": b, "labels": ["E"]} for a, b in zip(ids, ids[1:])],
        "root": ids[0],
    }


def main() -> int:
    try:
        semfaith = run.import_checkout()
    except run.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("# " + " ".join(f"{k}={v}" for k, v in run.environment().items()))
    rng = random.Random(f"semfaith-bench:northstar:{run.DEFAULT_SEED}")
    for n in SIZES:
        src, cor = pair_docs(rng, n)
        seconds, calls = time_usim(semfaith.usim, semfaith.graph_from_dict(src),
                                   semfaith.graph_from_dict(cor))
        print(f"usim pair, {n:>3} tokens: {seconds * 1e3:10.1f} ms  (median of {calls})")
    chain = semfaith.graph_from_dict(chain_doc(CHAIN_NODES))
    start = time.perf_counter()
    semfaith.usim(chain, chain)
    print(f"usim single-token chain, {CHAIN_NODES} nodes: "
          f"{time.perf_counter() - start:10.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
