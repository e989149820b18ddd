"""Traced in-process replay of one workload (``run.py --trace 1``).

The replay calls the public functions of each module of the package in the
order the pipeline runs them, and records a span around each call made from
here; no code inside the package is instrumented.  Per item (a corpus pair,
or a maege version against its chain's source) it runs ``usim`` once as the
reference, then the stages by hand::

    align_leaves -> extend_alignment (s_to_c) -> match_edges, usim_from_alignment
                 -> extend_alignment (c_to_s) -> match_edges, usim_from_alignment

and requires the two ``ScoreTriple``s and their average to equal ``usim``'s.
Counts are taken after each item's span has closed, so they cost the spans
nothing.  Spans (name, start, end, parent, item) stay in memory and are
written once, with the metrics, to ``trace.json`` in the run's directory.

A timing is reported as its total, its median and its 95th percentile
(nearest rank) with the sample count; the 95th percentile has ten samples
beyond it only from 200 samples up.
"""
from __future__ import annotations

import json
import math
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

from semfaith import cli
from semfaith.align import C_TO_S, S_TO_C, align_leaves, extend_alignment
from semfaith.graph import edge_instances, load_graph, read_corpus, yield_of
from semfaith.harness import (
    build_chain,
    compute_deltas,
    emit_manifest,
    load_manifest,
    read_edit_corpus,
    version_id,
)
from semfaith.measures import match_edges, usim, usim_from_alignment

EDGE_FLAGS = {"include_remote": True, "strict_parent": False}  # the CLI defaults


class Tracer:
    def __init__(self) -> None:
        self.enabled = True
        self.spans: list[list] = []  # [name, start, end, parent index, item]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, item: str | None = None):
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else None
        if item is None and parent is not None:
            item = self.spans[parent][4]
        record = [name, time.perf_counter(), None, parent, item]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def as_json(self) -> list[dict]:
        return [dict(zip(("name", "start", "end", "parent", "item"), s)) for s in self.spans]


def _m(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _timing(durations: list[float], total: str, p50: str, p95: str, samples: str) -> dict:
    ms = sorted(d * 1e3 for d in durations)
    return {
        total: _m(sum(durations), "s"),
        p50: _m(statistics.median(ms), "ms"),
        p95: _m(ms[math.ceil(0.95 * len(ms)) - 1], "ms"),
        samples: _m(len(ms), "count"),
    }


def positive_weight_pairs(g_a, g_t, token_map: dict[int, int]) -> int:
    """Node pairs (v, u) with positive yield-overlap weight, counted with
    token bit masks instead of ``node_weight``."""
    target_masks = [sum(1 << b for b in yield_of(g_t, n.id)) for n in g_t.nodes]
    count = 0
    for n in g_a.nodes:
        mask = 0
        for a in yield_of(g_a, n.id):
            b = token_map.get(a)
            if b is not None:
                mask |= 1 << b
        if mask:
            count += sum(1 for t in target_masks if t & mask)
    return count


def edge_instance_pairs(g_s, g_c, include_remote: bool) -> int:
    """Same-label (source, correction) instance pairs that match_edges scans."""
    per_label: dict[str, int] = {}
    for inst in edge_instances(g_c, include_remote):
        per_label[inst.label] = per_label.get(inst.label, 0) + 1
    return sum(per_label.get(inst.label, 0) for inst in edge_instances(g_s, include_remote))


class Replay:
    def __init__(self, tracer: Tracer, lowercase: bool = False,
                 max_norm_dist: float | None = None) -> None:
        self.tracer = tracer
        self.lowercase = lowercase
        self.max_norm_dist = max_norm_dist
        self.counts = dict.fromkeys(
            ("token_pairs", "node_pairs_scanned", "positive_weight_pairs",
             "edge_instance_pairs", "matched_edges"), 0)
        self.distinct: set[tuple[str, str]] = set()

    def item(self, item_id: str, g_s, g_c) -> bool:
        """Replay one pair; True when the stages reproduce ``usim``."""
        span = self.tracer.span
        stages = []
        with span("item", item_id):
            with span("measures.usim"):
                reference = usim(g_s, g_c, lowercase=self.lowercase,
                                 max_norm_dist=self.max_norm_dist, **EDGE_FLAGS)
            with span("align.align_leaves"):
                leaves = align_leaves(g_s.token_texts(), g_c.token_texts(),
                                      lowercase=self.lowercase,
                                      max_norm_dist=self.max_norm_dist)
            for direction, g_a, g_t in ((S_TO_C, g_s, g_c), (C_TO_S, g_c, g_s)):
                with span("align.extend_alignment"):
                    nodes = extend_alignment(g_a, g_t, leaves, direction)
                if direction == S_TO_C:
                    pairs = nodes.pair_set()
                else:
                    pairs = frozenset((s, c) for c, s in nodes.mapping)
                with span("measures.match_edges"):
                    matches = match_edges(g_s, g_c, pairs, **EDGE_FLAGS)
                with span("measures.usim_from_alignment"):
                    triple = usim_from_alignment(g_s, g_c, pairs, **EDGE_FLAGS)
                stages.append((g_a, g_t, matches, triple))
        if self.tracer.enabled:
            self._count(g_s, g_c, leaves, stages)
        s_to_c, c_to_s = stages[0][3], stages[1][3]
        return (s_to_c, c_to_s, (s_to_c.f_score + c_to_s.f_score) / 2) == (
            reference.s_to_c, reference.c_to_s, reference.average)

    def _count(self, g_s, g_c, leaves, stages) -> None:
        src = g_s.token_texts(self.lowercase)
        cor = g_c.token_texts(self.lowercase)
        self.counts["token_pairs"] += len(src) * len(cor)
        self.distinct.update((a, b) for a in set(src) for b in set(cor))
        token_maps = (leaves.source_to_correction(), leaves.correction_to_source())
        for (g_a, g_t, matches, _), token_map in zip(stages, token_maps):
            self.counts["node_pairs_scanned"] += len(g_a.nodes) * len(g_t.nodes)
            self.counts["positive_weight_pairs"] += positive_weight_pairs(g_a, g_t, token_map)
            self.counts["edge_instance_pairs"] += edge_instance_pairs(
                g_s, g_c, EDGE_FLAGS["include_remote"])
            self.counts["matched_edges"] += len(matches)


def _cli_pass(tracer: Tracer, argv: list[str], out: Path) -> tuple[str | None, float]:
    out.unlink(missing_ok=True)
    with tracer.span("cli.main"):
        code = cli.main([*argv, "--out", str(out)])
    text = out.read_text(encoding="utf-8") if code == 0 and out.is_file() else None
    return text, tracer.durations("cli.main")[-1]


def run(workload: str, seed: int, inputs: Path, meta: dict, spec: dict, work: Path,
        env: dict, check: Callable[..., int]) -> tuple[dict, int, int]:
    """Returns ({"metrics", "extra", "notes"}, attempted, failed); every
    check (CLI output, harness report, replay) attempts each item once."""
    tracer = Tracer()
    span = tracer.span
    extra: dict[str, dict] = {}
    attempted = failed = 0
    replay = Replay(tracer, **spec["scoring"])

    # graph (and, for maege-chains, harness) layers
    if workload == "maege-chains":
        manifest = work / "manifest-replay.json"
        with span("harness.gen"):
            records = read_edit_corpus(inputs / "edits.jsonl")
            chains = [build_chain(sid, tokens, edits, seed) for sid, tokens, edits in records]
            emit_manifest(chains, manifest)
        attempted += meta["items"]
        if manifest.read_bytes() != spec["manifest"].read_bytes():
            failed += meta["items"]  # the library and the CLI disagree
        with span("harness.load_manifest"):
            chains = load_manifest(spec["manifest"])
        graphs = {}
        for chain in chains:
            for k in range(len(chain.versions)):
                vid = version_id(chain.sentence_id, k)
                with span("graph.load_graph"):
                    graphs[vid] = load_graph(spec["graphs"] / f"{vid}.json")
        load_s = tracer.total("graph.load_graph") + tracer.total("harness.load_manifest")
        with span("harness.compute_deltas"):
            report = compute_deltas(chains, graphs, **spec["scoring"])
        occurrences = {td.edit_type: td.occurrences for td in report}
        attempted += meta["items"]
        if occurrences != meta["type_counts"]:
            failed += meta["items"]  # one report covers every version
        items = [
            (version_id(chain.sentence_id, k),
             graphs[version_id(chain.sentence_id, chain.source_index)],
             graphs[version_id(chain.sentence_id, k)])
            for chain in chains for k in range(len(chain.versions))
        ]
        loaded = list(graphs.values())
        extra.update({
            "harness.gen_s": _m(tracer.total("harness.gen"), "s"),
            "harness.versions": _m(len(items), "count"),
            "harness.manifest_bytes": _m(spec["manifest"].stat().st_size, "bytes"),
            "harness.compute_deltas_s": _m(tracer.total("harness.compute_deltas"), "s"),
            "harness.usim_calls": _m(sum(len(c.versions) for c in chains), "count"),
        })
    else:
        with span("graph.read_corpus"):
            sources = read_corpus(inputs / "source.jsonl")
        with span("graph.read_corpus"):
            corrections = read_corpus(inputs / "correction.jsonl")
        load_s = tracer.total("graph.read_corpus")
        items = [(pid, sources[pid], corrections[pid]) for pid in sorted(sources)]
        loaded = [*sources.values(), *corrections.values()]
    graph_s = tracer.total("graph.load_graph") + tracer.total("graph.read_corpus")

    # cli layer: the workload's command in-process; the score phase is the
    # command's time less the loading measured above
    out = work / "out-replay.tsv"
    text, main_s = _cli_pass(tracer, spec["command"], out)
    attempted += meta["items"]
    failed += check(text)
    score_s = main_s - load_s
    if workload == "corpus-long":
        sequential, main1_s = _cli_pass(tracer, spec["sequential"], out)
        attempted += meta["items"]
        failed += check(sequential, text)
        score1_s = main1_s - load_s
        extra.update({
            "cli.jobs_speedup": _m(score1_s / score_s, "ratio"),
            "cli.score_phase_jobs1_s": _m(score1_s, "s"),
            "cli.score_phase_jobs2_s": _m(score_s, "s"),
        })

    # align and measures layers: the stage-by-stage replay
    attempted += len(items)
    for item_id, g_s, g_c in items:
        if not replay.item(item_id, g_s, g_c):
            failed += 1
    tracer.enabled = False  # the same replay again, recording nothing
    start = time.perf_counter()
    for item_id, g_s, g_c in items:
        replay.item(item_id, g_s, g_c)
    untraced = time.perf_counter() - start
    tracer.enabled = True

    c = replay.counts
    tokens = sum(len(g.tokens) for g in loaded)
    metrics = {
        "graph.load_s": _m(graph_s, "s"),
        "graph.graphs": _m(len(loaded), "count"),
        "graph.nodes_per_token": _m(sum(len(g.nodes) for g in loaded) / tokens, "ratio"),
        **_timing(tracer.durations("align.align_leaves"), "align.align_leaves_s",
                  "align.align_leaves_ms_p50", "align.align_leaves_ms_p95",
                  "align.align_leaves_samples"),
        "align.token_pairs": _m(c["token_pairs"], "count"),
        "align.distinct_token_pairs": _m(len(replay.distinct), "count"),
        "align.distinct_pair_ratio": _m(len(replay.distinct) / c["token_pairs"], "ratio"),
        **_timing(tracer.durations("align.extend_alignment"), "align.extend_alignment_s",
                  "align.extend_ms_p50", "align.extend_ms_p95", "align.extend_samples"),
        "align.node_pairs_scanned": _m(c["node_pairs_scanned"], "count"),
        "align.positive_weight_pairs": _m(c["positive_weight_pairs"], "count"),
        "align.positive_weight_ratio": _m(
            c["positive_weight_pairs"] / c["node_pairs_scanned"], "ratio"),
        **_timing(tracer.durations("measures.usim"), "measures.usim_s",
                  "measures.usim_ms_p50", "measures.usim_ms_p95", "measures.usim_samples"),
        "measures.match_edges_s": _m(tracer.total("measures.match_edges"), "s"),
        "measures.edge_instance_pairs": _m(c["edge_instance_pairs"], "count"),
        "measures.matched_edges": _m(c["matched_edges"], "count"),
        "measures.stage_gap_s": _m(
            tracer.total("measures.usim") - tracer.total("align.align_leaves")
            - tracer.total("align.extend_alignment") - tracer.total("measures.match_edges"),
            "s"),
        "cli.score_phase_s": _m(score_s, "s"),
        "trace.overhead_ratio": _m(tracer.total("item") / untraced, "ratio"),
    }
    trace = {"workload": workload, "seed": seed, "environment": env,
             "metrics": {**metrics, **extra}, "spans": tracer.as_json()}
    (work / "trace.json").write_text(json.dumps(trace) + "\n", encoding="utf-8")
    notes = (f"{len(items)} items replayed, then again untraced; "
             f"{len(tracer.spans)} spans in {work / 'trace.json'}")
    return {"metrics": metrics, "extra": extra, "notes": notes}, attempted, failed
