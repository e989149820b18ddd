"""Acceptance gate: one test per release criterion, each printing a
pass/fail line with its runtime.  All comparisons are exact rational
arithmetic unless a tolerance is stated in the test."""
from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction

from fig1 import fig1_correction, fig1_source
from helpers_build import (
    WORDS,
    add_random_remotes,
    brute_min_assignment_cost,
    graph_from_nested,
    merge_edits_order_free,
    parseval_fscore,
    random_tree_graph,
    random_valid_graph,
)
from semfaith import (
    align_leaves,
    build_chain,
    compute_deltas,
    dag_fscore,
    distsim,
    edit_distance,
    emit_manifest,
    graph_to_dict,
    parse_graph,
    usim,
    usim_from_alignment,
    version_id,
    yield_of,
)
from semfaith.cli import main as cli_main
from semfaith.harness import apply_edits_in_order
from test_harness import random_edits, raw_edit_deltas, toy_parse


class timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def report(number, name, ok, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} [{elapsed:.2f}s]")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_worked_example_golden():
    """The hand-encoded worked-example pair reproduces the published 7/9 and
    7/7 matched-edge ratios.

    Documented discrepancy: the published example attaches "Precision" to
    7/9 and "Recall" to 7/7, while the measure's definition puts precision
    over the correction's edges and recall over the source's.  Under that
    definition our encoding yields recall 7/9 and precision 7/7; the counts
    agree exactly, with the two labels swapped.
    """
    with timer() as t:
        triple = usim(fig1_source(), fig1_correction()).s_to_c
        ok = (
            (triple.matched_reference, triple.reference_count) == (7, 9)
            and (triple.matched_candidate, triple.candidate_count) == (7, 7)
            and triple.recall == Fraction(7, 9)
            and triple.precision == Fraction(7, 7)
        )
    assert t.elapsed < 1.0
    report(1, "worked-example golden", ok, t.elapsed)


def test_criterion_2_collapse_to_parseval():
    rng = random.Random(2024)
    with timer() as t:
        ok = True
        for _ in range(200):
            tokens = [rng.choice(WORDS) for _ in range(rng.randint(1, 12))]
            g1 = random_tree_graph(rng, "p", tokens=tokens)
            g2 = random_tree_graph(rng, "p", tokens=tokens)
            p, r, f = parseval_fscore(g1, g2)
            triple = dag_fscore(g1, g2)
            if (triple.precision, triple.recall, triple.f_score) != (p, r, f):
                ok = False
                break
    assert t.elapsed < 10.0
    report(2, "collapse to labeled-bracket F on trees", ok, t.elapsed)


def test_criterion_3_collapse_to_dag_fscore():
    rng = random.Random(31337)
    with timer() as t:
        ok = True
        for _ in range(200):
            tokens = [rng.choice(WORDS) for _ in range(rng.randint(1, 10))]
            g1 = add_random_remotes(rng, random_tree_graph(rng, "p", tokens=tokens))
            g2 = add_random_remotes(rng, random_tree_graph(rng, "p", tokens=tokens))
            same_yield = {
                (u.id, v.id)
                for u in g1.nodes
                for v in g2.nodes
                if yield_of(g1, u.id) == yield_of(g2, v.id)
            }
            t_usim = usim_from_alignment(g1, g2, same_yield)
            t_dag = dag_fscore(g2, g1)  # usim's precision side is the 2nd arg
            if (t_usim.precision, t_usim.recall, t_usim.f_score) != (
                t_dag.precision, t_dag.recall, t_dag.f_score,
            ):
                ok = False
                break
    assert t.elapsed < 10.0
    report(3, "same-yield alignment collapses to DAG F", ok, t.elapsed)


def test_criterion_4_assignment_oracle():
    rng = random.Random(99)
    with timer() as t:
        ok = True
        for _ in range(500):
            n, m = rng.randint(0, 8), rng.randint(0, 8)
            src = [rng.choice(WORDS) for _ in range(n)]
            dst = [rng.choice(WORDS) for _ in range(m)]
            got = align_leaves(src, dst)
            cost = sum(edit_distance(src[i], dst[j]) for i, j in got.pairs)
            if cost != brute_min_assignment_cost(src, dst) or len(got.pairs) != min(n, m):
                ok = False
                break
    assert t.elapsed < 30.0
    report(4, "assignment cost equals exhaustive minimum", ok, t.elapsed)


def test_criterion_5_identity_suite():
    rng = random.Random(555)
    with timer() as t:
        ok = True
        graphs = [random_valid_graph(rng, f"g{i}") for i in range(100)]
        for g in graphs:
            if usim(g, g).average != 1:
                ok = False
                break
            triple = dag_fscore(g, g)
            if (triple.precision, triple.recall, triple.f_score) != (1, 1, 1):
                ok = False
                break
        if ok:
            rows = distsim([(g, g) for g in graphs])
            ok = all(row.value == 0 for row in rows)
    assert t.elapsed < 5.0
    report(5, "identity suite", ok, t.elapsed)


def _scene_pair_graphs(i: int):
    """One source plus a meaning-preserving fix and two unfaithful rewrites."""
    subj = WORDS[i % len(WORDS)]
    noun = WORDS[(i + 3) % len(WORDS)]
    name = WORDS[(i + 7) % len(WORDS)]
    src_tokens = [subj, "gvae", "an", noun, "for", name]
    fix_tokens = [subj, "gave", "an", noun, "for", name]
    scene = lambda kids: ("z-root", [("H", ("scene", kids))])
    full = [
        ("A", 0), ("P", 1),
        ("A", ("np", [("E", 2), ("C", 3)])),
        ("A", ("pp", [("R", 4), ("C", 5)])),
    ]
    source = graph_from_nested("pair", src_tokens, scene(full))
    good = graph_from_nested("pair", fix_tokens, scene(full))
    if i % 2 == 0:
        # delete the full "for <name>" phrase
        bad_tokens = fix_tokens[:4]
        bad = graph_from_nested("pair", bad_tokens, scene([
            ("A", 0), ("P", 1), ("A", ("np", [("E", 2), ("C", 3)])),
        ]))
    else:
        # replace the object phrase with an unrelated content word
        bad_tokens = [subj, "gave", "something", "for", name]
        bad = graph_from_nested("pair", bad_tokens, scene([
            ("A", 0), ("P", 1), ("A", 2),
            ("A", ("pp", [("R", 3), ("C", 4)])),
        ]))
    return source, good, bad


def test_criterion_6_sensitivity_direction():
    with timer() as t:
        ok = True
        for i in range(20):
            source, good, bad = _scene_pair_graphs(i)
            if not usim(source, bad).average < usim(source, good).average:
                ok = False
                break
    report(6, "unfaithful rewrites score strictly lower", ok, t.elapsed)


def test_criterion_7_harness_conservation(tmp_path):
    rng = random.Random(777)
    with timer() as t:
        sentences = []
        for i in range(50):
            n = rng.randint(2, 9)
            tokens = [rng.choice(WORDS) for _ in range(n)]
            sentences.append((f"s{i:02d}", tokens, random_edits(rng, n)))

        chains = [build_chain(sid, toks, eds, seed=4242) for sid, toks, eds in sentences]

        # same master seed twice -> byte-identical manifests
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        emit_manifest(chains, m1)
        emit_manifest(
            [build_chain(sid, toks, eds, seed=4242) for sid, toks, eds in sentences],
            m2,
        )
        ok = m1.read_bytes() == m2.read_bytes()

        # final version is order-invariant, exhaustively over permutations
        for sid, toks, eds in sentences:
            expected = merge_edits_order_free(toks, eds)
            for order in itertools.permutations(range(len(eds))):
                if apply_edits_in_order(toks, eds, list(order))[-1] != expected:
                    ok = False

        # aggregation conserves the per-edit delta mass
        graphs = {}
        for chain in chains:
            for k, toks in enumerate(chain.versions):
                vid = version_id(chain.sentence_id, k)
                graphs[vid] = toy_parse(toks, vid)
        raw = raw_edit_deltas(chains, graphs)
        table = compute_deltas(chains, graphs)
        lhs = float(sum(td.delta_mean * td.occurrences for td in table))
        rhs = float(sum((d for _, d in raw), Fraction(0)))
        ok = ok and abs(lhs - rhs) <= 1e-12
    assert t.elapsed < 30.0
    report(7, "harness determinism and delta conservation", ok, t.elapsed)


def test_criterion_8_roundtrip_and_parallel_determinism(tmp_path):
    rng = random.Random(888)
    with timer() as t:
        graphs = [fig1_source(), fig1_correction()]
        graphs += [random_valid_graph(rng, f"g{i:02d}") for i in range(40)]
        ok = all(
            parse_graph(json.dumps(graph_to_dict(g), ensure_ascii=False, sort_keys=True)) == g
            for g in graphs
        )

        src_dir, cor_dir = tmp_path / "src", tmp_path / "cor"
        src_dir.mkdir()
        cor_dir.mkdir()
        for i in range(12):
            gid = f"p{i:02d}"
            g_s = random_valid_graph(rng, gid)
            g_c = random_valid_graph(rng, gid)
            (src_dir / f"{gid}.json").write_text(json.dumps(graph_to_dict(g_s)))
            (cor_dir / f"{gid}.json").write_text(json.dumps(graph_to_dict(g_c)))
        seq, par = tmp_path / "seq.tsv", tmp_path / "par.tsv"
        ok = ok and cli_main(["corpus", str(src_dir), str(cor_dir), "--out", str(seq)]) == 0
        ok = ok and cli_main([
            "corpus", str(src_dir), str(cor_dir), "--jobs", "6", "--out", str(par)
        ]) == 0
        ok = ok and seq.read_bytes() == par.read_bytes()
    report(8, "round-trip fixpoint and parallel determinism", ok, t.elapsed)
