from __future__ import annotations

import random
from fractions import Fraction

import pytest

from fig1 import fig1_correction, fig1_source
from helpers_build import (
    add_random_remotes,
    graph_from_nested,
    make_graph,
    parseval_fscore,
    random_tree_graph,
    random_valid_graph,
)
from semfaith import (
    C_TO_S,
    S_TO_C,
    TokenMismatchError,
    align_leaves,
    dag_fscore,
    distsim,
    edge_instances,
    match_edges,
    usim,
    usim_directed,
    usim_from_alignment,
    yield_of,
)


def brute_dag_counts(g1, g2):
    """Direct double loop over instance pairs (label + child-yield match)."""
    i1, i2 = edge_instances(g1), edge_instances(g2)
    m1 = sum(
        1
        for a in i1
        if any(
            a.label == b.label and yield_of(g1, a.child) == yield_of(g2, b.child)
            for b in i2
        )
    )
    m2 = sum(
        1
        for b in i2
        if any(
            a.label == b.label and yield_of(g1, a.child) == yield_of(g2, b.child)
            for a in i1
        )
    )
    return m1, len(i1), m2, len(i2)


def same_yield_relation(g1, g2):
    return {
        (u.id, v.id)
        for u in g1.nodes
        for v in g2.nodes
        if yield_of(g1, u.id) == yield_of(g2, v.id)
    }


# -- DAG F-score -----------------------------------------------------------


def test_dag_fscore_identity():
    g = fig1_source()
    t = dag_fscore(g, g)
    assert (t.precision, t.recall, t.f_score) == (1, 1, 1)


def test_dag_fscore_label_mismatch():
    g1 = make_graph("g", ["a"], [("r", None), ("w0", 0)],
                    [("r", "w0", {"A"})], "r")
    g2 = make_graph("g", ["a"], [("r", None), ("w0", 0)],
                    [("r", "w0", {"P"})], "r")
    t = dag_fscore(g1, g2)
    assert (t.precision, t.recall, t.f_score) == (0, 0, 0)


def test_dag_fscore_token_mismatch_rejected():
    with pytest.raises(TokenMismatchError):
        dag_fscore(fig1_source(), fig1_correction())


def test_dag_fscore_one_label_off():
    tokens = ["a", "b", "c"]
    nested1 = ("r", [("A", 0), ("P", 1), ("A", ("x", [("C", 2)]))])
    nested2 = ("r", [("A", 0), ("P", 1), ("A", ("x", [("E", 2)]))])
    g1 = graph_from_nested("g", tokens, nested1)
    g2 = graph_from_nested("g", tokens, nested2)
    t = dag_fscore(g1, g2)
    assert len(edge_instances(g1)) == 4
    assert t.precision == t.recall == t.f_score == Fraction(3, 4)
    assert brute_dag_counts(g1, g2) == (3, 4, 3, 4)


def test_dag_fscore_matches_bruteforce():
    rng = random.Random(17)
    for _ in range(40):
        tokens = [rng.choice("abcdef") for _ in range(rng.randint(1, 8))]
        g1 = random_tree_graph(rng, "p", tokens=tokens)
        g2 = random_tree_graph(rng, "p", tokens=tokens)
        m1, n1, m2, n2 = brute_dag_counts(g1, g2)
        t = dag_fscore(g1, g2)
        assert t.precision == Fraction(m1, n1)
        assert t.recall == Fraction(m2, n2)


def test_dag_fscore_direction_symmetry():
    rng = random.Random(29)
    for _ in range(25):
        tokens = [rng.choice("abcd") for _ in range(rng.randint(1, 7))]
        g1 = random_tree_graph(rng, "p", tokens=tokens)
        g2 = random_tree_graph(rng, "p", tokens=tokens)
        assert dag_fscore(g1, g2).precision == dag_fscore(g2, g1).recall


def test_dag_fscore_empty_conventions():
    empty1 = make_graph("e", [], [("r", None)], [], "r")
    empty2 = make_graph("e", [], [("r", None)], [], "r")
    t = dag_fscore(empty1, empty2)
    assert (t.precision, t.recall, t.f_score) == (1, 1, 1)
    withedge = make_graph("e", [], [("r", None), ("imp", None)],
                          [("r", "imp", {"A"})], "r")
    t = dag_fscore(empty1, withedge)
    assert (t.precision, t.recall, t.f_score) == (0, 0, 0)


def test_dag_fscore_collapses_to_parseval_on_trees():
    rng = random.Random(101)
    for _ in range(30):
        tokens = [rng.choice("abcdefgh") for _ in range(rng.randint(1, 10))]
        g1 = random_tree_graph(rng, "p", tokens=tokens)
        g2 = random_tree_graph(rng, "p", tokens=tokens)
        p, r, f = parseval_fscore(g1, g2)
        t = dag_fscore(g1, g2)
        assert (t.precision, t.recall, t.f_score) == (p, r, f)


# -- edge matching and USim ------------------------------------------------


def test_match_edges_identity():
    g = fig1_correction()
    identity = {(nid, nid) for nid in g.node_ids}
    matches = match_edges(g, g, identity)
    matched = {si for si, _ in matches}
    assert len(matched) == len(edge_instances(g))


def test_match_edges_empty_alignment():
    g = fig1_correction()
    assert match_edges(g, g, set()) == set()


def test_match_edges_fig1():
    from semfaith import align_leaves, extend_alignment

    g_s, g_c = fig1_source(), fig1_correction()
    a_l = align_leaves(g_s.token_texts(), g_c.token_texts())
    na = extend_alignment(g_s, g_c, a_l, S_TO_C)
    matches = match_edges(g_s, g_c, na.pair_set())
    matched_s = {si for si, _ in matches}
    labels_of_unmatched = {
        (si.label, si.child)
        for si in edge_instances(g_s)
        if si not in matched_s
    }
    # the R edge over the unaligned "for" and the C edge over "john"
    # (the correction-side edge into "John" is labeled A) have no match
    assert labels_of_unmatched == {("R", "w4"), ("C", "w5")}


def test_usim_directed_fig1_forward():
    t = usim_directed(fig1_source(), fig1_correction(), S_TO_C)
    # worked-example counts: 7 of 9 learner instances matched, 7 of 7
    # correction instances matched; precision here follows the body
    # definition (over the correction side), so the 7/9 ratio lands on recall
    assert (t.matched_reference, t.reference_count) == (7, 9)
    assert (t.matched_candidate, t.candidate_count) == (7, 7)
    assert t.precision == 1
    assert t.recall == Fraction(7, 9)
    assert t.f_score == Fraction(7, 8)


def test_usim_directed_fig1_backward():
    t = usim_directed(fig1_source(), fig1_correction(), C_TO_S)
    assert t.precision == Fraction(5, 7)
    assert t.recall == Fraction(5, 9)
    assert t.f_score == Fraction(5, 8)


def test_usim_directed_rejects_unknown_direction():
    with pytest.raises(ValueError):
        usim_directed(fig1_source(), fig1_correction(), "both")


def test_usim_directed_equals_usim_direction():
    rng = random.Random(67)
    for _ in range(10):
        g_s, g_c = random_valid_graph(rng, "s"), random_valid_graph(rng, "c")
        for options in ({}, {"lowercase": True, "max_norm_dist": 0.5},
                        {"include_remote": False, "strict_parent": True}):
            report = usim(g_s, g_c, **options)
            assert usim_directed(g_s, g_c, S_TO_C, **options) == report.s_to_c
            assert usim_directed(g_s, g_c, C_TO_S, **options) == report.c_to_s


def test_usim_directed_lifts_one_direction(monkeypatch):
    import semfaith.measures

    calls = []
    real = semfaith.measures.extend_alignment

    def counting(*args, **kwargs):
        calls.append(args[3])
        return real(*args, **kwargs)

    monkeypatch.setattr(semfaith.measures, "extend_alignment", counting)
    for direction in (S_TO_C, C_TO_S):
        calls.clear()
        usim_directed(fig1_source(), fig1_correction(), direction)
        assert calls == [direction]


def test_usim_fig1_average():
    rep = usim(fig1_source(), fig1_correction())
    assert rep.average == (rep.s_to_c.f_score + rep.c_to_s.f_score) / 2
    assert rep.average == Fraction(3, 4)


def test_usim_identity():
    rep = usim(fig1_source(), fig1_source())
    assert rep.s_to_c.f_score == 1
    assert rep.c_to_s.f_score == 1
    assert rep.average == 1


def test_usim_no_alignable_material():
    g1 = graph_from_nested("g", ["aaa", "bbb"], ("r", [("A", 0), ("P", 1)]))
    g2 = graph_from_nested("g", ["xyxy", "qqq"], ("r", [("A", 0), ("P", 1)]))
    rep = usim(g1, g2, max_norm_dist=0.3)
    assert rep.average == 0
    assert rep.s_to_c.f_score == 0


def test_usim_heavy_rewrite_scores_below_identity():
    source = fig1_source()
    deleted = graph_from_nested(
        "fig1", ["He", "gve", "an", "apple"],
        ("z-root", [("H", ("scene", [
            ("A", 0), ("P", 1), ("A", ("np", [("E", 2), ("C", 3)])),
        ]))]),
    )
    rewrite_score = usim(source, deleted).average
    assert rewrite_score < usim(source, source).average


def test_usim_collapses_to_dag_fscore_with_same_yield_alignment():
    rng = random.Random(53)
    for _ in range(30):
        tokens = [rng.choice("abcdef") for _ in range(rng.randint(1, 8))]
        g1 = add_random_remotes(rng, random_tree_graph(rng, "p", tokens=tokens))
        g2 = add_random_remotes(rng, random_tree_graph(rng, "p", tokens=tokens))
        injected = same_yield_relation(g1, g2)
        t_usim = usim_from_alignment(g1, g2, injected)
        # usim's precision is over the correction (second argument), the DAG
        # F-score's over its first, so the roles swap between the two calls
        t_dag = dag_fscore(g2, g1)
        assert (t_usim.precision, t_usim.recall, t_usim.f_score) == (
            t_dag.precision, t_dag.recall, t_dag.f_score,
        )


def test_usim_strict_parent_never_higher():
    rng = random.Random(71)
    for _ in range(10):
        g1 = random_valid_graph(rng, "a")
        g2 = random_valid_graph(rng, "b")
        loose = usim(g1, g2).average
        strict = usim(g1, g2, strict_parent=True).average
        assert strict <= loose


def test_usim_scores_in_unit_interval():
    rng = random.Random(83)
    for _ in range(15):
        g1 = random_valid_graph(rng, "a")
        g2 = random_valid_graph(rng, "b")
        rep = usim(g1, g2)
        for t in (rep.s_to_c, rep.c_to_s):
            assert 0 <= t.precision <= 1
            assert 0 <= t.recall <= 1
            assert 0 <= t.f_score <= 1
            assert t.matched_candidate <= t.candidate_count
            assert t.matched_reference <= t.reference_count
        assert 0 <= rep.average <= 1


# -- DistSim ---------------------------------------------------------------


def test_distsim_identical_pairs_zero():
    g = fig1_source()
    rows = distsim([(g, g), (g, g)])
    assert all(row.value == 0 for row in rows)
    assert all(row.similarity == 1 for row in rows)


def test_distsim_direct_formula():
    # N=2, group counts (3,2) and (1,1) -> 0.5
    g_a3 = graph_from_nested("x", ["a", "b", "c"],
                             ("r", [("A", 0), ("A", 1), ("A", 2)]))
    g_a2 = graph_from_nested("x", ["a", "b", "c"],
                             ("r", [("A", 0), ("A", 1), ("P", 2)]))
    g_a1 = graph_from_nested("y", ["a"], ("r", [("A", 0)]))
    rows = distsim([(g_a3, g_a2), (g_a1, g_a1)],
                   groups=[("A only", frozenset({"A"}))])
    assert rows[0].value == Fraction(1, 2)
    assert rows[0].similarity == Fraction(2, 3)


def test_distsim_fig1_default_groups():
    rows = {r.name: r for r in distsim([(fig1_source(), fig1_correction())])}
    # source: A3 P1 H1 E1 C2 R1; correction: A3 P1 H1 E1 C1
    assert rows["A+D"].value == 0
    assert rows["Scene"].value == 0
    assert rows["C"].value == 1
    assert rows["R"].value == 1
    assert rows["P"].value == 0
    assert set(rows) == {"A+D", "Scene", "A", "C", "E", "H", "P", "R"}


def test_distsim_reorder_invariant():
    pairs = [
        (fig1_source(), fig1_correction()),
        (fig1_source(), fig1_source()),
        (fig1_correction(), fig1_correction()),
    ]
    forward = distsim(pairs)
    backward = distsim(list(reversed(pairs)))
    assert {(r.name, r.value) for r in forward} == {
        (r.name, r.value) for r in backward
    }


def test_distsim_empty_pairs_rejected():
    with pytest.raises(ValueError):
        distsim([])


# -- work counts -------------------------------------------------------------


def test_usim_aligns_leaves_once_per_pair(monkeypatch):
    import semfaith.measures

    calls = []
    real = semfaith.measures.align_leaves

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(semfaith.measures, "align_leaves", counting)
    rng = random.Random(61)
    pairs = [(random_valid_graph(rng, "s"), random_valid_graph(rng, "c")) for _ in range(5)]
    for g_s, g_c in pairs:
        usim(g_s, g_c, max_norm_dist=0.5)
    assert len(calls) == len(pairs)


def test_align_leaves_one_distance_per_distinct_string_pair(monkeypatch):
    import semfaith.align

    calls = []
    real = semfaith.align._distance_table

    def counting(src, dst):
        calls.extend((a, b) for a in src for b in dst)
        return real(src, dst)

    monkeypatch.setattr(semfaith.align, "_distance_table", counting)
    src = ["the", "cat", "The", "cat", "sat", "the"]
    cor = ["the", "cats", "sat", "the", "Sat"]
    for lowercase in (False, True):
        for max_norm_dist in (None, 0.4):
            calls.clear()
            align_leaves(src, cor, lowercase=lowercase, max_norm_dist=max_norm_dist)
            norm = str.lower if lowercase else str
            expected = {(norm(a), norm(b)) for a in src for b in cor}
            assert sorted(calls) == sorted(expected)
