from __future__ import annotations

import random
from fractions import Fraction

import pytest

from fig1 import CORRECTION_TOKENS, SOURCE_TOKENS, fig1_correction, fig1_source
from helpers_build import WORDS, brute_min_assignment_cost
from reference import node_weight
from semfaith import (
    C_TO_S,
    S_TO_C,
    LeafAlignment,
    align_leaves,
    edit_distance,
    extend_alignment,
    format_alignment_dump,
)


def total_cost(pairs, src, dst):
    return sum(edit_distance(src[i], dst[j]) for i, j in pairs)


def test_edit_distance_basics():
    assert edit_distance("apple", "apple") == 0
    assert edit_distance("gve", "gave") == 1
    assert edit_distance("iede", "idea") == 2
    assert edit_distance("", "abc") == 3
    assert edit_distance("kitten", "sitting") == 3


def test_edit_distance_symmetric():
    rng = random.Random(5)
    for _ in range(50):
        a, b = rng.choice(WORDS), rng.choice(WORDS)
        assert edit_distance(a, b) == edit_distance(b, a)
        assert (edit_distance(a, b) == 0) == (a == b)


def test_align_identical_lists_is_identity():
    tokens = ["He", "gave", "John", "an", "apple"]
    a = align_leaves(tokens, tokens)
    assert a.pairs == {(i, i) for i in range(5)}
    assert total_cost(a.pairs, tokens, tokens) == 0


def test_align_fig1_tokens():
    a = align_leaves(SOURCE_TOKENS, CORRECTION_TOKENS)
    assert a.pairs == {(0, 0), (1, 1), (2, 3), (3, 4), (5, 2)}  # "for" unaligned


def test_align_empty_side():
    assert align_leaves([], ["a"]).pairs == frozenset()
    assert align_leaves(["a"], []).pairs == frozenset()
    assert align_leaves([], []).pairs == frozenset()


def test_align_cost_matches_bruteforce_small():
    rng = random.Random(23)
    for _ in range(60):
        n, m = rng.randint(0, 6), rng.randint(0, 6)
        src = [rng.choice(WORDS) for _ in range(n)]
        dst = [rng.choice(WORDS) for _ in range(m)]
        got = align_leaves(src, dst)
        assert len(got.pairs) == min(n, m)
        assert total_cost(got.pairs, src, dst) == brute_min_assignment_cost(src, dst)


def test_align_deterministic():
    rng = random.Random(31)
    for _ in range(20):
        src = [rng.choice(WORDS) for _ in range(rng.randint(1, 7))]
        dst = [rng.choice(WORDS) for _ in range(rng.randint(1, 7))]
        assert align_leaves(src, dst) == align_leaves(src, dst)


def test_align_lowercase_flag():
    strict = align_leaves(["john"], ["John"])
    assert strict.pairs == {(0, 0)}
    relaxed = align_leaves(["john"], ["John"], lowercase=True)
    assert relaxed.pairs == {(0, 0)}
    # lowering removes the case-difference cost
    a = align_leaves(["AB", "xy"], ["ab"], lowercase=True)
    assert a.pairs == {(0, 0)}


def test_align_max_norm_dist_prunes():
    a = align_leaves(["abcd"], ["wxyz"], max_norm_dist=0.5)
    assert a.pairs == frozenset()
    b = align_leaves(["abcd"], ["abxd"], max_norm_dist=0.5)
    assert b.pairs == {(0, 0)}


def test_leaf_alignment_rejects_duplicates():
    with pytest.raises(ValueError):
        LeafAlignment(frozenset({(0, 0), (0, 1)}))


def test_node_weight_examples():
    g_s = fig1_source()
    g_c = fig1_correction()
    pairs = sorted(align_leaves(SOURCE_TOKENS, CORRECTION_TOKENS).pairs)
    # full overlap
    assert node_weight("np", "np", pairs, g_s, g_c) == 1
    # disjoint yields
    assert node_weight("np", "w0", pairs, g_s, g_c) == 0
    # "for john" vs the correction's "John" leaf
    assert node_weight("pp", "w2", pairs, g_s, g_c) == 1
    # partial overlap against the whole correction scene
    assert node_weight("pp", "scene", pairs, g_s, g_c) == Fraction(1, 5)


def test_node_weight_monotone_in_alignment():
    g_s = fig1_source()
    g_c = fig1_correction()
    full = sorted(align_leaves(SOURCE_TOKENS, CORRECTION_TOKENS).pairs)
    for k in range(len(full)):
        sub = full[:k]
        for v in g_s.node_ids:
            for u in g_c.node_ids:
                assert node_weight(v, u, sub, g_s, g_c) <= node_weight(
                    v, u, full, g_s, g_c
                )


def test_extend_identity_on_identical_graphs():
    g1 = fig1_correction("x")
    g2 = fig1_correction("x")
    a_l = align_leaves(CORRECTION_TOKENS, CORRECTION_TOKENS)
    na = extend_alignment(g1, g2, a_l, S_TO_C)
    mapping = na.as_dict()
    # identity wherever the yield is unique; the root ties with the scene on
    # the full-sentence yield and the id order sends it to the scene
    for nid in g1.node_ids:
        if nid != "z-root":
            assert mapping[nid] == nid
    assert mapping["z-root"] == "scene"
    assert all(w == 1 for _, w in na.weights)


def test_extend_all_tokens_unaligned():
    g1 = fig1_source()
    g2 = fig1_correction()
    na = extend_alignment(g1, g2, LeafAlignment(frozenset()), S_TO_C)
    assert na.mapping == ()


def test_extend_fig1_forward():
    g_s = fig1_source()
    g_c = fig1_correction()
    a_l = align_leaves(SOURCE_TOKENS, CORRECTION_TOKENS)
    na = extend_alignment(g_s, g_c, a_l, S_TO_C)
    mapping = na.as_dict()
    assert mapping["np"] == "np"
    assert mapping["pp"] == "w2"  # "for john" onto the leaf "John"
    assert mapping["scene"] == "scene"
    assert "w4" not in mapping  # "for" has no partner
    weights = dict(na.weights)
    assert weights[("pp", "w2")] == 1


def test_extend_no_zero_weight_pairs():
    rng = random.Random(43)
    from helpers_build import random_valid_graph

    for _ in range(20):
        g1 = random_valid_graph(rng, "a")
        g2 = random_valid_graph(rng, "b")
        a_l = align_leaves(g1.token_texts(), g2.token_texts())
        na = extend_alignment(g1, g2, a_l, S_TO_C)
        pairs = sorted(a_l.pairs)
        for v, u in na.mapping:
            if g1.node(v).anchor is None:
                assert node_weight(v, u, pairs, g1, g2) > 0


def test_extend_deterministic():
    g_s = fig1_source()
    g_c = fig1_correction()
    a_l = align_leaves(SOURCE_TOKENS, CORRECTION_TOKENS)
    runs = {extend_alignment(g_c, g_s, a_l, C_TO_S).mapping for _ in range(3)}
    assert len(runs) == 1


def test_alignment_dump_format():
    g_s = fig1_source()
    g_c = fig1_correction()
    a_l = align_leaves(SOURCE_TOKENS, CORRECTION_TOKENS)
    na = extend_alignment(g_s, g_c, a_l, S_TO_C)
    dump = format_alignment_dump(SOURCE_TOKENS, CORRECTION_TOKENS, a_l, na)
    assert "gve\tgave\t1" in dump
    assert "pp\tw2\t1/1" in dump
    # stable output
    assert dump == format_alignment_dump(SOURCE_TOKENS, CORRECTION_TOKENS, a_l, na)
