"""Property tests: the optimized alignment and edge matching equal the
reference implementations in ``reference.py``."""
from __future__ import annotations

import math
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers_build import WORDS, random_dag, random_tokens
from reference import (
    align_leaves_loops,
    canonicalize_sorted,
    edit_distance_dp,
    extend_alignment_scan,
    match_edges_scan,
)
from semfaith import (
    C_TO_S,
    S_TO_C,
    LeafAlignment,
    align_leaves,
    edit_distance,
    extend_alignment,
    match_edges,
)
from semfaith.align import _assign, _canonicalize, _distance_table

# ASCII, accented, CJK and non-BMP characters; a small alphabet makes
# partial matches common.
ALPHABET = "abcABé中\U0001d518\U0001f600"
strings = st.one_of(
    st.text(alphabet=ALPHABET, max_size=12),
    st.text(alphabet=ALPHABET, min_size=60, max_size=150),  # past 64 bits
    st.text(max_size=20),
)


@given(strings, st.lists(strings, min_size=1, max_size=4))
@settings(max_examples=400, deadline=None)
def test_edit_distance_equals_dp(a, others):
    expected = [edit_distance_dp(a, b) for b in others]
    assert [edit_distance(a, b) for b in others] == expected
    assert [edit_distance(b, a) for b in others] == expected


# Lanes of a packed table: many short strings and a few wide ones, in any
# order.  Strings of 255 or more characters get lanes of 32 or more bytes,
# whose popcount can pass 255, so a byte-wide sum per lane would overflow.
short_strings = st.one_of(st.text(alphabet=ALPHABET, max_size=12), st.text(max_size=20))
wide_strings = st.one_of(
    st.text(alphabet=ALPHABET, min_size=60, max_size=150),
    st.text(alphabet=ALPHABET, min_size=255, max_size=300),
)


def string_lists(most_short: int, most_wide: int):
    return (
        st.tuples(st.lists(short_strings, max_size=most_short),
                  st.lists(wide_strings, max_size=most_wide))
        .map(lambda lists: lists[0] + lists[1])
        .filter(bool)
        .flatmap(st.permutations)
    )


@given(string_lists(24, 2), string_lists(4, 1))
@settings(max_examples=150, deadline=None)
def test_distance_table_equals_dp(src, dst):
    """1 x k, k x 1 and many-lane tables, with empty, non-BMP, past-64-bit
    and 255+ character strings; each transposed as well."""
    assert [list(row) for row in _distance_table(src, dst)] == [
        [edit_distance_dp(a, b) for b in dst] for a in src
    ]
    assert [list(row) for row in _distance_table(dst, src)] == [
        [edit_distance_dp(b, a) for a in src] for b in dst
    ]


# The structures are built from a seeded stream: a failing example reports
# its seed, and drawing each of the many structural choices through
# hypothesis would make the tests several times slower.
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def random_partial_alignment(rng: random.Random, n: int, m: int) -> LeafAlignment:
    src, dst = list(range(n)), list(range(m))
    rng.shuffle(src)
    rng.shuffle(dst)
    k = rng.randint(0, min(n, m))
    return LeafAlignment(frozenset(zip(src[:k], dst[:k])))


# Entry values for the assignment test: spread, heavy ties, constant,
# "forbidden" entries far above the rest, and large signed values.
ENTRIES = {
    "spread": lambda rng: rng.randint(0, 1000),
    "ties": lambda rng: rng.randint(0, 2),
    "constant": lambda rng: 7,
    "forbidden": lambda rng: rng.choice((0, 1, 3, 10**9)),
    "large": lambda rng: rng.randint(-(2**40), 2**40),
}


@given(seeds, st.sampled_from(sorted(ENTRIES)))
@settings(max_examples=1000, deadline=None)
def test_assign_equals_scipy(seed, kind):
    """1 x k, k x 1, wide, tall and square integer matrices."""
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    rng = random.Random(seed)
    rows, cols = rng.randint(1, 9), rng.randint(1, 9)
    cost = [[ENTRIES[kind](rng) for _ in range(cols)] for _ in range(rows)]
    expected = linear_sum_assignment(np.array(cost, dtype=np.int64))
    assert _assign(cost) == list(zip(*(a.tolist() for a in expected)))


@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 3), seeds)
@settings(max_examples=500, deadline=None)
def test_canonicalize_equals_sorted(n, m, high, seed):
    """Random partial 1-to-1 pair lists over small distances, so that
    equal-cost swaps are common, and some forbidden cells off the pairs.
    ``_canonicalize`` sees only the composite cost that ``align_leaves``
    builds; the oracle sees the distances and the pruned cells."""
    rng = random.Random(seed)
    dist = [[rng.randint(0, high) for _ in range(m)] for _ in range(n)]
    pairs = list(random_partial_alignment(rng, n, m).pairs)
    pruned = [[(i, j) not in pairs and rng.random() < 0.25 for j in range(m)]
              for i in range(n)]
    shift_unit = min(n, m) * max(n, m) + 1
    forbidden = (high + 1) * shift_unit * min(n, m) + 1
    cost = [[forbidden if pruned[i][j] else dist[i][j] * shift_unit + abs(i - j)
             for j in range(m)] for i in range(n)]
    assert _canonicalize(pairs, cost) == canonicalize_sorted(pairs, dist, pruned)


@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 3),
       st.sampled_from((0.0, 0.25, 0.5, 0.75, 0.9)), seeds)
@settings(max_examples=500, deadline=None)
def test_alignment_does_not_depend_on_the_forbidden_cost(n, m, high, rate, seed):
    """Composite costs as ``align_leaves`` builds them under a threshold,
    with up to 90% of the cells forbidden.  Any forbidden cost above every
    total of allowed cells gives the same assignment, and the same pairs
    once the forbidden ones are dropped and the rest canonicalized.  The
    costs tried: the smallest, from the largest distance of the matrix; F,
    from ``high``, a bound on every distance as the longest string's length
    is in ``align_leaves``; and three larger ones."""
    rng = random.Random(seed)
    dist = [[rng.randint(0, high) for _ in range(m)] for _ in range(n)]
    pruned = [[rng.random() < rate for _ in range(m)] for _ in range(n)]
    shift_unit = min(n, m) * max(n, m) + 1
    smallest = (max(map(max, dist)) + 1) * shift_unit * min(n, m) + 1
    forbidden = (high + 1) * shift_unit * min(n, m) + 1
    outcomes = []
    for f in (smallest, forbidden, forbidden + 1, 2 * forbidden, 1000 * forbidden + 13):
        cost = [[f if pruned[i][j] else dist[i][j] * shift_unit + abs(i - j)
                 for j in range(m)] for i in range(n)]
        assigned = _assign(cost)
        kept = [(i, j) for i, j in assigned if cost[i][j] < f]
        outcomes.append((assigned, _canonicalize(kept, cost)))
    assert outcomes == [outcomes[0]] * len(outcomes)


@given(seeds)
@settings(max_examples=300, deadline=None)
def test_align_leaves_equals_loops(seed):
    rng = random.Random(seed)
    src = [rng.choice(WORDS[:10]).title() if rng.random() < 0.2 else rng.choice(WORDS[:10])
           for _ in range(rng.randint(0, 12))]
    dst = [rng.choice(WORDS[:10]) for _ in range(rng.randint(0, 12))]
    lowercase = rng.random() < 0.5
    max_norm_dist = rng.choice((None, 0.0, 0.3, 0.5, 0.75, 1.0))
    assert align_leaves(src, dst, lowercase, max_norm_dist) == align_leaves_loops(
        src, dst, lowercase, max_norm_dist
    )


# Thresholds at exact quotients k / L, where a pair at distance k of a
# longer token of L characters is exactly at the threshold and kept, beside
# 0, 1 and inf, and NaN and negative values, which the library takes and
# the CLI rejects.
THRESHOLDS = sorted({k / L for L in range(1, 13) for k in range(1, L)}) + [
    0.0, -0.0, 1.0, 1.5, math.inf, math.nan, -0.25, -math.inf]
# Words of 8 or more characters give two-byte lanes in the distance table.
BOUNDARY_WORDS = ["a", "ab", "gave", "apple", "abcdefgh", "accommodate", "Mississippi"]
LONG_WORD = "Ab" * 130  # past 255 characters


def near_miss(rng: random.Random) -> str:
    """A word with up to three random edits (it may end up empty), in
    capitals now and then, so that ``lowercase`` matters."""
    word = LONG_WORD if rng.random() < 0.05 else rng.choice(BOUNDARY_WORDS)
    chars = list(word)
    for _ in range(rng.randint(0, 3)):
        k = rng.randrange(len(chars) + 1)
        if rng.random() < 0.4:
            chars.insert(k, rng.choice("abAB"))
        elif k < len(chars):
            chars[k:k + 1] = [] if rng.random() < 0.5 else [rng.choice("abAB")]
    token = "".join(chars)
    return token.upper() if rng.random() < 0.2 else token


@given(seeds, st.sampled_from(THRESHOLDS))
@settings(max_examples=300, deadline=None)
def test_align_leaves_at_threshold_boundaries_equals_loops(seed, max_norm_dist):
    """The cells that ``align_leaves`` writes under a threshold are the
    ones the oracle leaves unpruned, at and around exact quotients."""
    rng = random.Random(seed)
    src = [near_miss(rng) for _ in range(rng.randint(0, 6))]
    dst = [rng.choice(src) if src and rng.random() < 0.3 else near_miss(rng)
           for _ in range(rng.randint(0, 6))]
    for lowercase in (False, True):
        assert align_leaves(src, dst, lowercase, max_norm_dist) == align_leaves_loops(
            src, dst, lowercase, max_norm_dist
        ), lowercase


# In these, aligned nodes contain the yields of targets of three or more
# sizes, all of weight 1, so the first contained target in (-size, id) order
# must win over smaller contained ones.
@example(2629)
@example(1708)
@example(1913)
@given(seeds)
@settings(max_examples=300, deadline=None)
def test_extend_alignment_equals_weight_scan(seed):
    rng = random.Random(seed)
    g_s = random_dag(rng, "s", random_tokens(rng))
    g_c = random_dag(rng, "c", random_tokens(rng))
    leaves = random_partial_alignment(rng, len(g_s.tokens), len(g_c.tokens))
    assert extend_alignment(g_s, g_c, leaves, S_TO_C) == extend_alignment_scan(
        g_s, g_c, leaves, S_TO_C
    )
    assert extend_alignment(g_c, g_s, leaves, C_TO_S) == extend_alignment_scan(
        g_c, g_s, leaves, C_TO_S
    )


@given(seeds)
@settings(max_examples=300, deadline=None)
def test_match_edges_equals_full_scan(seed):
    rng = random.Random(seed)
    g_s = random_dag(rng, "s", random_tokens(rng))
    g_c = random_dag(rng, "c", random_tokens(rng))
    density = rng.random()
    alignment = {
        (v.id, u.id) for v in g_s.nodes for u in g_c.nodes if rng.random() < density
    }
    for include_remote in (True, False):
        for strict_parent in (True, False):
            assert match_edges(
                g_s, g_c, alignment, include_remote, strict_parent
            ) == match_edges_scan(g_s, g_c, alignment, include_remote, strict_parent)
