"""Property tests: the optimized alignment and edge matching equal the
reference implementations in ``reference.py``."""
from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_build import LABELS, WORDS, add_random_remotes, make_graph
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
from semfaith.align import _assign, _canonicalize, _distances_from

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
    assert _distances_from(a, others) == expected  # one pattern, many texts


# The structures are built from a seeded stream: a failing example reports
# its seed, and drawing each of the many structural choices through
# hypothesis would make the tests several times slower.
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def random_dag(rng: random.Random, gid: str, tokens: list[str]):
    """A rooted DAG over ``tokens`` with multi-label edges, unary wrapper
    chains (so several nodes share a yield), implicit units and up to two
    remote edges."""
    nodes: list[tuple[str, int | None]] = []
    edges: list[tuple] = []

    def new_node() -> str:
        nid = f"n{len(nodes)}"
        nodes.append((nid, None))
        return nid

    def labels() -> set[str]:
        return set(rng.sample(LABELS, rng.choice((1, 1, 2))))

    def wrap(nid: str) -> str:
        for _ in range(rng.choice((0, 0, 1, 2))):
            parent = new_node()
            edges.append((parent, nid, labels()))
            nid = parent
        return nid

    def build(lo: int, hi: int) -> str:
        if hi - lo == 1:
            nid = f"w{lo}"
            nodes.append((nid, lo))
            return wrap(nid)
        nid = new_node()
        k = rng.randint(2, hi - lo)
        cuts = sorted(rng.sample(range(lo + 1, hi), k - 1))
        bounds = [lo, *cuts, hi]
        for a, b in zip(bounds, bounds[1:]):
            edges.append((nid, build(a, b), labels()))
        if rng.random() < 0.3:
            edges.append((nid, new_node(), labels()))  # implicit unit
        return wrap(nid)

    root = new_node()
    if tokens:
        edges.append((root, build(0, len(tokens)), labels()))
    if not tokens or rng.random() < 0.2:
        edges.append((root, new_node(), labels()))  # implicit unit
    g = make_graph(gid, tokens, nodes, edges, root)
    return add_random_remotes(rng, g)


def random_tokens(rng: random.Random) -> list[str]:
    return [rng.choice(WORDS[:8]) for _ in range(rng.randint(0, 9))]


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
    equal-cost swaps are common."""
    rng = random.Random(seed)
    dist = [[rng.randint(0, high) for _ in range(m)] for _ in range(n)]
    pairs = list(random_partial_alignment(rng, n, m).pairs)
    assert _canonicalize(pairs, dist) == canonicalize_sorted(pairs, dist)


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
