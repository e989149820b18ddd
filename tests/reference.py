"""Reference implementations that the optimized code is tested against.

Each is the straightforward form of its algorithm: a full dynamic-programming
table, or one unpacked bit-parallel pass per pattern string, for the edit
distance; one DP distance per token pair and SciPy's solver for the token
alignment, a re-sort after every swap for its canonical pair list, a
``node_weight`` evaluation for every (node, target) pair for the node
alignment, and a scan of every same-label edge-instance pair for the edge
matching.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from semfaith import (
    S_TO_C,
    EdgeInstance,
    LeafAlignment,
    NodeAlignment,
    SemanticGraph,
    edge_instances,
    yield_of,
)


def edit_distance_dp(a: str, b: str) -> int:
    """Levenshtein distance with unit costs, one DP row at a time."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def distances_from(a: str, others: Sequence[str]) -> list[int]:
    """Levenshtein distance from ``a`` to each string in ``others``: Myers'
    bit-vector algorithm in Hyyrö's form for whole strings, one pattern at a
    time.

    A column of the DP table is held as two bit vectors, the +1 and the -1
    vertical deltas, in Python ints of len(a) bits, and the distance is
    tracked at the last bit as the pass goes.
    """
    if not a:
        return [len(b) for b in others]
    peq: dict[str, int] = {}
    for i, ch in enumerate(a):
        peq[ch] = peq.get(ch, 0) | (1 << i)
    mask = (1 << len(a)) - 1
    last = 1 << (len(a) - 1)
    out = []
    for b in others:
        pv, mv, dist = mask, 0, len(a)
        for ch in b:
            eq = peq.get(ch, 0)
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | ~(xh | pv)
            mh = pv & xh
            if ph & last:
                dist += 1
            elif mh & last:
                dist -= 1
            ph = (ph << 1) | 1
            pv = ((mh << 1) | ~(xv | ph)) & mask
            mv = ph & xv
        out.append(dist)
    return out


def node_weight(
    v: str,
    u: str,
    aligned_pairs: Iterable[tuple[int, int]],
    g_aligned: SemanticGraph,
    g_target: SemanticGraph,
) -> Fraction:
    """Yield-overlap weight of aligning node ``v`` (aligned graph) to ``u``
    (target graph): aligned token pairs between the two yields, divided by
    the size of the target yield.  Zero when the target yield is empty.

    ``aligned_pairs`` is oriented (aligned-side token, target-side token).
    """
    yv = yield_of(g_aligned, v)
    yu = yield_of(g_target, u)
    if not yu:
        return Fraction(0)
    hits = sum(1 for a, b in aligned_pairs if a in yv and b in yu)
    return Fraction(hits, len(yu))


def extend_alignment_scan(
    g_aligned: SemanticGraph,
    g_target: SemanticGraph,
    leaf_alignment: LeafAlignment,
    direction: str,
) -> NodeAlignment:
    """Node alignment by the ``node_weight`` argmax over every target node,
    tie-broken by (-weight, -|target yield|, target id)."""
    if direction == S_TO_C:
        token_map = leaf_alignment.source_to_correction()
    else:
        token_map = leaf_alignment.correction_to_source()
    oriented_pairs = sorted(token_map.items())
    target_leaves = g_target.anchored_leaves()
    mapping = []
    weights = []
    for node in g_aligned.nodes:
        if node.anchor is not None:
            partner = token_map.get(node.anchor)
            if partner is not None:
                pair = (node.id, target_leaves[partner])
                mapping.append(pair)
                weights.append((pair, Fraction(1)))
            continue
        if not g_aligned.children_of(node.id):
            continue  # implicit unit
        best = None
        for target_node in g_target.nodes:
            u = target_node.id
            w = node_weight(node.id, u, oriented_pairs, g_aligned, g_target)
            if w == 0:
                continue
            key = (-w, -len(yield_of(g_target, u)), u)
            if best is None or key < best:
                best = key
        if best is not None:
            pair = (node.id, best[2])
            mapping.append(pair)
            weights.append((pair, -best[0]))
    mapping.sort()
    weights.sort()
    return NodeAlignment(direction, tuple(weights))


def match_edges_scan(
    g_s: SemanticGraph,
    g_c: SemanticGraph,
    alignment: Iterable[tuple[str, str]],
    include_remote: bool = True,
    strict_parent: bool = False,
) -> set[tuple[EdgeInstance, EdgeInstance]]:
    """Every same-label (source, correction) instance pair whose children
    (and, with ``strict_parent``, parents) are paired."""
    pairs = set(alignment)
    inst_c = edge_instances(g_c, include_remote)
    out = set()
    for si in edge_instances(g_s, include_remote):
        for ci in inst_c:
            if si.label != ci.label or (si.child, ci.child) not in pairs:
                continue
            if strict_parent and (si.parent, ci.parent) not in pairs:
                continue
            out.add((si, ci))
    return out


def canonicalize_sorted(
    pairs: list[tuple[int, int]], dist: list[list[int]]
) -> list[tuple[int, int]]:
    """Swap pair endpoints toward the lexicographically smallest pair list,
    preserving both the total edit distance and the total |i - j|: every
    equal-cost swap is tried, and kept when the re-sorted list is smaller."""
    pairs = sorted(pairs)
    changed = True
    while changed:
        changed = False
        for a in range(len(pairs)):
            for b in range(a + 1, len(pairs)):
                (i1, j1), (i2, j2) = pairs[a], pairs[b]
                old_cost = dist[i1][j1] + dist[i2][j2]
                new_cost = dist[i1][j2] + dist[i2][j1]
                old_shift = abs(i1 - j1) + abs(i2 - j2)
                new_shift = abs(i1 - j2) + abs(i2 - j1)
                if new_cost != old_cost or new_shift != old_shift:
                    continue
                candidate = sorted(
                    pairs[:a] + [(i1, j2)] + pairs[a + 1 : b] + [(i2, j1)] + pairs[b + 1 :]
                )
                if candidate < pairs:
                    pairs = candidate
                    changed = True
    return pairs


def align_leaves_loops(
    source_tokens, correction_tokens, lowercase=False, max_norm_dist=None
) -> LeafAlignment:
    """Token pairing with one DP distance per token pair, a second one for
    the ``max_norm_dist`` pruning, the cost matrix filled cell by cell, and
    SciPy's assignment solver."""
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    n, m = len(source_tokens), len(correction_tokens)
    if n == 0 or m == 0:
        return LeafAlignment(frozenset())
    src = [t.lower() for t in source_tokens] if lowercase else list(source_tokens)
    dst = [t.lower() for t in correction_tokens] if lowercase else list(correction_tokens)
    dist = [[edit_distance_dp(a, b) for b in dst] for a in src]
    pruned = [[False] * m for _ in range(n)]
    if max_norm_dist is not None:
        for i in range(n):
            for j in range(m):
                longest = max(len(src[i]), len(dst[j]))
                norm = edit_distance_dp(src[i], dst[j]) / longest if longest else 0.0
                pruned[i][j] = norm > max_norm_dist
    shift_unit = min(n, m) * max(n, m) + 1
    max_dist = max(max(row) for row in dist)
    forbidden = (max_dist + 1) * shift_unit * min(n, m) + 1
    cost = np.empty((n, m), dtype=np.int64)
    for i in range(n):
        for j in range(m):
            cost[i, j] = forbidden if pruned[i][j] else dist[i][j] * shift_unit + abs(i - j)
    rows, cols = linear_sum_assignment(cost)
    pairs = [(int(i), int(j)) for i, j in zip(rows, cols) if not pruned[i][j]]
    return LeafAlignment(frozenset(canonicalize_sorted(pairs, dist)))
