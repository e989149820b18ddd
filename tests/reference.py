"""Reference implementations that the optimized code is tested against.

Each is the straightforward form of its algorithm: a full dynamic-programming
table for the edit distance; one DP distance per token pair and SciPy's solver
for the token alignment, a re-sort after every swap for its canonical pair
list, a ``node_weight`` evaluation for every (node, target) pair for the node
alignment, a scan of every same-label edge-instance pair for the edge
matching, a field-by-field reader of interchange documents, and a
check-by-check validator with one DFS for the graph invariants, a scan of
every pair of edges for repeated edge instances, and frozenset yields.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from semfaith import (
    S_TO_C,
    Edge,
    EdgeInstance,
    GraphFormatError,
    GraphValidationError,
    LeafAlignment,
    Node,
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
    target_leaves = g_target._leaves
    mapping = []
    for node in g_aligned.nodes:
        if node.anchor is not None:
            partner = token_map.get(node.anchor)
            if partner is not None:
                mapping.append((node.id, target_leaves[partner]))
            continue
        if not g_aligned._children[node.id]:
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
            mapping.append((node.id, best[2]))
    mapping.sort()
    return NodeAlignment(direction, tuple(mapping))


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
    pairs: list[tuple[int, int]], dist: list[list[int]], pruned: list[list[bool]]
) -> list[tuple[int, int]]:
    """Swap pair endpoints toward the lexicographically smallest pair list,
    preserving both the total edit distance and the total |i - j|: every
    equal-cost swap that creates no pruned pair is tried, and kept when the
    re-sorted list is smaller."""
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
                if pruned[i1][j2] or pruned[i2][j1]:
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
    return LeafAlignment(frozenset(canonicalize_sorted(pairs, dist, pruned)))


def validate_dfs(
    gid: str,
    tokens: Sequence[str],
    nodes: Sequence[Node],
    edges: Sequence[Edge],
    root: str,
) -> dict[str, frozenset[int]]:
    """The yield of every node of a valid graph, by node id.  An invalid one
    raises ``GraphValidationError`` for the first fault found: each check in
    turn, then one DFS from the root for cycles and reachability."""
    for i, tok in enumerate(tokens):
        if not tok:
            raise GraphValidationError(f"graph {gid!r}: token {i} has empty text")

    ids = [n.id for n in nodes]
    if len(set(ids)) != len(ids):
        dup = sorted({x for x in ids if ids.count(x) > 1})
        raise GraphValidationError(f"graph {gid!r}: duplicate node ids {dup}")
    if any(not n.id for n in nodes):
        raise GraphValidationError(f"graph {gid!r}: empty node id")
    by_id = {n.id: n for n in nodes}
    if root not in by_id:
        raise GraphValidationError(f"graph {gid!r}: root {root!r} is not a declared node")

    children: dict[str, list[str]] = {n.id: [] for n in nodes}
    incoming: dict[str, int] = {n.id: 0 for n in nodes}
    for e in edges:
        for endpoint in (e.parent, e.child):
            if endpoint not in by_id:
                raise GraphValidationError(
                    f"graph {gid!r}: edge {e.parent!r}->{e.child!r} "
                    f"references undeclared node {endpoint!r}"
                )
        if e.parent == e.child:
            raise GraphValidationError(f"graph {gid!r}: self-loop on node {e.parent!r}")
        if not e.labels:
            raise GraphValidationError(
                f"graph {gid!r}: edge {e.parent!r}->{e.child!r} has no labels"
            )
        children[e.parent].append(e.child)
        incoming[e.child] += 1

    if incoming[root]:
        raise GraphValidationError(f"graph {gid!r}: root {root!r} has an incoming edge")
    for nid, count in incoming.items():
        if nid != root and count == 0:
            raise GraphValidationError(f"graph {gid!r}: node {nid!r} has no incoming edge")

    anchor_of: dict[int, str] = {}
    for n in nodes:
        if n.anchor is None:
            continue
        if not 0 <= n.anchor < len(tokens):
            raise GraphValidationError(
                f"graph {gid!r}: node {n.id!r} anchors out-of-range token {n.anchor}"
            )
        if n.anchor in anchor_of:
            raise GraphValidationError(
                f"graph {gid!r}: token {n.anchor} anchored by both "
                f"{anchor_of[n.anchor]!r} and {n.id!r}"
            )
        if children[n.id]:
            raise GraphValidationError(
                f"graph {gid!r}: anchored node {n.id!r} has outgoing edges"
            )
        anchor_of[n.anchor] = n.id
    missing = [i for i in range(len(tokens)) if i not in anchor_of]
    if missing:
        raise GraphValidationError(
            f"graph {gid!r}: tokens {missing} are not anchored by any leaf"
        )

    order: list[str] = []
    state: dict[str, int] = {root: 1}  # 1 = on stack, 2 = done
    stack: list[tuple[str, int]] = [(root, 0)]
    while stack:
        nid, ci = stack[-1]
        kids = children[nid]
        if ci < len(kids):
            stack[-1] = (nid, ci + 1)
            kid = kids[ci]
            st = state.get(kid)
            if st == 1:
                raise GraphValidationError(f"graph {gid!r}: cycle through edge {nid!r}->{kid!r}")
            if st is None:
                state[kid] = 1
                stack.append((kid, 0))
        else:
            state[nid] = 2
            order.append(nid)
            stack.pop()
    unreachable = sorted(nid for nid in by_id if nid not in state)
    if unreachable:
        raise GraphValidationError(f"graph {gid!r}: nodes unreachable from root: {unreachable}")

    # (parent, child, label, remote) of every label that two edges share
    repeats = sorted(
        (e.parent, e.child, label, e.remote)
        for i, e in enumerate(edges)
        for f in edges[i + 1:]
        if (e.parent, e.child, e.remote) == (f.parent, f.child, f.remote)
        for label in e.labels & f.labels
    )
    if repeats:
        parent, child, label, _ = repeats[0]
        raise GraphValidationError(
            f"graph {gid!r}: edges {parent!r}->{child!r} repeat label {label!r}"
        )

    yields: dict[str, frozenset[int]] = {}
    for nid in order:
        node = by_id[nid]
        acc: set[int] = set() if node.anchor is None else {node.anchor}
        for kid in children[nid]:
            acc |= yields[kid]
        yields[nid] = frozenset(acc)
    return yields


def _require(obj: dict, key: str, kind: type, where: str):
    if key not in obj:
        raise GraphFormatError(f"{where}: missing field {key!r}")
    value = obj[key]
    if kind is int and isinstance(value, bool):
        raise GraphFormatError(f"{where}: field {key!r} must be an integer")
    if not isinstance(value, kind):
        raise GraphFormatError(
            f"{where}: field {key!r} must be {kind.__name__}, got {type(value).__name__}"
        )
    return value


def graph_from_dict_fields(doc) -> SemanticGraph:
    """The graph of an interchange document, every field of every record
    checked in turn."""
    if not isinstance(doc, dict):
        raise GraphFormatError(f"document must be an object, got {type(doc).__name__}")
    gid = _require(doc, "id", str, "document")
    where = f"graph {gid!r}"
    tokens = _require(doc, "tokens", list, where)
    for i, text in enumerate(tokens):
        if not isinstance(text, str):
            raise GraphFormatError(f"{where}: tokens[{i}] must be a string")
    nodes = []
    for i, raw in enumerate(_require(doc, "nodes", list, where)):
        if not isinstance(raw, dict):
            raise GraphFormatError(f"{where}: nodes[{i}] must be an object")
        nid = _require(raw, "id", str, f"{where} nodes[{i}]")
        anchor = raw.get("anchor")
        if anchor is not None and (isinstance(anchor, bool) or not isinstance(anchor, int)):
            raise GraphFormatError(f"{where}: nodes[{i}].anchor must be an integer")
        nodes.append(Node(nid, anchor))
    edges = []
    for i, raw in enumerate(_require(doc, "edges", list, where)):
        if not isinstance(raw, dict):
            raise GraphFormatError(f"{where}: edges[{i}] must be an object")
        ewhere = f"{where} edges[{i}]"
        parent = _require(raw, "parent", str, ewhere)
        child = _require(raw, "child", str, ewhere)
        labels = _require(raw, "labels", list, ewhere)
        if not all(isinstance(x, str) for x in labels):
            raise GraphFormatError(f"{ewhere}: labels must be strings")
        remote = raw.get("remote", False)
        if not isinstance(remote, bool):
            raise GraphFormatError(f"{ewhere}: remote must be a boolean")
        edges.append(Edge(parent, child, frozenset(labels), remote))
    root = _require(doc, "root", str, where)
    return SemanticGraph(gid, tuple(tokens), tuple(nodes), tuple(edges), root)
