"""Token and node alignment between a source graph and a correction graph.

Tokens are paired by a minimum-total-edit-distance bipartite assignment;
the pairing is then lifted to graph nodes by maximizing a yield-overlap
weight, dropping zero-weight candidates.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from operator import add, sub
from typing import NamedTuple, Sequence

from .graph import SemanticGraph

_INF = float("inf")
_ONE = Fraction(1)
S_TO_C = "s_to_c"
C_TO_S = "c_to_s"


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance with unit insert/delete/substitute costs.

    The 1 x 1 case of ``_distance_table``: Myers' bit-vector algorithm
    (Myers 1999, "A fast bit-vector algorithm for approximate string matching
    based on dynamic programming", JACM) in Hyyrö's form for the distance
    between two whole strings (Hyyrö 2003).
    """
    return _distance_table([a], [b])[0][0]


# _POPCOUNT[x] is the number of set bits of the byte x.
_POPCOUNT = bytes(bin(x).count("1") for x in range(256))


def _distance_table(src: Sequence[str], dst: Sequence[str]) -> list[tuple[int, ...]]:
    """``table[k][j]``, the Levenshtein distance between ``src[k]`` and
    ``dst[j]``.

    The multiple-pattern packing of Hyyrö, Fredriksson & Navarro 2005,
    "Increased bit-parallelism for approximate and multiple string
    matching" (JEA).  A column of each string's DP table is held as two bit
    vectors, the +1 and the -1 vertical deltas; the vectors of all of
    ``src`` sit side by side in one Python int, string k in lane k of
    ``width`` bytes, with at least one guard bit above its characters.  The
    guard bits of ``pv`` are kept at 0, so the carry of the addition stops
    there, and what the shifts move into a lane's lowest bit is overwritten
    (``ph``) or 0 (``mh``).  Each string of ``dst`` then costs one pass over
    its characters for all lanes together.  In the last column lane k holds
    the distance ``len(b) + popcount(pv lane k) - popcount(mv lane k)``;
    the lanes are byte-aligned, so the per-byte counts come from one
    ``bytes.translate`` per vector and are summed lane by lane.
    """
    width = max(map(len, src)) // 8 + 1
    peq: dict[str, int] = {}
    lanes = low = 0
    for k, a in enumerate(src):
        offset = 8 * width * k
        low |= 1 << offset
        lanes |= ((1 << len(a)) - 1) << offset
        for i, ch in enumerate(a, offset):
            peq[ch] = peq.get(ch, 0) | (1 << i)
    nbytes = width * len(src)
    columns = []
    for b in dst:
        pv, mv = lanes, 0
        for ch in b:
            eq = peq.get(ch, 0)
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | ~(xh | pv)
            mh = pv & xh
            ph = (ph << 1) | low
            pv = ((mh << 1) | ~(xv | ph)) & lanes
            mv = ph & xv
        plus = pv.to_bytes(nbytes, "little").translate(_POPCOUNT)
        minus = mv.to_bytes(nbytes, "little").translate(_POPCOUNT)
        column = [len(b)] * len(src)
        for byte in range(width):
            column = list(map(sub, map(add, column, plus[byte::width]), minus[byte::width]))
        columns.append(column)
    return list(zip(*columns))


class _LeafPairs(NamedTuple):
    pairs: frozenset[tuple[int, int]]


class LeafAlignment(_LeafPairs):
    """Partial 1-to-1 pairing of source token indices to correction indices."""

    __slots__ = ()

    def __new__(cls, pairs):
        src = [i for i, _ in pairs]
        dst = [j for _, j in pairs]
        if len(set(src)) != len(src) or len(set(dst)) != len(dst):
            raise ValueError("leaf alignment is not 1-to-1")
        return super().__new__(cls, pairs)

    @classmethod
    def _make(cls, fields):  # _replace builds through here: check it too
        return cls(*fields)

    def source_to_correction(self) -> dict[int, int]:
        return dict(sorted(self.pairs))

    def correction_to_source(self) -> dict[int, int]:
        return {j: i for i, j in sorted(self.pairs)}


def _distinct(tokens: Sequence[str]) -> tuple[list[str], list[int]]:
    """The distinct strings in first-seen order, and each token's index
    into them."""
    index: dict[str, int] = {}
    ids = [index.setdefault(t, len(index)) for t in tokens]
    return list(index), ids


def align_leaves(
    source_tokens: Sequence[str],
    correction_tokens: Sequence[str],
    lowercase: bool = False,
    max_norm_dist: float | None = None,
) -> LeafAlignment:
    """Minimum-total-cost token pairing; surplus tokens stay unaligned.

    Ties between minimum-cost assignments are broken toward pairs with small
    positional displacement |i - j|, then toward the lexicographically
    smallest pair list.  ``max_norm_dist`` optionally forbids pairs whose
    normalized edit distance (distance over the longer string's length)
    exceeds the threshold: no returned pair exceeds it, the tie-break
    included.  Each distinct (source string, correction string) pair has
    its distance computed once.
    """
    n, m = len(source_tokens), len(correction_tokens)
    if n == 0 or m == 0:
        return LeafAlignment(frozenset())
    src = [t.lower() for t in source_tokens] if lowercase else list(source_tokens)
    dst = [t.lower() for t in correction_tokens] if lowercase else list(correction_tokens)
    src_strings, src_ids = _distinct(src)
    dst_strings, dst_ids = _distinct(dst)
    table = _distance_table(src_strings, dst_strings)
    # Composite integer cost: edit distance first, |i - j| as tie-breaker.
    # Every allowed cost is below ``forbidden``.
    shift_unit = min(n, m) * max(n, m) + 1
    forbidden = (max(map(max, table)) + 1) * shift_unit * min(n, m) + 1
    dst_lengths = [max(len(b), 1) for b in dst_strings]
    scaled_rows = []
    for a, row in zip(src_strings, table):
        if max_norm_dist is None:
            scaled = [d * shift_unit for d in row]
        else:
            # A distance over 0 characters is 0, and so is its norm.
            longest = map(max, dst_lengths, repeat(len(a)))
            scaled = [
                forbidden if d / most > max_norm_dist else d * shift_unit
                for d, most in zip(row, longest)
            ]
        scaled_rows.append(list(map(scaled.__getitem__, dst_ids)))
    # ramp[n - 1 - i : n - 1 - i + m] is |i - j| for j in range(m).
    ramp = list(range(n - 1, 0, -1)) + list(range(m))
    cost = []
    for i, a in enumerate(src_ids):
        row = map(add, scaled_rows[a], ramp[n - 1 - i : n - 1 - i + m])
        if max_norm_dist is not None:
            row = map(min, row, repeat(forbidden))
        cost.append(list(row))
    pairs = [(i, j) for i, j in _assign(cost) if cost[i][j] < forbidden]
    return LeafAlignment(frozenset(_canonicalize(pairs, cost)))


def _assign(cost: list[list[int]]) -> list[tuple[int, int]]:
    """Minimum-total-cost assignment of the rows of ``cost`` to its columns
    (or of its columns to its rows, when it has fewer), as (row, column)
    pairs sorted by row.

    A port of the rectangular solver in SciPy's ``linear_sum_assignment``,
    Crouse's shortest augmenting path (Crouse 2016, "On implementing 2D
    rectangular assignment algorithms", IEEE TAES), that keeps its choices
    among equal-cost assignments: rows are augmented in order, each path
    search scans columns from the last to the first, a scanned column is
    replaced by the last unscanned one, and on equal path cost a free column
    wins.  Integer costs keep every reduced cost exact.
    """
    if not cost or not cost[0]:
        return []
    transpose = len(cost[0]) < len(cost)
    if transpose:
        cost = list(zip(*cost))
    nr, nc = len(cost), len(cost[0])
    u = [0] * nr
    v = [0] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    for cur in range(nr):
        # The first scan from ``cur``: u[cur] is still 0 and every path cost
        # is infinite, so each column takes cost - v as its path cost.  Of
        # the columns of least path cost, the scan ends on the smallest free
        # one, or on the largest one when none is free.
        spc = list(map(sub, cost[cur], v))
        lowest = min(spc)
        j = _first_free(spc, lowest, row4col)
        if j < 0:
            j = nc - 1 - spc[::-1].index(lowest)
        if row4col[j] < 0:
            u[cur] = lowest
            row4col[j] = cur
            col4row[cur] = j
            continue
        path = [cur] * nc
        remaining = list(range(nc - 1, -1, -1))
        remaining[nc - 1 - j] = remaining[-1]
        remaining.pop()
        scanned_rows = [cur]
        scanned_cols = [j]
        min_val = lowest
        i = row4col[j]
        while True:
            scanned_rows.append(i)
            base = min_val - u[i]
            row = cost[i]
            lowest = _INF
            index = -1
            for it, k in enumerate(remaining):
                r = base + row[k] - v[k]
                s = spc[k]
                if r < s:
                    path[k] = i
                    spc[k] = s = r
                if s < lowest or (s == lowest and row4col[k] < 0):
                    lowest = s
                    index = it
            min_val = lowest
            j = remaining[index]
            scanned_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
            if row4col[j] < 0:
                break
            i = row4col[j]
        u[cur] += min_val
        for i in scanned_rows[1:]:
            u[i] += min_val - spc[col4row[i]]
        for k in scanned_cols:
            v[k] -= min_val - spc[k]
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:
        return sorted((j, i) for i, j in enumerate(col4row))
    return list(enumerate(col4row))


def _first_free(values: list[int], target: int, row4col: list[int]) -> int:
    """The smallest column j with values[j] == target that no row holds,
    or -1."""
    j = -1
    try:
        while True:
            j = values.index(target, j + 1)
            if row4col[j] < 0:
                return j
    except ValueError:
        return -1


def _canonicalize(
    pairs: list[tuple[int, int]], cost: list[list[int]]
) -> list[tuple[int, int]]:
    """Swap pair endpoints toward the lexicographically smallest pair list,
    keeping the total of ``cost``, the composite matrix that ``_assign``
    solved.

    Each cell of ``cost`` is ``distance * shift_unit + |i - j|``, or the
    forbidden cost.  Two pairs need ``min(n, m) >= 2``, and then a swap
    changes the total ``|i - j|`` by less than ``shift_unit``: an equal
    composite total means an equal total distance and an equal total
    ``|i - j|``.  A forbidden cell is above any two allowed ones, so a swap
    never creates a forbidden pair.
    Sorted pairs have distinct source indices, so swapping the correction
    indices of pairs a < b gives a smaller list exactly when the correction
    index of b is the smaller one; the swap leaves the list sorted."""
    pairs = sorted(pairs)
    rows = [i for i, _ in pairs]
    cols = [j for _, j in pairs]
    changed = True
    while changed:
        changed = False
        for a in range(len(pairs)):
            i1 = rows[a]
            for b in range(a + 1, len(pairs)):
                j1, j2 = cols[a], cols[b]
                if j2 > j1:
                    continue
                i2 = rows[b]
                if cost[i1][j2] + cost[i2][j1] == cost[i1][j1] + cost[i2][j2]:
                    cols[a], cols[b] = j2, j1
                    changed = True
    return list(zip(rows, cols))


class NodeAlignment(NamedTuple):
    """Partial many-to-1 map from one graph's nodes onto the other's.

    ``direction`` names which side is being aligned: ``s_to_c`` maps source
    nodes onto correction nodes, ``c_to_s`` the reverse.  ``weights`` holds
    each mapped (aligned, target) pair, sorted, with its yield-overlap weight
    (1 for leaf pairs); an aligned node appears in at most one pair.
    """

    direction: str
    weights: tuple[tuple[tuple[str, str], Fraction], ...]

    @property
    def mapping(self) -> tuple[tuple[str, str], ...]:
        """The mapped (aligned, target) pairs, sorted."""
        return tuple(pair for pair, _ in self.weights)

    def pair_set(self) -> frozenset[tuple[str, str]]:
        return frozenset(self.mapping)


def extend_alignment(
    g_aligned: SemanticGraph,
    g_target: SemanticGraph,
    leaf_alignment: LeafAlignment,
    direction: str,
) -> NodeAlignment:
    """Lift a leaf alignment to a node alignment.

    Anchored leaves follow the leaf alignment directly.  Every other
    non-implicit node maps to the target node with maximal positive weight;
    ties prefer the larger target yield, then the smaller node id.  (Weight 1
    is reached by any target whose yield is fully aligned into the node's
    yield, so preferring small yields would send whole-sentence nodes to
    arbitrary single leaves; the large-yield preference keeps the alignment
    the identity on structurally identical graphs.)
    Implicit units (empty yield) are never aligned on either side.
    """
    if direction not in (S_TO_C, C_TO_S):
        raise ValueError(f"unknown direction {direction!r}")
    if direction == S_TO_C:
        token_map = leaf_alignment.source_to_correction()
    else:
        token_map = leaf_alignment.correction_to_source()
    target_leaves = g_target._leaves

    # partners[v]: the target tokens aligned to v's yield, as a bitmask
    partners = dict.fromkeys(g_aligned._yields, 0)
    weights: list[tuple[tuple[str, str], Fraction]] = []
    for a, leaf in g_aligned._leaves.items():
        b = token_map.get(a)
        if b is not None:
            partners[leaf] = 1 << b
            weights.append(((leaf, target_leaves[b]), _ONE))

    targets = _targets(g_target)
    children = g_aligned._children
    best_by_partners: dict[int, tuple[str, Fraction] | None] = {}
    for v in reversed(g_aligned._order):
        kids = children[v]
        if not kids:
            continue  # a leaf, done above, or an implicit unit
        acc = 0
        for kid in kids:
            acc |= partners[kid]
        partners[v] = acc
        if not acc:
            continue
        if acc not in best_by_partners:
            best_by_partners[acc] = _best_target(acc, targets)
        best = best_by_partners[acc]
        if best is not None:
            weights.append(((v, best[0]), best[1]))
    weights.sort()
    return NodeAlignment(direction, tuple(weights))


def _targets(g: SemanticGraph) -> list[tuple[int, str, int]]:
    """(-|yu|, u, token bitmask of yu) for each distinct non-empty yield yu
    of ``g``, sorted: the candidate order among equal weights.  Nodes with
    equal yields tie on weight and yield size, so each yield has one
    candidate, its smallest id.  Built once per graph, then stored on it."""
    if g._targets is None:
        candidates: dict[int, str] = {}
        for u, yu in sorted(g._yields.items()):
            if yu:
                candidates.setdefault(yu, u)
        g._targets = sorted((-yu.bit_count(), u, yu) for yu, u in candidates.items())
    return g._targets


def _best_target(
    partners: int, targets: list[tuple[int, str, int]]
) -> tuple[str, Fraction] | None:
    """The target with maximal positive weight |partners & yu| / |yu|, the
    first in ``targets`` order among equal weights.  Weights are compared
    exactly by cross-multiplying hits and yield sizes.  No weight is above
    1 and a later target wins only with a higher one, so the scan stops at
    the first weight-1 target."""
    best_hits, best_size, best_id = 0, 1, None
    for neg_size, u, yu in targets:
        hits = (partners & yu).bit_count()
        if hits * best_size > best_hits * -neg_size:
            best_hits, best_size, best_id = hits, -neg_size, u
            if hits == -neg_size:
                break
    if best_id is None:
        return None
    return best_id, Fraction(best_hits, best_size)


def format_alignment_dump(
    source_tokens: Sequence[str],
    correction_tokens: Sequence[str],
    leaf_alignment: LeafAlignment,
    node_alignment: NodeAlignment,
) -> str:
    """Human-readable diagnostic listing of leaf pairs with their costs and
    node pairs with their weights, in stable order."""
    lines = ["# leaf pairs (source_index, correction_index, source, correction, cost)"]
    for i, j in sorted(leaf_alignment.pairs):
        cost = edit_distance(source_tokens[i], correction_tokens[j])
        lines.append(f"{i}\t{j}\t{source_tokens[i]}\t{correction_tokens[j]}\t{cost}")
    lines.append(f"# node pairs ({node_alignment.direction}): aligned, target, weight")
    for (v, u), w in node_alignment.weights:
        lines.append(f"{v}\t{u}\t{w.numerator}/{w.denominator}")
    return "\n".join(lines) + "\n"
