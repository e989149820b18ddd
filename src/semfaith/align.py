"""Token and node alignment between a source graph and a correction graph.

Tokens are paired by a minimum-total-edit-distance bipartite assignment;
the pairing is then lifted to graph nodes.  Each node maps to the largest
target node (smallest id among equal sizes) whose yield lies inside the
node's aligned tokens.  That is the paper's argmax of the yield-overlap
weight |aligned tokens of v in yu| / |yu|: no weight is above 1, and a
yield reaches 1 exactly when it is contained, which each aligned token's
own target leaf is.
"""
from __future__ import annotations

from operator import add, sub
from typing import NamedTuple, Sequence

from .graph import SemanticGraph

_INF = float("inf")
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
    """Partial 1-to-1 pairing of source token indices to correction indices,
    stored as the frozenset of the ``(i, j)`` pairs it is built from."""

    __slots__ = ()

    def __new__(cls, pairs):
        pairs = frozenset(pairs)
        if len({i for i, _ in pairs}) != len(pairs) or len({j for _, j in pairs}) != len(pairs):
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
    included.  The one-correction case of ``align_leaves_batch``.
    """
    return align_leaves_batch(source_tokens, [correction_tokens], lowercase, max_norm_dist)[0]


def align_leaves_batch(
    source_tokens: Sequence[str],
    corrections: Sequence[Sequence[str]],
    lowercase: bool = False,
    max_norm_dist: float | None = None,
) -> list[LeafAlignment]:
    """The ``align_leaves`` result of each correction token list against one
    source, in order.

    Each distinct (source string, correction string) pair of the batch has
    its distance computed once, in one table; each correction string's
    allowed cells are also found once.  Each correction is then solved on
    its own, with the composite costs of that pair alone.

    Two short paths give what the full solve would.  A correction equal to
    the source (after lowercasing) gets the diagonal and adds no string to
    the table, unless the threshold is negative and so forbids it: every
    other assignment pairs some i with j != i, so the diagonal is the only
    one of composite cost 0.  Under a threshold, each row of the cost matrix
    starts at the forbidden cost and only its allowed cells are written.
    """
    n = len(source_tokens)
    src = [t.lower() for t in source_tokens] if lowercase else list(source_tokens)
    dsts = [[t.lower() for t in c] if lowercase else list(c) for c in corrections]
    diagonal = max_norm_dist is None or not 0 > max_norm_dist  # NaN allows it
    src_strings, src_ids = _distinct(src)
    # Table column of each distinct string of the corrections to be solved.
    columns: dict[str, int] = {}
    for dst in dsts:
        if n and not (diagonal and dst == src):
            for b in dst:
                columns.setdefault(b, len(columns))
    table = _distance_table(src_strings, list(columns)) if columns else []
    if max_norm_dist is not None:
        # A pair at distance d is forbidden when d over the longer string's
        # length (1 for two empty strings) is above max_norm_dist.
        src_lengths = list(map(len, src_strings))
        allowed = []  # (source string, distance) of each allowed cell, by column
        for b, column in zip(columns, zip(*table)):
            most = max(len(b), 1)
            allowed.append([(a, d) for a, (d, la) in enumerate(zip(column, src_lengths))
                            if not d / (la if la > most else most) > max_norm_dist])
    out = []
    for dst in dsts:
        m = len(dst)
        if n == 0 or m == 0:
            out.append(LeafAlignment(frozenset()))
            continue
        if diagonal and dst == src:
            out.append(LeafAlignment(zip(range(n), range(n))))
            continue
        dst_ids = [columns[b] for b in dst]
        # Composite integer cost: edit distance first, |i - j| as tie-breaker.
        shift_unit = min(n, m) * max(n, m) + 1
        cost = []
        if max_norm_dist is None:
            # ramp[n - 1 - i : n - 1 - i + m] is |i - j| for j in range(m).
            ramp = list(range(n - 1, 0, -1)) + list(range(m))
            scaled_rows = [[row[b] * shift_unit for b in dst_ids] for row in table]
            for i, a in enumerate(src_ids):
                cost.append(list(map(add, scaled_rows[a], ramp[n - 1 - i : n - 1 - i + m])))
            pairs = _assign(cost)
        else:
            # A distance is at most the longer string's length, so with L the
            # longest string of the source and this correction, min(n, m)
            # allowed cells, each at most L * shift_unit + |i - j|, cost less
            # in total than one forbidden cell.
            forbidden = (max([*src_lengths, *map(len, dst)]) + 1) * shift_unit * min(n, m) + 1
            cells: list[list[tuple[int, int]]] = [[] for _ in src_strings]
            for j, b in enumerate(dst_ids):
                for a, d in allowed[b]:
                    cells[a].append((j, d * shift_unit))
            for i, a in enumerate(src_ids):
                row = [forbidden] * m
                for j, scaled in cells[a]:
                    row[j] = scaled + abs(i - j)
                cost.append(row)
            pairs = [(i, j) for i, j in _assign(cost) if cost[i][j] < forbidden]
        out.append(LeafAlignment(_canonicalize(pairs, cost)))
    return out


def _assign(cost: list[list[int]]) -> list[tuple[int, int]]:
    """Minimum-total-cost assignment of the rows of ``cost``, a matrix of at
    least one row and one column, to its columns (or of its columns to its
    rows, when it has fewer), as (row, column) pairs sorted by row.

    A port of the rectangular solver in SciPy's ``linear_sum_assignment``,
    Crouse's shortest augmenting path (Crouse 2016, "On implementing 2D
    rectangular assignment algorithms", IEEE TAES), that keeps its choices
    among equal-cost assignments: rows are augmented in order, each path
    search scans columns from the last to the first, a scanned column is
    replaced by the last unscanned one, and on equal path cost a free column
    wins.  Integer costs keep every reduced cost exact.
    """
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
    nodes onto correction nodes, ``c_to_s`` the reverse.  ``mapping`` holds
    the mapped (aligned, target) pairs, sorted; an aligned node appears in
    at most one pair.
    """

    direction: str
    mapping: tuple[tuple[str, str], ...]

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
    non-implicit node ``v`` with aligned tokens maps to the first target
    node, largest yield first and then smallest id, whose yield lies inside
    the tokens aligned to ``v``'s yield.  This is the argmax of the weight
    |aligned tokens of v in yu| / |yu| with those tie-breaks: no weight is
    above 1, a contained yield has weight 1, and the target leaf of any
    aligned token is one.  (Weight 1 is reached by every contained yield,
    so preferring small yields would send whole-sentence nodes to arbitrary
    single leaves; the large-yield preference keeps the alignment the
    identity on structurally identical graphs.)
    Implicit units (empty yield) are never aligned on either side.
    """
    if direction not in (S_TO_C, C_TO_S):
        raise ValueError(f"unknown direction {direction!r}")
    pairs = leaf_alignment.pairs
    if direction == C_TO_S:
        pairs = [(j, i) for i, j in pairs]
    aligned_leaves = g_aligned._leaves
    target_leaves = g_target._leaves

    # partners[v]: the target tokens aligned to v's yield, as a bitmask
    partners = dict.fromkeys(g_aligned._yields, 0)
    mapping: list[tuple[str, str]] = []
    for a, b in pairs:
        leaf = aligned_leaves[a]
        partners[leaf] = 1 << b
        mapping.append((leaf, target_leaves[b]))

    targets = _targets(g_target)
    children = g_aligned._children
    target_by_partners: dict[int, str] = {}
    for v in g_aligned._yields:  # every child before its parents
        kids = children[v]
        if not kids:
            continue  # a leaf, done above, or an implicit unit
        acc = 0
        for kid in kids:
            acc |= partners[kid]
        partners[v] = acc
        if not acc:
            continue
        if acc not in target_by_partners:
            target_by_partners[acc] = next(u for u, yu in targets if yu & acc == yu)
        mapping.append((v, target_by_partners[acc]))
    mapping.sort()
    return NodeAlignment(direction, tuple(mapping))


def _targets(g: SemanticGraph) -> list[tuple[str, int]]:
    """(u, token bitmask of yu) for each distinct non-empty yield yu of
    ``g``, largest yield first, then smallest id: the candidate order.
    Nodes with equal yields tie on size, so each yield is kept once, at its
    smallest id, the first of them in that order."""
    candidates: dict[int, str] = {}
    for _, u, yu in sorted((-yu.bit_count(), u, yu) for u, yu in g._yields.items() if yu):
        candidates.setdefault(yu, u)
    return [(u, yu) for yu, u in candidates.items()]
