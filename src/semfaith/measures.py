"""Faithfulness scores: DAG F-score, directional/averaged USim, DistSim.

All arithmetic is exact (fractions.Fraction); rendering to decimals is left
to the report layer.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .align import C_TO_S, S_TO_C, align_leaves_batch, extend_alignment
from .graph import EdgeInstance, SemanticGraph, edge_instances


class TokenMismatchError(ValueError):
    """Shared-token comparison requested for graphs with different tokens."""


class ScoreTriple(NamedTuple):
    precision: Fraction
    recall: Fraction
    f_score: Fraction
    matched_candidate: int
    candidate_count: int
    matched_reference: int
    reference_count: int


class UsimReport(NamedTuple):
    s_to_c: ScoreTriple
    c_to_s: ScoreTriple
    average: Fraction


class LabelDistSim(NamedTuple):
    name: str
    labels: frozenset[str]
    value: Fraction  # mean absolute count difference (a distance)
    similarity: Fraction  # unofficial similarity view, 1 / (1 + value)


def _triple(mc: int, cc: int, mr: int, rc: int) -> ScoreTriple:
    """The scores of ``mc`` matched of ``cc`` candidate instances and ``mr``
    matched of ``rc`` reference instances.  F is 2pr / (p + r), computed
    from the counts as 2·mc·mr / (mc·rc + mr·cc), or 0 when either matched
    count is 0.  Two empty sides score 1, and one empty side 0."""
    if not (cc and rc):
        score = Fraction(int(cc == rc))
        return ScoreTriple(score, score, score, mc, cc, mr, rc)
    f = Fraction(2 * mc * mr, mc * rc + mr * cc) if mc and mr else Fraction(0)
    return ScoreTriple(Fraction(mc, cc), Fraction(mr, rc), f, mc, cc, mr, rc)


def dag_fscore(
    g1: SemanticGraph,
    g2: SemanticGraph,
    lowercase: bool = False,
    include_remote: bool = True,
) -> ScoreTriple:
    """Shared-token F-score: an edge instance matches when the other graph
    has an instance with the same label and the same child yield."""
    if g1.token_texts(lowercase) != g2.token_texts(lowercase):
        raise TokenMismatchError(
            f"graphs {g1.id!r} and {g2.id!r} do not share their token list"
        )
    keys1, keys2 = (
        [(inst.label, g._yields[inst.child]) for inst in edge_instances(g, include_remote)]
        for g in (g1, g2))
    found1, found2 = set(keys1), set(keys2)
    return _triple(sum(key in found2 for key in keys1), len(keys1),
                   sum(key in found1 for key in keys2), len(keys2))


def match_edges(
    g_s: SemanticGraph,
    g_c: SemanticGraph,
    alignment: Iterable[tuple[str, str]],
    include_remote: bool = True,
    strict_parent: bool = False,
) -> set[tuple[EdgeInstance, EdgeInstance]]:
    """All (source instance, correction instance) pairs with equal labels
    whose child nodes are paired under the alignment.

    ``alignment`` is a set of (source node, correction node) pairs; it need
    not be functional, which lets callers inject synthetic relations such as
    the same-yield relation.  ``strict_parent`` additionally requires the
    parent nodes to be paired.
    """
    pairs = set(alignment)
    partners: dict[str, list[str]] = {}
    for s_node, c_node in pairs:
        partners.setdefault(s_node, []).append(c_node)
    by_label_child: dict[tuple[str, str], list[EdgeInstance]] = {}
    for ci in edge_instances(g_c, include_remote):
        by_label_child.setdefault((ci.label, ci.child), []).append(ci)
    out: set[tuple[EdgeInstance, EdgeInstance]] = set()
    for si in edge_instances(g_s, include_remote):
        for c_child in partners.get(si.child, ()):
            for ci in by_label_child.get((si.label, c_child), ()):
                if strict_parent and (si.parent, ci.parent) not in pairs:
                    continue
                out.add((si, ci))
    return out


def usim_from_alignment(
    g_s: SemanticGraph,
    g_c: SemanticGraph,
    alignment: Iterable[tuple[str, str]],
    include_remote: bool = True,
    strict_parent: bool = False,
) -> ScoreTriple:
    """Score a pair under an externally supplied node alignment, given as
    (source node, correction node) pairs."""
    matches = match_edges(g_s, g_c, alignment, include_remote, strict_parent)
    matched_s = {si for si, _ in matches}
    matched_c = {ci for _, ci in matches}
    inst_s = edge_instances(g_s, include_remote)
    inst_c = edge_instances(g_c, include_remote)
    # precision over the correction side, recall over the source side
    return _triple(len(matched_c), len(inst_c), len(matched_s), len(inst_s))


def usim(
    g_s: SemanticGraph,
    g_c: SemanticGraph,
    lowercase: bool = False,
    include_remote: bool = True,
    strict_parent: bool = False,
    max_norm_dist: float | None = None,
) -> UsimReport:
    """USim in both alignment directions plus their average F-score.

    Both directions report precision over the correction's edges and recall
    over the source's; the direction only controls which side's nodes are
    argmax-aligned onto the other.  The leaf alignment does not depend on
    the direction, so it is computed once and lifted to a node alignment in
    each direction.  The one-correction case of ``usim_batch``.
    """
    return usim_batch(g_s, [g_c], lowercase, include_remote, strict_parent, max_norm_dist)[0]


def usim_batch(
    g_s: SemanticGraph,
    corrections: Sequence[SemanticGraph],
    lowercase: bool = False,
    include_remote: bool = True,
    strict_parent: bool = False,
    max_norm_dist: float | None = None,
) -> list[UsimReport]:
    """The ``usim`` report of each correction graph against one source, in
    order.  The leaves of all corrections are aligned in one
    ``align_leaves_batch`` call, which computes the distance of each
    distinct string pair once for the whole batch."""
    leaf_alignments = align_leaves_batch(
        g_s.tokens, [g_c.tokens for g_c in corrections], lowercase, max_norm_dist
    )
    reports = []
    for g_c, a_l in zip(corrections, leaf_alignments):
        forward = extend_alignment(g_s, g_c, a_l, S_TO_C).mapping
        backward = [(s, c) for c, s in extend_alignment(g_c, g_s, a_l, C_TO_S).mapping]
        s_to_c = usim_from_alignment(g_s, g_c, forward, include_remote, strict_parent)
        c_to_s = usim_from_alignment(g_s, g_c, backward, include_remote, strict_parent)
        reports.append(UsimReport(s_to_c, c_to_s, (s_to_c.f_score + c_to_s.f_score) / 2))
    return reports


DEFAULT_GROUPS: tuple[tuple[str, frozenset[str]], ...] = (
    ("A+D", frozenset({"A", "D"})),
    ("Scene", frozenset({"H"})),
)


def distsim(
    pairs: Sequence[tuple[SemanticGraph, SemanticGraph]],
    groups: Sequence[tuple[str, frozenset[str]]] | None = None,
    include_remote: bool = True,
) -> list[LabelDistSim]:
    """Mean absolute per-pair difference of labeled edge counts, per group.
    The default groups are ``DEFAULT_GROUPS`` and then one singleton group
    for each label that a counted edge instance carries anywhere in
    ``pairs``, in sorted order."""
    if not pairs:
        raise ValueError("distsim requires at least one sentence pair")
    counts = [[Counter(inst.label for inst in edge_instances(g, include_remote)) for g in pair]
              for pair in pairs]
    if groups is None:
        observed = sorted({label for pair in counts for c in pair for label in c})
        groups = [*DEFAULT_GROUPS, *((label, frozenset({label})) for label in observed)]
    out = []
    for name, labels in groups:
        total = sum(abs(sum(c[label] - d[label] for label in labels)) for c, d in counts)
        value = Fraction(total, len(pairs))
        out.append(LabelDistSim(name, labels, value, 1 / (1 + value)))
    return out
