"""Faithfulness scores: DAG F-score, directional/averaged USim, DistSim.

All arithmetic is exact (fractions.Fraction); rendering to decimals is left
to the report layer.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .align import (
    C_TO_S,
    S_TO_C,
    LeafAlignment,
    align_leaves,
    extend_alignment,
)
from .graph import EdgeInstance, SemanticGraph, edge_instances, label_counts


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


def _harmonic(p: Fraction, r: Fraction) -> Fraction:
    if p == 0 or r == 0:
        return Fraction(0)
    return 2 * p * r / (p + r)


def _triple(
    matched_candidate: int,
    candidate_count: int,
    matched_reference: int,
    reference_count: int,
) -> ScoreTriple:
    if candidate_count == 0 and reference_count == 0:
        one = Fraction(1)
        return ScoreTriple(one, one, one, 0, 0, 0, 0)
    if candidate_count == 0 or reference_count == 0:
        zero = Fraction(0)
        return ScoreTriple(
            zero, zero, zero,
            matched_candidate, candidate_count, matched_reference, reference_count,
        )
    p = Fraction(matched_candidate, candidate_count)
    r = Fraction(matched_reference, reference_count)
    return ScoreTriple(
        p, r, _harmonic(p, r),
        matched_candidate, candidate_count, matched_reference, reference_count,
    )


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
    inst1 = edge_instances(g1, include_remote)
    inst2 = edge_instances(g2, include_remote)
    keys1 = {(inst.label, g1._yields[inst.child]) for inst in inst1}
    keys2 = {(inst.label, g2._yields[inst.child]) for inst in inst2}
    matched1 = sum(1 for inst in inst1 if (inst.label, g1._yields[inst.child]) in keys2)
    matched2 = sum(1 for inst in inst2 if (inst.label, g2._yields[inst.child]) in keys1)
    return _triple(matched1, len(inst1), matched2, len(inst2))


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


def _score_direction(
    g_s: SemanticGraph,
    g_c: SemanticGraph,
    leaf_alignment: LeafAlignment,
    direction: str,
    include_remote: bool,
    strict_parent: bool,
) -> ScoreTriple:
    if direction == S_TO_C:
        pairs = extend_alignment(g_s, g_c, leaf_alignment, direction).pair_set()
    else:
        node_alignment = extend_alignment(g_c, g_s, leaf_alignment, direction)
        pairs = frozenset((s, c) for c, s in node_alignment.mapping)
    return usim_from_alignment(g_s, g_c, pairs, include_remote, strict_parent)


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
    each direction.
    """
    a_l = align_leaves(
        g_s.token_texts(), g_c.token_texts(),
        lowercase=lowercase, max_norm_dist=max_norm_dist,
    )
    forward = _score_direction(g_s, g_c, a_l, S_TO_C, include_remote, strict_parent)
    backward = _score_direction(g_s, g_c, a_l, C_TO_S, include_remote, strict_parent)
    average = (forward.f_score + backward.f_score) / 2
    return UsimReport(forward, backward, average)


DEFAULT_GROUPS: tuple[tuple[str, frozenset[str]], ...] = (
    ("A+D", frozenset({"A", "D"})),
    ("Scene", frozenset({"H"})),
)


def default_groups(
    pairs: Sequence[tuple[SemanticGraph, SemanticGraph]],
    include_remote: bool = True,
) -> list[tuple[str, frozenset[str]]]:
    """The two category groups reported for UCCA plus one singleton group per
    label observed anywhere in the corpus."""
    observed: set[str] = set()
    for g_s, g_c in pairs:
        observed.update(label_counts(g_s, include_remote))
        observed.update(label_counts(g_c, include_remote))
    groups = list(DEFAULT_GROUPS)
    groups.extend((label, frozenset({label})) for label in sorted(observed))
    return groups


def distsim(
    pairs: Sequence[tuple[SemanticGraph, SemanticGraph]],
    groups: Sequence[tuple[str, frozenset[str]]] | None = None,
    include_remote: bool = True,
) -> list[LabelDistSim]:
    """Mean absolute per-pair difference of labeled edge counts, per group."""
    if not pairs:
        raise ValueError("distsim requires at least one sentence pair")
    if groups is None:
        groups = default_groups(pairs, include_remote)
    counts = [
        (label_counts(g_s, include_remote), label_counts(g_c, include_remote))
        for g_s, g_c in pairs
    ]
    out = []
    for name, labels in groups:
        total = 0
        for c_counts, d_counts in counts:
            c = sum(c_counts.get(label, 0) for label in labels)
            d = sum(d_counts.get(label, 0) for label in labels)
            total += abs(c - d)
        value = Fraction(total, len(pairs))
        out.append(LabelDistSim(name, labels, value, 1 / (1 + value)))
    return out
