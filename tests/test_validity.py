"""The paper's validity claims as properties of the score, over random
tree-shaped graphs and every flag set: a correction that keeps the meaning
(a respelled word) keeps USim at 1, and one that changes it (a relabelled
edge, a deleted word, two swapped words) lowers it.  The one swap that the
measure cannot see is pinned as a property of its own."""
from __future__ import annotations

import random

from hypothesis import given, settings

from helpers_build import LABELS, random_tree_graph
from semfaith import SemanticGraph, edit_distance, usim
from test_invariances import FLAG_SETS, seeds


def respelled(rng: random.Random, word: str) -> str:
    """``word`` after one character substitution, deletion, insertion or
    transposition."""
    while True:
        i = rng.randrange(len(word))
        kind = rng.randrange(4)
        if kind == 0:
            out = word[:i] + rng.choice("abcdefghijklmnopqrstuvwxyz") + word[i + 1:]
        elif kind == 1:
            out = word[:i] + word[i + 1:]
        elif kind == 2:
            out = word[:i] + rng.choice("aeiou") + word[i:]
        else:
            out = word[:i] + word[i + 1:i + 2] + word[i:i + 1] + word[i + 2:]
        if out and out != word:
            return out


def allowed(a: str, b: str, flags: dict) -> bool:
    """Whether the flags let the leaf alignment pair the tokens ``a`` and
    ``b``: their distance over the longer length is within the threshold."""
    if flags["lowercase"]:
        a, b = a.lower(), b.lower()
    limit = flags["max_norm_dist"]
    return limit is None or edit_distance(a, b) / max(len(a), len(b), 1) <= limit


def averages(g_s: SemanticGraph, g_c: SemanticGraph) -> list:
    return [usim(g_s, g_c, **flags).average for flags in FLAG_SETS]


def parent_edges(g: SemanticGraph) -> dict[int, tuple[str, frozenset[str]]]:
    """Token index -> (parent, labels) of the edge into the leaf anchoring it."""
    into = {e.child: (e.parent, e.labels) for e in g.edges}
    return {i: into[leaf] for i, leaf in g._leaves.items()}


def swapped(g: SemanticGraph, i: int, j: int) -> SemanticGraph:
    tokens = list(g.tokens)
    tokens[i], tokens[j] = tokens[j], tokens[i]
    return g._replace(id="c", tokens=tuple(tokens))


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_a_respelled_word_keeps_the_score(seed):
    """Claim (2): replacing one token with a one-character respelling of it,
    the structure kept, scores 1 under every flag set whose threshold allows
    the pair, and only then: a pruned pair leaves the leaf unaligned."""
    rng = random.Random(seed)
    g = random_tree_graph(rng, "s", max_tokens=10)
    k = rng.randrange(len(g.tokens))
    tokens = list(g.tokens)
    tokens[k] = respelled(rng, tokens[k])
    c = g._replace(id="c", tokens=tuple(tokens))
    for flags in FLAG_SETS:
        average = usim(g, c, **flags).average
        assert (average == 1) == allowed(g.tokens[k], tokens[k], flags), flags


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_a_relabelled_edge_lowers_the_score(seed):
    """Claim (3): giving one edge another label scores below 1."""
    rng = random.Random(seed)
    g = random_tree_graph(rng, "s", max_tokens=10)
    edges = list(g.edges)
    k = rng.randrange(len(edges))
    label = rng.choice([x for x in LABELS if x not in edges[k].labels])
    edges[k] = edges[k]._replace(labels=frozenset({label}))
    assert all(a < 1 for a in averages(g, g._replace(id="c", edges=tuple(edges))))


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_a_deleted_word_lowers_the_score(seed):
    """Claim (3): deleting an anchored leaf together with its token and its
    edge scores below 1."""
    rng = random.Random(seed)
    g = random_tree_graph(rng, "s", max_tokens=10)
    k = rng.randrange(len(g.tokens))
    leaf = g._leaves[k]
    nodes = tuple(n._replace(anchor=n.anchor - 1) if n.anchor is not None and n.anchor > k
                  else n for n in g.nodes if n.id != leaf)
    c = g._replace(id="c", tokens=g.tokens[:k] + g.tokens[k + 1:], nodes=nodes,
                   edges=tuple(e for e in g.edges if e.child != leaf))
    assert all(a < 1 for a in averages(g, c))


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_swapped_words_lower_the_score(seed):
    """Claim (3): swapping two different tokens scores below 1, unless their
    leaves share a parent and an edge label (the next test)."""
    rng = random.Random(seed)
    g = random_tree_graph(rng, "s", max_tokens=10)
    into = parent_edges(g)
    swaps = [(i, j) for i in range(len(g.tokens)) for j in range(i)
             if g.tokens[i] != g.tokens[j] and into[i] != into[j]]
    if swaps:
        assert all(a < 1 for a in averages(g, swapped(g, *rng.choice(swaps))))


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_swapped_words_under_one_parent_and_label_keep_the_score(seed):
    """A limit of the measure: USim matches an edge by its label and the
    aligned yield of its child, so swapping two leaves that share a parent
    and an edge label ("John gave Mary" and "Mary gave John", both under
    ``A``) scores exactly 1, when each of the two tokens occurs once.  A
    token that occurs twice may be aligned to its other copy by the
    positional tie-break, and then the swap can score below 1."""
    rng = random.Random(seed)
    swaps = []
    while not swaps:
        g = random_tree_graph(rng, "s", max_tokens=10)
        into = parent_edges(g)
        once = [i for i, t in enumerate(g.tokens) if g.tokens.count(t) == 1]
        swaps = [(i, j) for i in once for j in once if j < i and into[i] == into[j]]
    assert all(a == 1 for a in averages(g, swapped(g, *rng.choice(swaps))))
