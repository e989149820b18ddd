"""Shared test utilities: graph builders, random generators, and independent
oracles (exhaustive assignment, labeled-bracket F, order-free edit merge)."""
from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

from semfaith import Edge, EditOperation, Node, SemanticGraph, edit_distance

LABELS = ["A", "P", "E", "C", "H", "D", "R"]
WORDS = [
    "he", "she", "they", "gave", "took", "saw", "an", "the", "a", "apple",
    "book", "idea", "for", "to", "with", "john", "mary", "red", "slowly",
    "yesterday",
]


def make_graph(gid, tokens, nodes, edges, root) -> SemanticGraph:
    """nodes: (id, anchor) pairs; edges: (parent, child, labels, [remote])."""
    node_objs = tuple(Node(nid, anchor) for nid, anchor in nodes)
    edge_objs = tuple(
        Edge(e[0], e[1], frozenset(e[2]), e[3] if len(e) > 3 else False)
        for e in edges
    )
    return SemanticGraph(gid, tuple(tokens), node_objs, edge_objs, root)


def graph_from_nested(gid, tokens, nested, extra_edges=()) -> SemanticGraph:
    """Build a graph from a nested spec.

    A node spec is either a token index (anchored leaf, id "w<index>"),
    a string "implicit:<id>" (unanchored leaf), or a tuple
    (node_id, [(label, child_spec), ...]).  extra_edges entries are
    (parent, child, labels, remote) added on top (e.g. remote edges).
    """
    nodes: list[tuple[str, int | None]] = []
    edges: list[tuple] = []

    def visit(spec) -> str:
        if isinstance(spec, int):
            nid = f"w{spec}"
            nodes.append((nid, spec))
            return nid
        if isinstance(spec, str):
            assert spec.startswith("implicit:")
            nid = spec.split(":", 1)[1]
            nodes.append((nid, None))
            return nid
        nid, children = spec
        nodes.append((nid, None))
        for label, child in children:
            child_id = visit(child)
            edges.append((nid, child_id, {label}))
        return nid

    root = visit(nested)
    edges.extend(extra_edges)
    return make_graph(gid, tokens, nodes, edges, root)


# -- random generators -----------------------------------------------------


def random_tree_graph(rng: random.Random, gid="g", max_tokens=12, tokens=None) -> SemanticGraph:
    """Random tree over contiguous spans; every internal node has >= 2
    children, so all node yields are distinct."""
    if tokens is None:
        n = rng.randint(1, max_tokens)
        tokens = [rng.choice(WORDS) for _ in range(n)]
    n = len(tokens)
    nodes: list[tuple[str, int | None]] = []
    edges: list[tuple] = []
    counter = [0]

    def build(lo: int, hi: int) -> str:
        if hi - lo == 1:
            nid = f"w{lo}"
            nodes.append((nid, lo))
            return nid
        nid = f"n{counter[0]}"
        counter[0] += 1
        nodes.append((nid, None))
        k = rng.randint(2, hi - lo)
        cuts = sorted(rng.sample(range(lo + 1, hi), k - 1))
        bounds = [lo] + cuts + [hi]
        for a, b in zip(bounds, bounds[1:]):
            child = build(a, b)
            edges.append((nid, child, {rng.choice(LABELS)}))
        return nid

    if n == 1:
        nodes.append(("n0", None))
        leaf = "w0"
        nodes.append((leaf, 0))
        edges.append(("n0", leaf, {rng.choice(LABELS)}))
        root = "n0"
    else:
        root = build(0, n)
    return make_graph(gid, tokens, nodes, edges, root)


def _descendants_closure(g: SemanticGraph, nid: str) -> set[str]:
    seen = set()
    frontier = [nid]
    while frontier:
        cur = frontier.pop()
        for child in g._children[cur]:
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    return seen


def add_random_remotes(rng: random.Random, g: SemanticGraph, max_remotes=2,
                       distinct_yields=False) -> SemanticGraph:
    """Add up to max_remotes acyclicity-preserving remote edges."""
    from semfaith import yield_of

    for _ in range(rng.randint(0, max_remotes)):
        internal = sorted(n.id for n in g.nodes if g._children[n.id])
        rng.shuffle(internal)
        existing = {(e.parent, e.child) for e in g.edges}
        placed = False
        for parent in internal:
            candidates = [
                n.id for n in g.nodes
                if n.id != parent
                and n.id != g.root
                and (parent, n.id) not in existing
                and parent not in _descendants_closure(g, n.id)  # keep acyclic
            ]
            rng.shuffle(candidates)
            for child in candidates:
                label = rng.choice(LABELS)
                trial = make_graph(
                    g.id, g.tokens,
                    [(n.id, n.anchor) for n in g.nodes],
                    [(e.parent, e.child, set(e.labels), e.remote) for e in g.edges]
                    + [(parent, child, {label}, True)],
                    g.root,
                )
                if distinct_yields:
                    yields = [yield_of(trial, n.id) for n in trial.nodes]
                    if len(set(yields)) != len(yields):
                        continue
                g = trial
                placed = True
                break
            if placed:
                break
        if not placed:
            break
    return g


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


def random_valid_graph(rng: random.Random, gid="g", max_tokens=10,
                       distinct_yields=True) -> SemanticGraph:
    g = random_tree_graph(rng, gid, max_tokens)
    return add_random_remotes(rng, g, distinct_yields=distinct_yields)


# -- oracles ---------------------------------------------------------------


def brute_min_assignment_cost(source_tokens, correction_tokens) -> int:
    """Exact minimum total edit distance over all injective assignments,
    by exhaustive bitmask dynamic programming."""
    small, large = source_tokens, correction_tokens
    if len(small) > len(large):
        small, large = large, small
    if not small:
        return 0
    dist = [[edit_distance(a, b) for b in large] for a in small]
    m = len(large)
    INF = float("inf")
    best = {0: 0}
    for i in range(len(small)):
        nxt: dict[int, float] = {}
        for mask, cost in best.items():
            for j in range(m):
                if mask & (1 << j):
                    continue
                key = mask | (1 << j)
                cand = cost + dist[i][j]
                if cand < nxt.get(key, INF):
                    nxt[key] = cand
        best = nxt
    return int(min(best.values()))


def parseval_fscore(g1: SemanticGraph, g2: SemanticGraph):
    """Independent labeled-bracket F over trees with contiguous yields.

    One bracket per edge instance: (label, start, end) of the child span.
    Returns (precision, recall, f) as exact fractions.
    """
    from semfaith import edge_instances, yield_of

    def brackets(g):
        out = []
        for inst in edge_instances(g):
            y = sorted(yield_of(g, inst.child))
            assert y and y == list(range(y[0], y[-1] + 1)), "non-contiguous yield"
            out.append((inst.label, y[0], y[-1] + 1))
        return Counter(out)

    b1, b2 = brackets(g1), brackets(g2)
    if not b1 and not b2:
        return Fraction(1), Fraction(1), Fraction(1)
    if not b1 or not b2:
        return Fraction(0), Fraction(0), Fraction(0)
    matched = sum((b1 & b2).values())
    p = Fraction(matched, sum(b1.values()))
    r = Fraction(matched, sum(b2.values()))
    f = Fraction(0) if p == 0 or r == 0 else 2 * p * r / (p + r)
    return p, r, f


def merge_edits_order_free(tokens, edits: list[EditOperation]) -> tuple[str, ...]:
    """Order-independent result of applying non-overlapping edits: walk the
    original positions, splicing each edit's replacement in place.  At a
    shared boundary an insertion's block precedes a replacement's block."""
    inserts = {e.start: e for e in edits if e.start == e.end}
    repl_at = {e.start: e for e in edits if e.start != e.end}
    out: list[str] = []
    p = 0
    n = len(tokens)
    while p <= n:
        if p in inserts:
            out.extend(inserts[p].replacement)
        if p in repl_at:
            edit = repl_at[p]
            out.extend(edit.replacement)
            p = edit.end
            continue
        if p < n:
            out.append(tokens[p])
        p += 1
    return tuple(out)
