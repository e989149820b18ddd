#!/usr/bin/env python3
"""Seeded inputs for the benchmark workloads, and the stand-in parser.

    python3 bench/gen.py --workload corpus-long --seed 0 --out DIR

writes the workload's input files and a ``meta.json`` that records what the
correctness gate needs (pair ids, identity pairs, edit-type counts) and why
the workload exists.  The same seed gives byte-identical files under any
``PYTHONHASHSEED``: every random draw comes from ``random.Random`` seeded
with a string, and no set or hash order reaches the output.

This file uses the standard library only.  It imports nothing from the
package or its tests, so editing either cannot change the inputs.

Sizes are fixed multisets that the seed only shuffles (sentence lengths, edit
counts, wrapper-chain lengths), so the total work of a workload barely
depends on the seed and runs with different seeds stay comparable.
"""
from __future__ import annotations

import argparse
import json
import random
import zlib
from pathlib import Path

WORKLOADS = {
    "corpus-long": (
        "60-140 token pairs with a large vocabulary (few repeated token pairs): "
        "edit distances and the assignment dominate; scored with --jobs 2"
    ),
    "corpus-deep": (
        "20-token pairs over ~140-node wrapper-chain graphs and a 20-word vocabulary: "
        "the extend_alignment argmax dominates; the sequential corpus path"
    ),
    "maege-chains": (
        "maege gen + stand-in parser + maege score --lowercase --max-norm-dist 0.6: "
        "many small usim calls against one source per chain; hundreds of graph files"
    ),
}

SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
FUNCTION_WORDS = ["the", "a", "of", "to", "and", "in", "is", "it"]
LABELS = ["A", "P", "S", "D", "C", "E", "N", "R", "H", "L", "F", "G"]
DEEP_WORDS = [
    "he", "she", "they", "gave", "took", "saw", "an", "the", "a", "apple",
    "book", "idea", "for", "to", "with", "john", "mary", "red", "slowly", "today",
]
DETERMINERS = ["the", "a", "an"]

LONG_PAIRS = 12
LONG_FUNCTION_WORD_RATE = 0.04
DEEP_PAIRS = 24
DEEP_WRAPPERS = [3, 4, 5, 6, 7]  # unary wrappers above each leaf, cycled
MAEGE_SENTENCES = 40
MAEGE_EDIT_COUNTS = [2, 3, 4, 5, 6]  # edits per sentence, cycled
MAEGE_LENGTHS = [16, 17, 18, 19, 20, 21, 22, 23, 24]
IDENTITY_SHARE = 10  # one corpus-long pair in this many is an identity pair


# -- synthetic text --------------------------------------------------------


def make_vocab(size: int, max_syllables: int) -> list[str]:
    """A synthetic vocabulary.  It does not depend on the workload seed, so
    every seed draws its sentences from the same words."""
    rng = random.Random(f"semfaith-bench:vocab:{size}:{max_syllables}")
    seen: set[str] = set(FUNCTION_WORDS)
    words: list[str] = []
    while len(words) < size:
        word = "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(1, max_syllables)))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def typo(rng: random.Random, word: str) -> str:
    """One-character substitution, deletion, insertion or transposition."""
    while True:
        i = rng.randrange(len(word))
        kind = rng.randrange(4)
        if kind == 0:
            out = word[:i] + rng.choice("abcdefghijklmnopqrstuvwxyz") + word[i + 1:]
        elif kind == 1 and len(word) > 1:
            out = word[:i] + word[i + 1:]
        elif kind == 2:
            out = word[:i] + rng.choice("aeiou") + word[i:]
        else:
            out = word[:i] + word[i + 1:i + 2] + word[i:i + 1] + word[i + 2:]
        if out and out != word:
            return out


def spread(lo: int, hi: int, count: int) -> list[int]:
    """``count`` (at least 2) evenly spaced integers from ``lo`` to ``hi``."""
    return [lo + round(k * (hi - lo) / (count - 1)) for k in range(count)]


# -- graphs as object trees ------------------------------------------------


class Unit:
    """A node: a token leaf (``text``) or an internal node (``kids``).
    ``kids`` and ``remotes`` hold [labels, Unit]."""

    __slots__ = ("text", "kids", "remotes")

    def __init__(self, text: str | None = None) -> None:
        self.text = text
        self.kids: list[list] = []
        self.remotes: list[list] = []


def walk(root: Unit) -> list[Unit]:
    """Pre-order over primary (non-remote) edges."""
    out, stack = [], [root]
    while stack:
        u = stack.pop()
        out.append(u)
        stack.extend(k for _, k in reversed(u.kids))
    return out


def edge_labels(rng: random.Random) -> list[str]:
    labels = [rng.choice(LABELS)]
    if rng.random() < 0.05:
        labels.append(rng.choice([x for x in LABELS if x != labels[0]]))
    return labels


def flat_tree(rng: random.Random, words: list[str], max_kids: int | None = 9) -> Unit:
    """UCCA-like tree over contiguous spans, 2 to ``max_kids`` children per
    node (about 1.3 nodes per token at 9; None allows the span's width).
    Every internal node has at least two children and there are no implicit
    units, so node yields are distinct until remote edges are added."""

    def build(lo: int, hi: int) -> Unit:
        if hi - lo == 1:
            return Unit(words[lo])
        node = Unit()
        k = min(hi - lo, rng.randint(2, hi - lo if max_kids is None else max_kids))
        cuts = sorted(rng.sample(range(lo + 1, hi), k - 1))
        for a, b in zip([lo] + cuts, cuts + [hi]):
            node.kids.append([edge_labels(rng), build(a, b)])
        return node

    return build(0, len(words))


def spine_tree(rng: random.Random, words: list[str], wrappers: list[int]) -> Unit:
    """Right-branching spine; each token hangs under a chain of unary
    wrapper nodes (about 7 nodes per token)."""
    root = spine = Unit()
    for i, (word, depth) in enumerate(zip(words, wrappers)):
        chain = Unit(word)
        for _ in range(depth):
            wrapper = Unit()
            wrapper.kids.append([[rng.choice(LABELS)], chain])
            chain = wrapper
        spine.kids.append([["C"], chain])
        if i + 1 < len(words):
            nxt = Unit()
            spine.kids.append([["E"], nxt])
            spine = nxt
    return root


def reaches(start: Unit, target: Unit) -> bool:
    seen, stack = set(), [start]
    while stack:
        u = stack.pop()
        if u is target:
            return True
        if id(u) in seen:
            continue
        seen.add(id(u))
        stack.extend(k for _, k in u.kids + u.remotes)
    return False


def yields_distinct(root: Unit) -> bool:
    """Whether all nodes have pairwise distinct yields (remotes included)."""
    nodes = walk(root)
    leaf_index = {id(u): i for i, u in enumerate(u for u in nodes if u.text is not None)}
    memo: dict[int, frozenset[int]] = {}

    def yield_of(u: Unit) -> frozenset[int]:
        if id(u) not in memo:
            acc = {leaf_index[id(u)]} if u.text is not None else set()
            for _, k in u.kids + u.remotes:
                acc |= yield_of(k)
            memo[id(u)] = frozenset(acc)
        return memo[id(u)]

    return len({yield_of(u) for u in nodes}) == len(nodes)


def add_remotes(rng: random.Random, root: Unit, count: int,
                distinct_yields: bool = False) -> None:
    """Up to ``count`` acyclic remote edges; with ``distinct_yields`` a
    remote is kept only if node yields stay pairwise distinct.  Identity
    pairs need that: ``extend_alignment`` sends every node of one yield to
    the same target node, so an identical graph with two nodes of equal
    yield scores below 1."""
    nodes = walk(root)
    internal = [u for u in nodes if u.kids]
    for _ in range(count):
        parent = rng.choice(internal)
        taken = {id(k) for _, k in parent.kids + parent.remotes}
        options = [
            u for u in nodes
            if u is not root and u is not parent and id(u) not in taken
            and not reaches(u, parent)
        ]
        rng.shuffle(options)
        for child in options[:20]:
            parent.remotes.append([["A"], child])
            if not distinct_yields or yields_distinct(root):
                break
            parent.remotes.pop()


def clone(root: Unit) -> Unit:
    copies: dict[int, Unit] = {}
    for u in walk(root):
        c = Unit(u.text)
        copies[id(u)] = c
    for u in walk(root):
        c = copies[id(u)]
        c.kids = [[list(labels), copies[id(k)]] for labels, k in u.kids]
        c.remotes = [[list(labels), copies[id(k)]] for labels, k in u.remotes]
    return copies[id(root)]


def token_leaves(root: Unit) -> list[tuple[Unit, Unit]]:
    """(parent, leaf) for every token leaf, in token order."""
    out = []

    def visit(u: Unit) -> None:
        for _, k in u.kids:
            if k.text is not None:
                out.append((u, k))
            else:
                visit(k)

    visit(root)
    return out


def edit_tree(rng: random.Random, root: Unit, count: int, vocab: list[str],
              kinds: tuple[str, ...] = ("substitute", "insert", "delete", "typo")) -> None:
    """Apply ``count`` token edits of the given kinds in place."""
    leaves = token_leaves(root)
    parent_of = {id(k): u for u in walk(root) for _, k in u.kids}
    deletions = 0
    for pos in sorted(rng.sample(range(len(leaves)), count)):
        parent, leaf = leaves[pos]
        kind = rng.choice(kinds)
        if kind == "delete" and deletions + 2 >= len(leaves):
            kind = "substitute"
        if kind == "substitute":
            old = leaf.text
            while leaf.text == old:
                leaf.text = rng.choice(vocab)
        elif kind == "typo":
            leaf.text = typo(rng, leaf.text)
        elif kind == "insert":
            at = next(i for i, (_, k) in enumerate(parent.kids) if k is leaf)
            parent.kids.insert(at + 1, [[rng.choice(LABELS)], Unit(rng.choice(vocab))])
        else:
            deletions += 1
            node = leaf
            while True:
                up = parent_of[id(node)]
                up.kids = [e for e in up.kids if e[1] is not node]
                if up.kids or up is root:
                    break
                node = up
    alive = {id(u) for u in walk(root)}
    for u in walk(root):
        u.remotes = [e for e in u.remotes if id(e[1]) in alive]


def to_doc(gid: str, root: Unit) -> dict:
    """The graph interchange document; ids follow pre-order position."""
    tokens: list[str] = []
    nodes: list[dict] = []
    edges: list[dict] = []
    ids: dict[int, str] = {}
    for u in walk(root):
        if u.text is not None:
            nid = f"w{len(tokens)}"
            nodes.append({"id": nid, "anchor": len(tokens)})
            tokens.append(u.text)
        else:
            nid = f"n{len(nodes) - len(tokens)}"
            nodes.append({"id": nid})
        ids[id(u)] = nid
    for u in walk(root):
        for labels, k in u.kids:
            edges.append({"parent": ids[id(u)], "child": ids[id(k)], "labels": sorted(labels)})
    for u in walk(root):
        for labels, k in u.remotes:
            edges.append({"parent": ids[id(u)], "child": ids[id(k)],
                          "labels": sorted(labels), "remote": True})
    return {"id": gid, "tokens": tokens, "nodes": nodes, "edges": edges, "root": ids[id(root)]}


def dumps(doc) -> str:
    return json.dumps(doc, ensure_ascii=False, sort_keys=True)


# -- workloads -------------------------------------------------------------


def long_pair(rng: random.Random, vocab: list[str], n: int, gid: str,
              identity: bool) -> tuple[dict, dict]:
    """One corpus-long pair of ``n`` source tokens; ~15% token edits.

    Identical graphs score 1 only when all node yields are distinct (see
    ``add_remotes``), so only identity pairs keep their yields distinct;
    the other pairs take remote edges as they fall."""
    words = [
        rng.choice(FUNCTION_WORDS) if rng.random() < LONG_FUNCTION_WORD_RATE
        else rng.choice(vocab)
        for _ in range(n)
    ]
    src = flat_tree(rng, words)
    add_remotes(rng, src, rng.randint(0, 3), distinct_yields=identity)
    cor = src if identity else clone(src)
    if not identity:
        edit_tree(rng, cor, round(0.15 * n), vocab)
    return to_doc(gid, src), to_doc(gid, cor)


def gen_corpus(workload: str, seed: int, out: Path) -> dict:
    rng = random.Random(f"semfaith-bench:{workload}:{seed}")
    pairs = LONG_PAIRS if workload == "corpus-long" else DEEP_PAIRS
    ids = [f"p{k:03d}" for k in range(pairs)]
    identity: list[str] = []
    src_lines, cor_lines = [], []
    if workload == "corpus-long":
        identity = sorted(rng.sample(ids, -(-pairs // IDENTITY_SHARE)))
        vocab = make_vocab(6000, 4)
        lengths = spread(60, 140, pairs)
        rng.shuffle(lengths)
        for gid, n in zip(ids, lengths):
            src, cor = long_pair(rng, vocab, n, gid, gid in identity)
            src_lines.append(dumps(src))
            cor_lines.append(dumps(cor))
    else:
        for gid in ids:
            wrappers = (DEEP_WRAPPERS * 4)[:20]
            rng.shuffle(wrappers)
            words = [rng.choice(DEEP_WORDS) for _ in range(20)]
            src = spine_tree(rng, words, wrappers)
            add_remotes(rng, src, rng.randint(0, 3))
            cor = clone(src)
            edit_tree(rng, cor, 3, DEEP_WORDS, ("substitute", "insert", "delete"))
            src_lines.append(dumps(to_doc(gid, src)))
            cor_lines.append(dumps(to_doc(gid, cor)))
    (out / "source.jsonl").write_text("\n".join(src_lines) + "\n", encoding="utf-8")
    (out / "correction.jsonl").write_text("\n".join(cor_lines) + "\n", encoding="utf-8")
    return {"pairs": ids, "identity": identity, "items": pairs}


def maege_edits(rng: random.Random, tokens: list[str], count: int,
                vocab: list[str]) -> list[dict]:
    """``count`` typed, non-overlapping edits; edit k owns tokens [2s, 2s+2)
    of a distinct slot s, so spans never overlap."""
    types = ["R:SPELL", "R:VERB", "R:ORTH", "M:DET", "U:DET", "R:WO"]
    edits = []
    for slot in sorted(rng.sample(range(len(tokens) // 2), count)):
        i = 2 * slot
        kind = rng.choice(types)
        if kind == "R:WO" and tokens[i] == tokens[i + 1]:
            kind = "R:SPELL"
        if kind == "R:SPELL":
            edit = (i, i + 1, [typo(rng, tokens[i])])
        elif kind == "R:VERB":
            edit = (i, i + 1, [rng.choice([w for w in vocab if w != tokens[i]])])
        elif kind == "R:ORTH":
            word = tokens[i]
            edit = (i, i + 1, [word[0].swapcase() + word[1:]])
        elif kind == "M:DET":
            edit = (i, i, [rng.choice(DETERMINERS)])
        elif kind == "U:DET":
            edit = (i, i + 1, [])
        else:
            edit = (i, i + 2, [tokens[i + 1], tokens[i]])
        edits.append({"start": edit[0], "end": edit[1], "replacement": edit[2], "type": kind})
    return edits


def gen_maege(seed: int, out: Path) -> dict:
    rng = random.Random(f"semfaith-bench:maege-chains:{seed}")
    vocab = make_vocab(150, 3)
    counts = (MAEGE_EDIT_COUNTS * MAEGE_SENTENCES)[:MAEGE_SENTENCES]
    lengths = (MAEGE_LENGTHS * MAEGE_SENTENCES)[:MAEGE_SENTENCES]
    rng.shuffle(counts)
    rng.shuffle(lengths)
    lines, type_counts = [], {}
    for k, (count, n) in enumerate(zip(counts, lengths)):
        words = [rng.choice(FUNCTION_WORDS) if rng.random() < 0.2 else rng.choice(vocab)
                 for _ in range(n)]
        words[0] = words[0].capitalize()
        edits = maege_edits(rng, words, count, vocab)
        for e in edits:
            type_counts[e["type"]] = type_counts.get(e["type"], 0) + 1
        lines.append(dumps({"sentence_id": f"s{k:03d}", "tokens": words, "edits": edits}))
    (out / "edits.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {
        "sentences": MAEGE_SENTENCES,
        "items": sum(counts) + MAEGE_SENTENCES,
        "type_counts": dict(sorted(type_counts.items())),
    }


def generate(workload: str, seed: int, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    if workload == "maege-chains":
        meta = gen_maege(seed, out)
    else:
        meta = gen_corpus(workload, seed, out)
    meta = {"workload": workload, "seed": seed, "why": WORKLOADS[workload], **meta}
    (out / "meta.json").write_text(dumps(meta) + "\n", encoding="utf-8")
    return meta


# -- stand-in parser for maege-chains -------------------------------------


def _hash(text: str) -> int:
    return zlib.crc32(text.lower().encode("utf-8"))


def parse_tokens(gid: str, tokens: list[str]) -> dict:
    """A deterministic stand-in for a semantic parser.  Structure depends
    only on nearby tokens, so one edit changes the graph only locally:
    phrases of up to 4 tokens, scenes of up to 3 phrases, and one remote
    edge from the second scene into the first."""
    phrases: list[list[int]] = []
    for i, tok in enumerate(tokens):
        if not phrases or _hash(tok) % 3 == 0 or len(phrases[-1]) == 4:
            phrases.append([])
        phrases[-1].append(i)
    scenes: list[list[list[int]]] = []
    for phrase in phrases:
        if not scenes or _hash(tokens[phrase[0]]) % 4 == 0 or len(scenes[-1]) == 3:
            scenes.append([])
        scenes[-1].append(phrase)
    nodes = [{"id": "root"}] + [{"id": f"w{i}", "anchor": i} for i in range(len(tokens))]
    edges = []
    first_phrase = []
    for s, scene in enumerate(scenes):
        sid = f"s{s}"
        nodes.append({"id": sid})
        edges.append({"parent": "root", "child": sid, "labels": ["H"]})
        for phrase in scene:
            head = tokens[phrase[-1]]
            label = "PADAS"[_hash(head) % 5]
            if len(phrase) == 1:
                child = f"w{phrase[0]}"
            else:
                child = f"p{phrase[0]}"
                nodes.append({"id": child})
                for i in phrase:
                    edges.append({"parent": child, "child": f"w{i}",
                                  "labels": ["C" if i == phrase[-1] else "E"]})
            edges.append({"parent": sid, "child": child, "labels": [label]})
            if s == 0 and not first_phrase:
                first_phrase.append(child)
    if len(scenes) > 1:
        edges.append({"parent": "s1", "child": first_phrase[0], "labels": ["A"], "remote": True})
    return {"id": gid, "tokens": list(tokens), "nodes": nodes, "edges": edges, "root": "root"}


def parse_manifest(manifest: Path, out: Path) -> None:
    """Write ``<version_id>.json`` for every manifest version."""
    doc = json.loads(manifest.read_text(encoding="utf-8"))
    out.mkdir(parents=True, exist_ok=True)
    for v in doc["versions"]:
        graph = parse_tokens(v["version_id"], v["tokens"])
        (out / f"{v['version_id']}.json").write_text(dumps(graph) + "\n", encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
