"""Rooted labeled DAG over tokens: data model, validation, JSON interchange.

A graph is a rooted DAG whose anchored leaves are in bijection with the
sentence tokens.  Leaves without an anchor are implicit units: they take part
in the structure but have an empty yield.  Edges carry one or more category
labels and may be flagged as remote (re-entrancies, which is what makes the
structure a DAG rather than a tree).
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path


class GraphFormatError(ValueError):
    """Malformed interchange document (bad JSON, missing/ill-typed field)."""


class GraphValidationError(ValueError):
    """Structurally well-formed document that violates a graph invariant."""


@dataclass(frozen=True)
class Node:
    id: str
    anchor: int | None = None  # token index for anchored leaves


@dataclass(frozen=True)
class Edge:
    parent: str
    child: str
    labels: frozenset[str]
    remote: bool = False


@dataclass(frozen=True)
class EdgeInstance:
    """One (parent, child, label) triple; multi-label edges expand to several."""

    parent: str
    child: str
    label: str
    remote: bool = False


@dataclass(frozen=True)
class SemanticGraph:
    id: str
    tokens: tuple[str, ...]
    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]
    root: str
    # Derived state, not constructor arguments, so that dataclasses.replace()
    # starts the new graph with empty stores.  _yields and _children are
    # filled in by _validate(), keyed by node id; _instances by
    # edge_instances() on first use, keyed by include_remote.
    _yields: dict[str, frozenset[int]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )
    _children: dict[str, tuple[str, ...]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )
    _instances: dict[bool, tuple[EdgeInstance, ...]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        self._validate()

    # -- construction-time validation ------------------------------------

    def _validate(self) -> None:
        for i, tok in enumerate(self.tokens):
            if not tok:
                raise GraphValidationError(
                    f"graph {self.id!r}: token {i} has empty text"
                )

        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            dup = sorted({x for x in ids if ids.count(x) > 1})
            raise GraphValidationError(f"graph {self.id!r}: duplicate node ids {dup}")
        if any(not n.id for n in self.nodes):
            raise GraphValidationError(f"graph {self.id!r}: empty node id")
        by_id = {n.id: n for n in self.nodes}
        if self.root not in by_id:
            raise GraphValidationError(
                f"graph {self.id!r}: root {self.root!r} is not a declared node"
            )

        children: dict[str, list[str]] = {n.id: [] for n in self.nodes}
        incoming: dict[str, int] = {n.id: 0 for n in self.nodes}
        for e in self.edges:
            for endpoint in (e.parent, e.child):
                if endpoint not in by_id:
                    raise GraphValidationError(
                        f"graph {self.id!r}: edge {e.parent!r}->{e.child!r} "
                        f"references undeclared node {endpoint!r}"
                    )
            if e.parent == e.child:
                raise GraphValidationError(
                    f"graph {self.id!r}: self-loop on node {e.parent!r}"
                )
            if not e.labels:
                raise GraphValidationError(
                    f"graph {self.id!r}: edge {e.parent!r}->{e.child!r} has no labels"
                )
            children[e.parent].append(e.child)
            incoming[e.child] += 1

        if incoming[self.root]:
            raise GraphValidationError(
                f"graph {self.id!r}: root {self.root!r} has an incoming edge"
            )
        for nid, count in incoming.items():
            if nid != self.root and count == 0:
                raise GraphValidationError(
                    f"graph {self.id!r}: node {nid!r} has no incoming edge"
                )

        # anchors: bijection between anchored nodes and token indices
        anchor_of: dict[int, str] = {}
        for n in self.nodes:
            if n.anchor is None:
                continue
            if not 0 <= n.anchor < len(self.tokens):
                raise GraphValidationError(
                    f"graph {self.id!r}: node {n.id!r} anchors out-of-range "
                    f"token {n.anchor}"
                )
            if n.anchor in anchor_of:
                raise GraphValidationError(
                    f"graph {self.id!r}: token {n.anchor} anchored by both "
                    f"{anchor_of[n.anchor]!r} and {n.id!r}"
                )
            if children[n.id]:
                raise GraphValidationError(
                    f"graph {self.id!r}: anchored node {n.id!r} has outgoing edges"
                )
            anchor_of[n.anchor] = n.id
        missing = [i for i in range(len(self.tokens)) if i not in anchor_of]
        if missing:
            raise GraphValidationError(
                f"graph {self.id!r}: tokens {missing} are not anchored by any leaf"
            )

        # acyclicity + reachability, one DFS from the root
        order: list[str] = []
        state: dict[str, int] = {}  # 1 = on stack, 2 = done
        stack: list[tuple[str, int]] = [(self.root, 0)]
        state[self.root] = 1
        while stack:
            nid, ci = stack[-1]
            kids = children[nid]
            if ci < len(kids):
                stack[-1] = (nid, ci + 1)
                kid = kids[ci]
                st = state.get(kid)
                if st == 1:
                    raise GraphValidationError(
                        f"graph {self.id!r}: cycle through edge {nid!r}->{kid!r}"
                    )
                if st is None:
                    state[kid] = 1
                    stack.append((kid, 0))
            else:
                state[nid] = 2
                order.append(nid)
                stack.pop()
        unreachable = sorted(nid for nid in by_id if nid not in state)
        if unreachable:
            raise GraphValidationError(
                f"graph {self.id!r}: nodes unreachable from root: {unreachable}"
            )

        # yields in reverse topological order (children first)
        yields: dict[str, frozenset[int]] = {}
        for nid in order:
            node = by_id[nid]
            acc: set[int] = set() if node.anchor is None else {node.anchor}
            for kid in children[nid]:
                acc |= yields[kid]
            yields[nid] = frozenset(acc)
        self._yields.update(yields)
        self._children.update({nid: tuple(kids) for nid, kids in children.items()})

    # -- queries ----------------------------------------------------------

    def children_of(self, node_id: str) -> tuple[str, ...]:
        if node_id not in self._children:
            raise KeyError(f"graph {self.id!r}: unknown node {node_id!r}")
        return self._children[node_id]

    def token_texts(self, lowercase: bool = False) -> list[str]:
        return [t.lower() for t in self.tokens] if lowercase else list(self.tokens)

    def anchored_leaves(self) -> dict[int, str]:
        """Token index -> id of the leaf anchoring it."""
        return {n.anchor: n.id for n in self.nodes if n.anchor is not None}


def yield_of(g: SemanticGraph, node_id: str) -> frozenset[int]:
    """Token indices anchored by leaf descendants of the node (itself included)."""
    try:
        return g._yields[node_id]
    except KeyError:
        raise KeyError(f"graph {g.id!r}: unknown node {node_id!r}") from None


def edge_instances(
    g: SemanticGraph, include_remote: bool = True
) -> tuple[EdgeInstance, ...]:
    """Expand multi-label edges into single-label instances, in stable order.

    Built once per graph and flag value, then stored on the graph.
    """
    cached = g._instances.get(include_remote)
    if cached is None:
        out = [
            EdgeInstance(e.parent, e.child, label, e.remote)
            for e in g.edges
            if include_remote or not e.remote
            for label in e.labels
        ]
        out.sort(key=lambda inst: (inst.parent, inst.child, inst.label))
        cached = g._instances[include_remote] = tuple(out)
    return cached


def label_counts(
    g: SemanticGraph, include_remote: bool = True
) -> dict[str, int]:
    counts: dict[str, int] = {}
    for inst in edge_instances(g, include_remote):
        counts[inst.label] = counts.get(inst.label, 0) + 1
    return counts


# -- interchange format ---------------------------------------------------


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


def graph_from_dict(doc: dict) -> SemanticGraph:
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


def graph_to_dict(g: SemanticGraph) -> dict:
    nodes = []
    for n in g.nodes:
        entry: dict = {"id": n.id}
        if n.anchor is not None:
            entry["anchor"] = n.anchor
        nodes.append(entry)
    edges = []
    for e in g.edges:
        entry = {"parent": e.parent, "child": e.child, "labels": sorted(e.labels)}
        if e.remote:
            entry["remote"] = True
        edges.append(entry)
    return {
        "id": g.id,
        "tokens": list(g.tokens),
        "nodes": nodes,
        "edges": edges,
        "root": g.root,
    }


def read_utf8(path: str | Path, error: type[ValueError]) -> str:
    """The text of the UTF-8 file at ``path``.  A file that cannot be read,
    or is not UTF-8, raises ``error``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8: {exc}") from exc


# The JSON escape of a UTF-16 surrogate (\uD800 to \uDFFF), paired or not.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def parse_json(text: str, error: type[ValueError], where: str):
    """The JSON value in ``text``.  Text that is not JSON, that nests deeper
    or holds longer integers than the decoder takes, or that holds a string
    with a lone surrogate (which no UTF-8 report could hold) raises
    ``error`` naming ``where``."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise error(f"{where}: invalid JSON: {exc}") from exc
    # UTF-8 text has no lone surrogate, so only an escape can decode to one.
    if _SURROGATE_ESCAPE.search(text):
        try:
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise error(f"{where}: a string holds a lone surrogate "
                        f"{exc.object[exc.start]!r}") from None
    return doc


def parse_graph(text: str) -> SemanticGraph:
    return graph_from_dict(parse_json(text, GraphFormatError, "document"))


def load_graph(path: str | Path) -> SemanticGraph:
    text = read_utf8(path, GraphFormatError)
    try:
        return parse_graph(text)
    except GraphFormatError as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc


def read_corpus(path: str | Path) -> dict[str, SemanticGraph]:
    """Graphs by id from a directory of documents or a newline-delimited
    file, read in order.  A graph whose id an earlier graph has raises."""
    corpus: dict[str, SemanticGraph] = {}

    def add(g: SemanticGraph) -> None:
        if g.id in corpus:
            raise GraphFormatError(f"{path}: duplicate graph id {g.id!r}")
        corpus[g.id] = g

    source = Path(path)
    if source.is_dir():
        for child in sorted(source.iterdir()):
            if child.is_file():
                add(load_graph(child))
        return corpus
    for lineno, line in enumerate(read_utf8(source, GraphFormatError).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            g = parse_graph(line)
        except GraphFormatError as exc:
            raise GraphFormatError(f"{source} line {lineno}: {exc}") from exc
        add(g)
    return corpus
