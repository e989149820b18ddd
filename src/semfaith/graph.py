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
from pathlib import Path
from typing import NamedTuple


class GraphFormatError(ValueError):
    """Malformed interchange document (bad JSON, missing/ill-typed field)."""


class GraphValidationError(ValueError):
    """Structurally well-formed document that violates a graph invariant."""


class Node(NamedTuple):
    id: str
    anchor: int | None = None  # token index for anchored leaves


class Edge(NamedTuple):
    parent: str
    child: str
    labels: frozenset[str]
    remote: bool = False


class EdgeInstance(NamedTuple):
    """One (parent, child, label) triple; multi-label edges expand to several."""

    parent: str
    child: str
    label: str
    remote: bool = False


class _GraphFields(NamedTuple):
    id: str
    tokens: tuple[str, ...]
    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]
    root: str


class SemanticGraph(_GraphFields):
    """A validated graph.  Its five fields are read-only and make up its
    equality and hash.  The stores derived from them are attributes outside
    both: ``_validate`` fills ``_yields`` (node id -> token bitmask),
    ``_children`` (node id -> child ids), ``_order`` (node ids, every parent
    before its children) and ``_leaves`` (token index -> anchoring leaf id);
    ``edge_instances`` fills ``_instances`` and the alignment ``_targets``
    on first use."""

    def __new__(cls, id, tokens, nodes, edges, root):
        self = super().__new__(cls, id, tokens, nodes, edges, root)
        self._validate()
        self._instances = {}
        self._targets = None
        return self

    @classmethod
    def _make(cls, fields):  # _replace builds through here: validate it too
        return cls(*fields)

    # -- construction-time validation ------------------------------------

    def _validate(self) -> None:
        gid, tokens, nodes, edges, root = self
        if not all(tokens):
            i = next(i for i, tok in enumerate(tokens) if not tok)
            raise GraphValidationError(f"graph {gid!r}: token {i} has empty text")

        anchors = dict(nodes)  # node id -> anchor
        if len(anchors) != len(nodes):
            ids = [n.id for n in nodes]
            dup = sorted({x for x in ids if ids.count(x) > 1})
            raise GraphValidationError(f"graph {gid!r}: duplicate node ids {dup}")
        if not all(anchors):
            raise GraphValidationError(f"graph {gid!r}: empty node id")
        if root not in anchors:
            raise GraphValidationError(
                f"graph {gid!r}: root {root!r} is not a declared node"
            )

        children: dict[str, list[str]] = {nid: [] for nid in anchors}
        incoming = dict.fromkeys(anchors, 0)
        for parent, child, labels, _ in edges:
            if parent not in anchors or child not in anchors:
                endpoint = child if parent in anchors else parent
                raise GraphValidationError(
                    f"graph {gid!r}: edge {parent!r}->{child!r} "
                    f"references undeclared node {endpoint!r}"
                )
            if parent == child:
                raise GraphValidationError(f"graph {gid!r}: self-loop on node {parent!r}")
            if not labels:
                raise GraphValidationError(
                    f"graph {gid!r}: edge {parent!r}->{child!r} has no labels"
                )
            children[parent].append(child)
            incoming[child] += 1

        if incoming[root]:
            raise GraphValidationError(
                f"graph {gid!r}: root {root!r} has an incoming edge"
            )
        if list(incoming.values()).count(0) != 1:
            nid = next(nid for nid, count in incoming.items() if nid != root and not count)
            raise GraphValidationError(f"graph {gid!r}: node {nid!r} has no incoming edge")

        # anchors: bijection between anchored nodes and token indices
        leaves: dict[int, str] = {}
        for nid, anchor in anchors.items():
            if anchor is None:
                continue
            if not 0 <= anchor < len(tokens):
                raise GraphValidationError(
                    f"graph {gid!r}: node {nid!r} anchors out-of-range token {anchor}"
                )
            if anchor in leaves:
                raise GraphValidationError(
                    f"graph {gid!r}: token {anchor} anchored by both "
                    f"{leaves[anchor]!r} and {nid!r}"
                )
            if children[nid]:
                raise GraphValidationError(
                    f"graph {gid!r}: anchored node {nid!r} has outgoing edges"
                )
            leaves[anchor] = nid
        if len(leaves) != len(tokens):
            missing = [i for i in range(len(tokens)) if i not in leaves]
            raise GraphValidationError(
                f"graph {gid!r}: tokens {missing} are not anchored by any leaf"
            )

        # Kahn's algorithm from the root, the only node without an incoming
        # edge.  It orders every node exactly when all are reachable and none
        # is on a cycle; otherwise the DFS names the fault.
        order = [root]
        for nid in order:
            for kid in children[nid]:
                incoming[kid] -= 1
                if not incoming[kid]:
                    order.append(kid)
        if len(order) != len(anchors):
            _raise_cycle_or_unreachable(gid, root, children)

        # yields, children first
        yields: dict[str, int] = {}
        for nid in reversed(order):
            anchor = anchors[nid]
            acc = 0 if anchor is None else 1 << anchor
            for kid in children[nid]:
                acc |= yields[kid]
            yields[nid] = acc
        self._yields = yields
        self._children = children
        self._order = order
        self._leaves = leaves

    # -- queries ----------------------------------------------------------

    def children_of(self, node_id: str) -> tuple[str, ...]:
        if node_id not in self._children:
            raise KeyError(f"graph {self.id!r}: unknown node {node_id!r}")
        return tuple(self._children[node_id])

    def token_texts(self, lowercase: bool = False) -> list[str]:
        return [t.lower() for t in self.tokens] if lowercase else list(self.tokens)

    def anchored_leaves(self) -> dict[int, str]:
        """Token index -> id of the leaf anchoring it."""
        return dict(self._leaves)


def _raise_cycle_or_unreachable(gid: str, root: str, children: dict[str, list[str]]):
    """Raise for the first cycle a DFS from the root meets, else for the
    nodes it does not reach."""
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
                raise GraphValidationError(
                    f"graph {gid!r}: cycle through edge {nid!r}->{kid!r}"
                )
            if st is None:
                state[kid] = 1
                stack.append((kid, 0))
        else:
            state[nid] = 2
            stack.pop()
    unreachable = sorted(nid for nid in children if nid not in state)
    raise GraphValidationError(f"graph {gid!r}: nodes unreachable from root: {unreachable}")


def yield_of(g: SemanticGraph, node_id: str) -> frozenset[int]:
    """Token indices anchored by leaf descendants of the node (itself included)."""
    try:
        mask = g._yields[node_id]
    except KeyError:
        raise KeyError(f"graph {g.id!r}: unknown node {node_id!r}") from None
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


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


def _node(raw, where: str, i: int) -> Node:
    """``nodes[i]`` of a document, checked field by field."""
    if not isinstance(raw, dict):
        raise GraphFormatError(f"{where}: nodes[{i}] must be an object")
    nid = _require(raw, "id", str, f"{where} nodes[{i}]")
    anchor = raw.get("anchor")
    if anchor is not None and (isinstance(anchor, bool) or not isinstance(anchor, int)):
        raise GraphFormatError(f"{where}: nodes[{i}].anchor must be an integer")
    return Node(nid, anchor)


def _edge(raw, where: str, i: int) -> Edge:
    """``edges[i]`` of a document, checked field by field."""
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
    return Edge(parent, child, frozenset(labels), remote)


_is_str = str.__instancecheck__  # isinstance(x, str), as a function for map


def graph_from_dict(doc: dict) -> SemanticGraph:
    """The graph of an interchange document.  A node or edge record that
    holds exactly the JSON types costs one type test per field; any other
    goes through ``_node`` or ``_edge``, which name its first fault or, for
    a subclass of those types, build the same record."""
    if not isinstance(doc, dict):
        raise GraphFormatError(f"document must be an object, got {type(doc).__name__}")
    gid = _require(doc, "id", str, "document")
    where = f"graph {gid!r}"
    tokens = _require(doc, "tokens", list, where)
    if not all(map(_is_str, tokens)):
        i = next(i for i, text in enumerate(tokens) if not isinstance(text, str))
        raise GraphFormatError(f"{where}: tokens[{i}] must be a string")
    nodes = []
    for i, raw in enumerate(_require(doc, "nodes", list, where)):
        if type(raw) is dict:
            nid, anchor = raw.get("id"), raw.get("anchor")
            if type(nid) is str and (anchor is None or type(anchor) is int):
                nodes.append(Node(nid, anchor))
                continue
        nodes.append(_node(raw, where, i))
    edges = []
    for i, raw in enumerate(_require(doc, "edges", list, where)):
        if type(raw) is dict:
            parent, child, labels = raw.get("parent"), raw.get("child"), raw.get("labels")
            remote = raw.get("remote", False)
            if (type(parent) is str and type(child) is str and type(labels) is list
                    and all(map(_is_str, labels)) and type(remote) is bool):
                edges.append(Edge(parent, child, frozenset(labels), remote))
                continue
        edges.append(_edge(raw, where, i))
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
