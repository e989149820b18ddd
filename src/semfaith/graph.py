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
from contextlib import AbstractContextManager
from functools import partial
from operator import itemgetter
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
    both, all set by ``_validate`` and never written afterwards:
    ``_yields`` (node id -> token bitmask, every child before its parents),
    ``_children`` (node id -> child ids), ``_leaves`` (token index ->
    anchoring leaf id) and ``_instances`` (the sorted single-label edge
    instances, primary edges only at index 0 and all edges at index 1).
    ``__new__`` runs ``_validate`` in one ``located`` block, which names
    the graph in every validation error: ``graph '<id>': …``."""

    def __new__(cls, id, tokens, nodes, edges, root):
        self = super().__new__(cls, id, tokens, nodes, edges, root)
        with located(f"graph {id!r}", GraphValidationError):
            self._validate()
        return self

    @classmethod
    def _make(cls, fields):  # _replace builds through here: validate it too
        return cls(*fields)

    # -- construction-time validation ------------------------------------

    def _validate(self) -> None:
        _, tokens, nodes, edges, root = self
        if not all(tokens):
            i = next(i for i, tok in enumerate(tokens) if not tok)
            raise GraphValidationError(f"token {i} has empty text")

        anchors = dict(nodes)  # node id -> anchor
        if len(anchors) != len(nodes):
            ids = [n.id for n in nodes]
            dup = sorted({x for x in ids if ids.count(x) > 1})
            raise GraphValidationError(f"duplicate node ids {dup}")
        if not all(anchors):
            raise GraphValidationError("empty node id")
        if root not in anchors:
            raise GraphValidationError(f"root {root!r} is not a declared node")

        children: dict[str, list[str]] = {nid: [] for nid in anchors}
        incoming = dict.fromkeys(anchors, 0)
        instances: list[tuple[str, str, str, bool]] = []
        for parent, child, labels, remote in edges:
            if parent not in anchors or child not in anchors:
                endpoint = child if parent in anchors else parent
                raise GraphValidationError(
                    f"edge {parent!r}->{child!r} references undeclared node {endpoint!r}")
            if parent == child:
                raise GraphValidationError(f"self-loop on node {parent!r}")
            if not labels:
                raise GraphValidationError(f"edge {parent!r}->{child!r} has no labels")
            children[parent].append(child)
            incoming[child] += 1
            for label in labels:
                instances.append((parent, child, label, remote))

        if incoming[root]:
            raise GraphValidationError(f"root {root!r} has an incoming edge")
        if list(incoming.values()).count(0) != 1:
            nid = next(nid for nid, count in incoming.items() if nid != root and not count)
            raise GraphValidationError(f"node {nid!r} has no incoming edge")

        # anchors: bijection between anchored nodes and token indices
        leaves: dict[int, str] = {}
        for nid, anchor in anchors.items():
            if anchor is None:
                continue
            if not 0 <= anchor < len(tokens):
                raise GraphValidationError(f"node {nid!r} anchors out-of-range token {anchor}")
            if anchor in leaves:
                raise GraphValidationError(
                    f"token {anchor} anchored by both {leaves[anchor]!r} and {nid!r}")
            if children[nid]:
                raise GraphValidationError(f"anchored node {nid!r} has outgoing edges")
            leaves[anchor] = nid
        if len(leaves) != len(tokens):
            missing = [i for i in range(len(tokens)) if i not in leaves]
            raise GraphValidationError(f"tokens {missing} are not anchored by any leaf")

        # One depth-first pass from the root, children in list order: a back
        # edge is a cycle, and a node's yield is set once its children are
        # done, so ``yields`` lists every child before its parents.  A leaf
        # takes its yield where the pass meets it; only parents are stacked.
        yields: dict[str, int] = {}
        path = {root}  # the nodes on the stack
        stack = [(root, iter(children[root]))]
        while stack:
            nid, kids = stack[-1]
            for kid in kids:
                if kid in yields:
                    continue
                if kid in path:
                    raise GraphValidationError(f"cycle through edge {nid!r}->{kid!r}")
                if children[kid]:
                    path.add(kid)
                    stack.append((kid, iter(children[kid])))
                    break
                anchor = anchors[kid]
                yields[kid] = 0 if anchor is None else 1 << anchor
            else:
                stack.pop()
                path.remove(nid)
                anchor = anchors[nid]  # None unless nid is a root without edges
                acc = 0 if anchor is None else 1 << anchor
                for kid in children[nid]:
                    acc |= yields[kid]
                yields[nid] = acc
        if len(yields) != len(anchors):
            unreachable = sorted(nid for nid in anchors if nid not in yields)
            raise GraphValidationError(f"nodes unreachable from root: {unreachable}")

        # instances sorted by (parent, child, label), built by tuple.__new__ for
        # speed; two edges between two nodes share a label only if one is remote
        instances.sort(key=itemgetter(0, 1, 2))
        everything = tuple(map(partial(tuple.__new__, EdgeInstance), instances))
        if len(set(everything)) != len(everything):
            ordered = sorted(everything)
            p, c, label, _ = next(a for a, b in zip(ordered, ordered[1:]) if a == b)
            raise GraphValidationError(f"edges {p!r}->{c!r} repeat label {label!r}")
        primary = everything
        if any(e.remote for e in edges):
            primary = tuple(inst for inst in everything if not inst.remote)

        self._yields = yields
        self._children = children
        self._leaves = leaves
        self._instances = (primary, everything)

    # -- queries ----------------------------------------------------------

    def token_texts(self, lowercase: bool = False) -> list[str]:
        return [t.lower() for t in self.tokens] if lowercase else list(self.tokens)


def yield_of(g: SemanticGraph, node_id: str) -> frozenset[int]:
    """Token indices anchored by leaf descendants of the node (itself included)."""
    try:
        mask = g._yields[node_id]
    except KeyError:
        raise KeyError(f"graph {g.id!r}: unknown node {node_id!r}") from None
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def edge_instances(g: SemanticGraph, include_remote: bool = True) -> tuple[EdgeInstance, ...]:
    """The graph's edges as single-label instances, sorted by (parent,
    child, label): the tuple built when the graph was constructed."""
    return g._instances[include_remote]


# -- interchange format ---------------------------------------------------


class located(AbstractContextManager):
    """A context that raises an error of its block that is one of
    ``errors`` again, as the same class, with ``where``, the file, line or
    record it concerns, in front of its message.  A class, not a generator,
    since a graph document enters several: this costs less to enter."""

    def __init__(self, where: str | Path, *errors: type[ValueError]):
        self.where, self.errors = where, errors

    def __exit__(self, kind, exc, traceback):
        if isinstance(exc, self.errors):
            raise kind(f"{self.where}: {exc}") from exc


def require_object(value, what: str, error: type[ValueError]) -> dict:
    """``value``, which must be a JSON object; ``what`` names it."""
    if not isinstance(value, dict):
        raise error(f"{what} must be an object, got {type(value).__name__}")
    return value


def require_field(record: dict, key: str, error: type[ValueError], kind: type = object,
                  noun: str = ""):
    """``record[key]``, which must be there and, unless ``kind`` is
    ``object``, be a ``kind``, which the message calls ``noun``."""
    if key not in record:
        raise error(f"missing field {key!r}")
    value = record[key]
    if not isinstance(value, kind):
        raise error(f"field {key!r} must be {noun}, got {type(value).__name__}")
    return value


def is_int(value) -> bool:
    """Whether ``value`` is an integer; a bool, which Python counts as one,
    is not."""
    return isinstance(value, int) and not isinstance(value, bool)


_is_str = str.__instancecheck__  # isinstance(x, str), as a function for map


def is_str_list(value) -> bool:
    """Whether ``value`` is a list of strings."""
    return isinstance(value, list) and all(map(_is_str, value))


def graph_from_dict(doc: dict) -> SemanticGraph:
    """The graph of an interchange document.  Each field of a node or edge
    record takes one type test, and only a field that fails it has its
    message built; a record that passes is built by ``tuple.__new__``, so
    it takes no Python-level call.  Of several faults in one record, the
    first in field order is named."""
    doc = require_object(doc, "document", GraphFormatError)
    with located("document", GraphFormatError):
        gid = require_field(doc, "id", GraphFormatError, str, "str")
    where = f"graph {gid!r}"
    with located(where, GraphFormatError):
        tokens = require_field(doc, "tokens", GraphFormatError, list, "list")
        if not all(map(_is_str, tokens)):
            i = next(i for i, text in enumerate(tokens) if not isinstance(text, str))
            raise GraphFormatError(f"tokens[{i}] must be a string")
        node_docs = require_field(doc, "nodes", GraphFormatError, list, "list")
    nodes = []
    for i, raw in enumerate(node_docs):
        if not isinstance(raw, dict):
            raise GraphFormatError(f"{where}: nodes[{i}] must be an object")
        nid, anchor = raw.get("id"), raw.get("anchor")
        if not isinstance(nid, str):
            with located(f"{where} nodes[{i}]", GraphFormatError):
                require_field(raw, "id", GraphFormatError, str, "str")
        # an int anchor takes one test; only another value is put to is_int
        if anchor is not None and anchor.__class__ is not int and not is_int(anchor):
            raise GraphFormatError(f"{where}: nodes[{i}].anchor must be an integer")
        nodes.append(tuple.__new__(Node, (nid, anchor)))
    with located(where, GraphFormatError):
        edge_docs = require_field(doc, "edges", GraphFormatError, list, "list")
    edges = []
    for i, raw in enumerate(edge_docs):
        if not isinstance(raw, dict):
            raise GraphFormatError(f"{where}: edges[{i}] must be an object")
        parent, child, labels = raw.get("parent"), raw.get("child"), raw.get("labels")
        if not (isinstance(parent, str) and isinstance(child, str)
                and isinstance(labels, list)):
            with located(f"{where} edges[{i}]", GraphFormatError):
                for key, kind in (("parent", str), ("child", str), ("labels", list)):
                    require_field(raw, key, GraphFormatError, kind, kind.__name__)
        if not all(map(_is_str, labels)):
            raise GraphFormatError(f"{where} edges[{i}]: labels must be strings")
        remote = raw.get("remote", False)
        if not isinstance(remote, bool):
            raise GraphFormatError(f"{where} edges[{i}]: remote must be a boolean")
        edges.append(tuple.__new__(Edge, (parent, child, frozenset(labels), remote)))
    with located(where, GraphFormatError):
        root = require_field(doc, "root", GraphFormatError, str, "str")
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


def read_json_lines(path: str | Path, error: type[ValueError]) -> list[tuple[str, str]]:
    r"""The non-blank lines of the JSON Lines file at ``path``, each with
    where it is, ``<path> line <N>``.  Lines end only at ``"\n"``, into which
    ``read_utf8``'s text mode turns ``"\r\n"`` and ``"\r"``: where Python's
    file iteration ends them, and not at U+0085, U+2028 or U+2029, which a
    JSON string may hold unescaped, nor at the other breaks of splitlines."""
    lines = enumerate(read_utf8(path, error).split("\n"), start=1)
    return [(f"{path} line {n}", line) for n, line in lines if line.strip()]


def load_graph(path: str | Path) -> SemanticGraph:
    """The graph of the document at ``path``.  A format or validation error
    names the file."""
    text = read_utf8(path, GraphFormatError)
    with located(path, GraphFormatError, GraphValidationError):
        return parse_graph(text)


def read_corpus(path: str | Path) -> dict[str, SemanticGraph]:
    """Graphs by id from a directory of documents, read in file name order,
    or from a JSON Lines file (see ``read_json_lines``), read in line order.
    A graph whose id an earlier graph has raises, naming the files or lines
    of both."""
    source = Path(path)
    try:  # a name too long for the file system, say
        files = sorted(c for c in source.iterdir() if c.is_file()) if source.is_dir() else None
    except OSError as exc:
        raise GraphFormatError(f"cannot read {path}: {exc}") from exc
    if files is None:
        documents = read_json_lines(source, GraphFormatError)
    else:
        documents = ((child, read_utf8(child, GraphFormatError)) for child in files)
    corpus: dict[str, SemanticGraph] = {}
    first: dict[str, str | Path] = {}  # graph id -> where it was read
    for where, text in documents:
        with located(where, GraphFormatError, GraphValidationError):
            g = parse_graph(text)
            if g.id in corpus:
                raise GraphFormatError(f"duplicate graph id {g.id!r}, first read at {first[g.id]}")
        corpus[g.id] = g
        first[g.id] = where
    return corpus
