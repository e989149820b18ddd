from __future__ import annotations

import json
import random

import pytest

from fig1 import fig1_correction, fig1_source
from helpers_build import make_graph, random_valid_graph
from reference import graph_from_dict_fields, validate_dfs
from semfaith import (
    Edge,
    GraphFormatError,
    GraphValidationError,
    Node,
    SemanticGraph,
    edge_instances,
    graph_from_dict,
    graph_to_dict,
    parse_graph,
    yield_of,
)


def minimal_doc():
    return {
        "id": "s1",
        "tokens": ["He"],
        "nodes": [{"id": "r"}, {"id": "leaf", "anchor": 0}],
        "edges": [{"parent": "r", "child": "leaf", "labels": ["A"]}],
        "root": "r",
    }


def test_parse_smallest_legal_graph():
    import json

    g = parse_graph(json.dumps(minimal_doc()))
    assert len(g.nodes) == 2
    assert len(g.edges) == 1
    assert g.token_texts() == ["He"]


def test_parse_rejects_undeclared_edge_child():
    import json

    doc = minimal_doc()
    doc["edges"][0]["child"] = "ghost"
    with pytest.raises(GraphValidationError, match="ghost"):
        parse_graph(json.dumps(doc))


def test_parse_rejects_bad_json_with_position():
    with pytest.raises(GraphFormatError, match="line 1"):
        parse_graph("{not json")


def test_parse_rejects_missing_field():
    import json

    doc = minimal_doc()
    del doc["root"]
    with pytest.raises(GraphFormatError, match="root"):
        parse_graph(json.dumps(doc))


def test_validation_rejects_cycle():
    with pytest.raises(GraphValidationError, match="cycle"):
        make_graph(
            "g", ["a"],
            [("r", None), ("x", None), ("y", None), ("w0", 0)],
            [("r", "x", {"A"}), ("x", "y", {"A"}), ("y", "x", {"A"}),
             ("y", "w0", {"C"})],
            "r",
        )


def test_validation_rejects_duplicate_anchor():
    with pytest.raises(GraphValidationError, match="anchored by both"):
        make_graph(
            "g", ["a"],
            [("r", None), ("x", 0), ("y", 0)],
            [("r", "x", {"A"}), ("r", "y", {"A"})],
            "r",
        )


def test_validation_rejects_unreachable_node():
    # unreachable two-node cluster that still satisfies the incoming-edge rule
    with pytest.raises(GraphValidationError, match="no incoming edge"):
        make_graph(
            "g", ["a"],
            [("r", None), ("w0", 0), ("x", None)],
            [("r", "w0", {"A"})],
            "r",
        )


def test_fig1_encoding_shape():
    top = fig1_source()
    bottom = fig1_correction()
    assert len(top.nodes) == 4 + 6  # root, scene, np, pp + six leaves
    assert len(edge_instances(top)) == 9
    assert len(bottom.nodes) == 3 + 5
    assert len(edge_instances(bottom)) == 7


def test_yield_of_leaf_and_root():
    g = fig1_source()
    assert yield_of(g, "w3") == {3}
    assert yield_of(g, "z-root") == set(range(6))
    assert yield_of(g, "np") == {2, 3}


def test_yield_of_correction_np():
    g = fig1_correction()
    assert yield_of(g, "np") == {3, 4}  # "an apple"


def test_yield_of_unknown_node():
    with pytest.raises(KeyError):
        yield_of(fig1_source(), "nope")


def test_implicit_unit_has_empty_yield():
    g = make_graph(
        "g", ["a"],
        [("r", None), ("w0", 0), ("imp", None)],
        [("r", "w0", {"C"}), ("r", "imp", {"A"})],
        "r",
    )
    assert yield_of(g, "imp") == frozenset()
    assert yield_of(g, "r") == {0}


def test_edge_instances_expand_multilabel():
    g = make_graph(
        "g", ["a"],
        [("r", None), ("w0", 0)],
        [("r", "w0", {"A", "D"})],
        "r",
    )
    insts = edge_instances(g)
    assert [i.label for i in insts] == ["A", "D"]


def test_edge_instance_count_is_label_sum():
    rng = random.Random(7)
    for _ in range(20):
        g = random_valid_graph(rng)
        assert len(edge_instances(g)) == sum(len(e.labels) for e in g.edges)


def test_remote_edges_excludable():
    g = make_graph(
        "g", ["a", "b"],
        [("r", None), ("x", None), ("w0", 0), ("w1", 1)],
        [("r", "x", {"H"}), ("x", "w0", {"A"}), ("x", "w1", {"P"}),
         ("r", "w1", {"A"}, True)],
        "r",
    )
    assert len(edge_instances(g)) == 4
    assert len(edge_instances(g, include_remote=False)) == 3


def test_edge_instances_built_once_per_flag():
    g = make_graph(
        "g", ["a", "b"],
        [("r", None), ("x", None), ("w0", 0), ("w1", 1)],
        [("r", "x", {"H"}), ("x", "w0", {"A", "D"}), ("x", "w1", {"P"}),
         ("r", "w1", {"A"}, True)],
        "r",
    )
    for include_remote in (True, False):
        first = edge_instances(g, include_remote)
        assert isinstance(first, tuple)
        assert edge_instances(g, include_remote) is first
    assert edge_instances(g, True) != edge_instances(g, False)
    trimmed = SemanticGraph(g.id, g.tokens, g.nodes, g.edges[:-1], g.root)  # no remote edge
    assert len(edge_instances(trimmed)) == len(edge_instances(g)) - 1


def test_roundtrip_fixpoint():
    rng = random.Random(11)
    graphs = [fig1_source(), fig1_correction()]
    graphs += [random_valid_graph(rng, gid=f"g{i}") for i in range(25)]

    def serialize(g):
        return json.dumps(graph_to_dict(g), ensure_ascii=False, sort_keys=True)

    for g in graphs:
        text = serialize(g)
        again = parse_graph(text)
        assert again == g
        assert serialize(again) == text


def test_yield_edge_subset_property():
    rng = random.Random(3)
    for _ in range(25):
        g = random_valid_graph(rng)
        for e in g.edges:
            assert yield_of(g, e.child) <= yield_of(g, e.parent)
        child_union = frozenset().union(
            *(yield_of(g, c) for c in g.children_of(g.root))
        ) if g.children_of(g.root) else frozenset()
        assert yield_of(g, g.root) == child_union


def test_graph_to_dict_omits_defaults():
    doc = graph_to_dict(fig1_source())
    assert all("remote" not in e for e in doc["edges"])
    assert all("anchor" in n for n in doc["nodes"] if n["id"].startswith("w"))


# Each fault the validator names, with a fragment of its message.
FAULTS = {
    "empty token": "has empty text",
    "duplicate id": "duplicate node ids",
    "empty id": "empty node id",
    "undeclared root": "is not a declared node",
    "undeclared endpoint": "references undeclared node",
    "self-loop": "self-loop",
    "edge without labels": "has no labels",
    "edge into the root": "has an incoming edge",
    "orphan node": "has no incoming edge",
    "anchor out of range": "out-of-range",
    "duplicate anchor": "anchored by both",
    "anchored node with a child": "has outgoing edges",
    "unanchored token": "are not anchored",
    "cycle reachable from the root": "cycle through edge",
    "cycle not reachable from the root": "unreachable from root",
}


def corrupt(kind: str, rng: random.Random, g: SemanticGraph) -> tuple:
    """The constructor arguments of ``g`` with one fault of ``kind``, put
    at a random place."""
    tokens, nodes, edges, root = list(g.tokens), list(g.nodes), list(g.edges), g.root
    ids = [n.id for n in nodes]
    internal = [nid for nid in ids if g.children_of(nid)]
    leaves = [n for n in nodes if n.anchor is not None]

    def add_edge(parent: str, child: str) -> None:
        edges.insert(rng.randrange(len(edges) + 1), Edge(parent, child, frozenset("A")))

    def add_node(nid: str, anchor: int | None = None) -> None:
        nodes.insert(rng.randrange(len(nodes) + 1), Node(nid, anchor))

    k = rng.randrange(len(edges))
    if kind == "empty token":
        tokens[rng.randrange(len(tokens))] = ""
    elif kind == "duplicate id":
        add_node(rng.choice(ids))
    elif kind == "empty id":
        i = rng.randrange(len(nodes))
        nodes[i] = nodes[i]._replace(id="")
    elif kind == "undeclared root":
        root = "ghost"
    elif kind == "undeclared endpoint":
        edges[k] = edges[k]._replace(**{rng.choice(("parent", "child")): "ghost"})
    elif kind == "self-loop":
        nid = rng.choice(ids)
        add_edge(nid, nid)
    elif kind == "edge without labels":
        edges[k] = edges[k]._replace(labels=frozenset())
    elif kind == "edge into the root":
        add_edge(rng.choice([nid for nid in ids if nid != root]), root)
    elif kind == "orphan node":
        add_node("orphan")
    elif kind == "anchor out of range":
        leaf = rng.choice(leaves)
        nodes[nodes.index(leaf)] = leaf._replace(anchor=rng.choice((-1, len(tokens))))
    elif kind == "duplicate anchor":
        add_node("again", rng.choice(leaves).anchor)
        add_edge(rng.choice(internal), "again")
    elif kind == "anchored node with a child":
        add_node("below")
        add_edge(rng.choice(leaves).id, "below")
    elif kind == "unanchored token":
        tokens.append("extra")
    else:
        back = [(p, c) for p, c, _, _ in edges if p != root and c in internal]
        if kind == "cycle reachable from the root" and back and rng.random() < 0.5:
            parent, child = rng.choice(back)
            add_edge(child, parent)  # child is a descendant of parent
        else:
            add_node("a")
            add_node("b")
            add_edge("a", "b")
            add_edge("b", "a")
            if kind == "cycle reachable from the root":
                add_edge(rng.choice(internal), "a")
    return g.id, tuple(tokens), tuple(nodes), tuple(edges), root


@pytest.mark.parametrize("kind", sorted(FAULTS))
def test_validation_errors_equal_reference(kind):
    """The one-pass validator raises what the check-by-check reference
    does, message included."""
    rng = random.Random(kind)
    for i in range(40):
        fields = corrupt(kind, rng, random_valid_graph(rng, distinct_yields=i % 2 == 0))
        with pytest.raises(GraphValidationError, match=FAULTS[kind]) as expected:
            validate_dfs(*fields)
        with pytest.raises(GraphValidationError) as got:
            SemanticGraph(*fields)
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)


def test_yield_of_equals_reference():
    rng = random.Random(5)
    graphs = [fig1_source(), fig1_correction()]
    graphs += [random_valid_graph(rng, distinct_yields=i % 2 == 0) for i in range(60)]
    for g in graphs:
        assert {n.id: yield_of(g, n.id) for n in g.nodes} == validate_dfs(*g)


class Label(str):
    pass


class Record(dict):
    pass


# Values for one field of a node or edge record: every JSON type, the
# booleans that are ints to Python, and subclasses of str and int.
FIELD_VALUES = [None, True, False, 0, 1, 7, -1, 2.5, "", "w0", Label("r"), [], ["A"],
                ["A", "D"], [1], [True], [Label("A")], {}, {"x": 1}]


def read_outcome(read, doc):
    """What ``read(doc)`` gives: the graph's fields, or its error."""
    try:
        return tuple(read(doc))
    except (GraphFormatError, GraphValidationError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("record, field", [
    ("nodes", "id"), ("nodes", "anchor"), ("edges", "parent"), ("edges", "child"),
    ("edges", "labels"), ("edges", "remote"),
])
def test_record_fields_read_as_reference(record, field):
    """One type test per field accepts exactly the records that the
    field-by-field reader accepts, and builds the same ones."""
    docs = []
    for value in [*FIELD_VALUES, "missing"]:
        doc = minimal_doc()
        if value == "missing":
            doc[record][-1].pop(field, None)
        else:
            doc[record][-1][field] = value
        docs.append(doc)
    for shape in (Record, list, str):
        doc = minimal_doc()
        doc[record][-1] = shape(doc[record][-1])
        docs.append(doc)
    for doc in docs:
        assert read_outcome(graph_from_dict, doc) == read_outcome(graph_from_dict_fields, doc)
