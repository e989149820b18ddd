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
    load_graph,
    parse_graph,
    read_corpus,
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


# Characters at which str.splitlines ends a line but a JSON Lines reader must
# not: JSON strings may hold them unescaped, and json.dumps(...,
# ensure_ascii=False) writes them so.
UNICODE_LINE_BREAKS = ["\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", UNICODE_LINE_BREAKS, ids=ascii)
def test_unicode_line_break_in_strings_reads_from_every_input(char, tmp_path):
    """A graph whose id, token and edge label hold the character reads to
    the same graph from a ``.jsonl`` corpus, from a directory and through
    ``load_graph``, whether the character is written raw or escaped."""
    doc = minimal_doc()
    doc["id"] = f"s{char}1"
    doc["tokens"] = [f"He{char}llo"]
    doc["edges"][0]["labels"] = [f"A{char}B"]
    g = graph_from_dict(doc)
    for raw in (True, False):
        text, other = (json.dumps(d, ensure_ascii=not raw) for d in (doc, {**doc, "id": "other"}))
        assert (char in text) == raw
        where = tmp_path / f"raw-{raw}"
        (where / "dir").mkdir(parents=True)
        (where / "dir" / "g.json").write_text(text, encoding="utf-8")
        (where / "c.jsonl").write_text(f"{text}\n{other}\n", encoding="utf-8")
        assert load_graph(where / "dir" / "g.json") == g
        assert read_corpus(where / "dir") == {g.id: g}
        assert read_corpus(where / "c.jsonl") == {g.id: g, "other": g._replace(id="other")}


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


def test_edge_instances_stored_at_construction():
    """Construction builds the instance tuple of each flag value, and
    ``edge_instances`` returns that same tuple on every call."""
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
    assert edge_instances(trimmed, False) is edge_instances(trimmed, True)


# r -> u -> {x, y}, with x and y anchoring the two tokens.
TWO_LEAVES = (["a", "b"], [("r", None), ("u", None), ("x", 0), ("y", 1)],
              [("r", "u", {"H"}), ("u", "x", {"A"}), ("u", "y", {"C"})])


def two_leaves(*extra_edges):
    tokens, nodes, edges = TWO_LEAVES
    return make_graph("g", tokens, nodes, edges + list(extra_edges), "r")


@pytest.mark.parametrize("remote", [False, True])
def test_repeated_edge_instance_rejected(remote):
    """Two edges between the same two nodes, both primary or both remote,
    that share a label would expand to two equal edge instances, of which
    a matching counts one at most: a graph scored against itself would not
    score 1.  Every way of building a graph rejects them."""
    message = "graph 'g': edges 'r'->'x' repeat label 'A'"
    g = two_leaves(("r", "x", {"A"}, remote))
    extra = Edge("r", "x", frozenset({"A", "D"}), remote)
    with pytest.raises(GraphValidationError) as exc:
        SemanticGraph(g.id, g.tokens, g.nodes, (extra, *g.edges), g.root)
    assert str(exc.value) == message
    with pytest.raises(GraphValidationError) as exc:
        g._replace(edges=g.edges + (extra,))
    assert str(exc.value) == message
    doc = graph_to_dict(g)
    doc["edges"].insert(1, {"parent": "r", "child": "x", "labels": ["D", "A"], "remote": remote})
    with pytest.raises(GraphValidationError) as exc:
        graph_from_dict(doc)
    assert str(exc.value) == message


def test_edges_sharing_nodes_and_labels_that_stay_valid():
    """A primary and a remote edge between the same two nodes may share a
    label, parallel edges may carry different labels, and a label listed
    twice in one edge's labels is one label."""
    both = two_leaves(("r", "x", {"A"}), ("r", "x", {"A"}, True), ("r", "x", {"D"}))
    assert [inst[:3] for inst in edge_instances(both)] == [
        ("r", "u", "H"), ("r", "x", "A"), ("r", "x", "A"), ("r", "x", "D"),
        ("u", "x", "A"), ("u", "y", "C"),
    ]
    assert len(edge_instances(both, False)) == 5
    doc = graph_to_dict(two_leaves())
    doc["edges"][1]["labels"] = ["A", "A"]
    assert graph_from_dict(doc) == two_leaves()


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
            *(yield_of(g, c) for c in g._children[g.root])
        ) if g._children[g.root] else frozenset()
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
    "repeated edge instance": "repeat label",
}


def corrupt(kind: str, rng: random.Random, g: SemanticGraph) -> tuple:
    """The constructor arguments of ``g`` with one fault of ``kind``, put
    at a random place."""
    tokens, nodes, edges, root = list(g.tokens), list(g.nodes), list(g.edges), g.root
    ids = [n.id for n in nodes]
    internal = [nid for nid in ids if g._children[nid]]
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
    elif kind == "repeated edge instance":
        e = edges[k]
        labels = frozenset({rng.choice(sorted(e.labels)), rng.choice("ADP")})
        edges.insert(rng.randrange(len(edges) + 1), e._replace(labels=labels))
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


# A fault for each field of a node or edge record, to put several in one.
FIELD_FAULTS = {"id": 7, "anchor": "w0", "parent": None, "child": 2.5, "labels": [1],
                "remote": 0}
RECORD_FIELDS = {"nodes": ["id", "anchor"], "edges": ["parent", "child", "labels", "remote"]}


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
    """The reader accepts exactly the records that the field-by-field
    reader accepts, and builds the same ones.  Of a record with several
    faults, this field's value and a fault in one or all of the other
    fields, it names the fault that the reference names."""
    others = [f for f in RECORD_FIELDS[record] if f != field]
    docs = []
    for faulty in [[], *([f] for f in others), others]:
        for value in [*FIELD_VALUES, "missing"]:
            doc = minimal_doc()
            raw = doc[record][-1]
            raw.update((f, FIELD_FAULTS[f]) for f in faulty)
            if value == "missing":
                raw.pop(field, None)
            else:
                raw[field] = value
            docs.append(doc)
    for shape in (Record, list, str):
        doc = minimal_doc()
        doc[record][-1] = shape(doc[record][-1])
        docs.append(doc)
    for doc in docs:
        assert read_outcome(graph_from_dict, doc) == read_outcome(graph_from_dict_fields, doc)
