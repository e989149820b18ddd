from __future__ import annotations

import dataclasses
import json
import random

import pytest

from fig1 import fig1_correction, fig1_source
from helpers_build import make_graph, random_valid_graph
from semfaith import (
    GraphFormatError,
    GraphValidationError,
    edge_instances,
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
    trimmed = dataclasses.replace(g, edges=g.edges[:-1])  # drops the remote edge
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
