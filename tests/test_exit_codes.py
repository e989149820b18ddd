"""Every bad input document ends in a documented exit code, never in a
traceback.  Valid graph, edit-corpus, manifest and groups documents are
mutated (truncated, a field deleted, a value swapped for one of another
type, a byte that is not UTF-8 inserted), and the command that reads each
must return 0, 3, 4 or 5."""
from __future__ import annotations

import copy
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fig1 import fig1_correction, fig1_source
from helpers_build import graph_from_nested
from semfaith import EditOperation, build_chain, graph_to_dict
from semfaith.cli import main
from semfaith.harness import manifest_to_dict

EXIT_CODES = {0, 3, 4, 5}
OTHER_VALUES = [None, True, 0, -1, 2.5, "", "x", "\ud800", [], ["x"], {}, {"x": 1}]
NOT_UTF8 = [b"\xff", b"\xe9", b"\xc3", b"\x80"]
# Past the decoder's nesting depth and integer length; both once ended in a
# traceback.
TOO_DEEP = b"[" * 100_000
TOO_LONG_INT = b'{"id": ' + b"1" * 5000 + b"}"

GRAPH = graph_to_dict(fig1_source())
# A lone surrogate in a string once passed parsing and ended in a traceback
# when the report was written, leaving an empty --out file.
LONE_SURROGATE_ID = json.dumps({**GRAPH, "id": "g\ud800"}).encode()
LONE_SURROGATE_LABEL = json.dumps(
    {**GRAPH, "edges": [{**GRAPH["edges"][0], "labels": ["A\ud800"]}, *GRAPH["edges"][1:]]}
).encode()
EDIT_RECORDS = [
    {"sentence_id": "s1", "tokens": ["He", "gve", "an", "apple"],
     "edits": [{"start": 1, "end": 2, "replacement": ["gave"], "type": "Mec"},
               {"start": 2, "end": 3, "replacement": ["the"], "type": "ArtOrDet"}]},
    {"sentence_id": "s2", "tokens": ["a", "b"],
     "edits": [{"start": 0, "end": 1, "replacement": [], "type": "Nn"}]},
]
MANIFEST = manifest_to_dict([
    build_chain(r["sentence_id"], r["tokens"],
                [EditOperation(e["start"], e["end"], tuple(e["replacement"]), e["type"])
                 for e in r["edits"]], seed=7)
    for r in EDIT_RECORDS
])
GROUPS = {"relators": ["R"], "A+D": ["A", "D"]}


def paths(value, prefix=()):
    """The path of every value inside a JSON value, its own included."""
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from paths(child, prefix + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from paths(child, prefix + (index,))


def json_lines(records) -> bytes:
    return "".join(json.dumps(r) + "\n" for r in records).encode()


def json_document(doc) -> bytes:
    return json.dumps(doc).encode()


@st.composite
def mutated(draw, doc, serialize=json_document):
    """``doc`` serialized with one mutation.  The root itself is never
    deleted or swapped, so a line-delimited document keeps its lines."""
    kind = draw(st.sampled_from(["truncate", "delete", "swap", "not utf-8"]))
    if kind in ("delete", "swap"):
        path = draw(st.sampled_from(list(paths(doc))[1:]))
        doc = copy.deepcopy(doc)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if kind == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(st.sampled_from(OTHER_VALUES))
        return serialize(doc)
    data = serialize(doc)
    cut = draw(st.integers(0, len(data)))
    if kind == "truncate":
        return data[:cut]
    return data[:cut] + draw(st.sampled_from(NOT_UTF8)) + data[cut:]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Valid inputs that each mutated document is scored against: a graph,
    one-graph corpora, and a graph for every version of ``MANIFEST``."""
    root = tmp_path_factory.mktemp("exit_codes")
    (root / "cor.json").write_text(json.dumps(graph_to_dict(fig1_correction())))
    (root / "cor.jsonl").write_text(json.dumps(graph_to_dict(fig1_correction())) + "\n")
    (root / "src.jsonl").write_text(json.dumps(GRAPH) + "\n")
    graphs = root / "graphs"
    graphs.mkdir()
    for v in MANIFEST["versions"]:
        tokens = v["tokens"]
        flat = ("r", [("A", i) for i in range(len(tokens))])
        graph = graph_from_nested(v["version_id"], tokens, flat)
        (graphs / f"{v['version_id']}.json").write_text(json.dumps(graph_to_dict(graph)))
    return root


fuzz = settings(max_examples=300, deadline=None)


def exits_cleanly(argv, out):
    """``main(argv)`` returns a documented exit code, and leaves no ``out``
    file behind unless it succeeds."""
    out.unlink(missing_ok=True)
    code = main([*argv, "--out", str(out)])
    assert code in EXIT_CODES
    assert code == 0 or not out.exists()


@given(data=mutated(GRAPH))
@example(data=TOO_DEEP)
@example(data=TOO_LONG_INT)
@example(data=LONE_SURROGATE_ID)
@example(data=LONE_SURROGATE_LABEL)
@fuzz
def test_graph_documents(workdir, data):
    (workdir / "m.json").write_bytes(data)
    (workdir / "m.jsonl").write_bytes(data)
    assert main(["score", str(workdir / "m.json"), str(workdir / "cor.json")]) in EXIT_CODES
    assert main(["corpus", str(workdir / "m.jsonl"), str(workdir / "cor.jsonl")]) in EXIT_CODES
    # Against itself the graph pairs by id, so its id and labels reach the report.
    for command in ("corpus", "distsim"):
        exits_cleanly([command, str(workdir / "m.jsonl"), str(workdir / "m.jsonl")],
                      workdir / "o.tsv")


@given(data=mutated(EDIT_RECORDS, json_lines))
@example(data=TOO_DEEP)
@example(data=json_lines([{**EDIT_RECORDS[1], "edits": [
    {**EDIT_RECORDS[1]["edits"][0], "type": "T\ud800"}]}]))
@fuzz
def test_edit_corpus_documents(workdir, data):
    (workdir / "edits.jsonl").write_bytes(data)
    exits_cleanly(["maege", "gen", str(workdir / "edits.jsonl")], workdir / "out.json")


@given(data=mutated(MANIFEST))
@example(data=TOO_LONG_INT)
@fuzz
def test_manifest_documents(workdir, data):
    (workdir / "manifest.json").write_bytes(data)
    argv = ["maege", "score", str(workdir / "manifest.json"), str(workdir / "graphs")]
    assert main(argv) in EXIT_CODES


@given(data=mutated(GROUPS))
@example(data=TOO_DEEP)
@fuzz
def test_groups_documents(workdir, data):
    (workdir / "groups.json").write_bytes(data)
    argv = ["distsim", str(workdir / "src.jsonl"), str(workdir / "cor.jsonl"),
            "--groups", str(workdir / "groups.json")]
    assert main(argv) in EXIT_CODES
