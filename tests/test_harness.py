from __future__ import annotations

import itertools
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_build import WORDS, graph_from_nested, merge_edits_order_free, random_dag
from semfaith import (
    EditOperation,
    GraphValidationError,
    HarnessError,
    VersionChain,
    apply_edit,
    apply_edits_in_order,
    build_chain,
    compute_deltas,
    emit_manifest,
    load_manifest,
    read_edit_corpus,
    usim,
    version_id,
)
from semfaith.harness import chain_scores, graph_file_name, type_deltas

EDIT_TYPES = ["Mec", "ArtOrDet", "Wci", "Nn", "Vt"]


def toy_parse(tokens, gid="v"):
    """Deterministic stand-in parser: flat scene whose edge labels depend on
    token length, so editing a token can change the structure."""
    labels = ["A", "P", "D", "E", "C"]
    children = [(labels[len(t) % 5], i) for i, t in enumerate(tokens)]
    return graph_from_nested(gid, list(tokens), ("z-root", [("H", ("scene", children))]))


def random_edits(rng: random.Random, n_tokens: int, max_edits=4):
    edits = []
    pos = 0
    while pos < n_tokens and len(edits) < max_edits:
        if rng.random() < 0.4:
            width = rng.randint(0, min(2, n_tokens - pos))
            repl = tuple(rng.choice(WORDS) for _ in range(rng.randint(0 if width else 1, 2)))
            edits.append(EditOperation(pos, pos + width, repl, rng.choice(EDIT_TYPES)))
            pos += max(width, 1)
        else:
            pos += 1
    return edits


def test_apply_edit_replacement():
    tokens = ["He", "gve", "an", "apple"]
    out = apply_edit(tokens, EditOperation(1, 2, ("gave",), "Mec"))
    assert out == ["He", "gave", "an", "apple"]


def test_apply_edit_deletion():
    out = apply_edit(["a", "b", "c", "d"], EditOperation(2, 3, (), "Nn"))
    assert out == ["a", "b", "d"]


def test_apply_edit_insertion():
    out = apply_edit(["a", "b", "c"], EditOperation(2, 2, ("red",), "Wci"))
    assert out == ["a", "b", "red", "c"]


def test_apply_edit_out_of_bounds():
    with pytest.raises(HarnessError, match=r"^edit span \(0, 2\) out of bounds$"):
        apply_edit(["a"], EditOperation(0, 2, (), "Nn"))


def test_edit_invalid_span():
    with pytest.raises(HarnessError):
        EditOperation(3, 2, (), "Nn")


def test_edit_replace_checks_the_span():
    edit = EditOperation(1, 2, ("x",), "Mec")
    assert edit._replace(start=0) == EditOperation(0, 2, ("x",), "Mec")
    with pytest.raises(HarnessError, match=r"^invalid edit span \(3, 2\)$"):
        edit._replace(start=3)


def test_build_chain_zero_edits():
    chain = build_chain("s1", ["a", "b"], [], seed=5)
    assert len(chain.versions) == 1
    assert chain.source_index == 0


def test_build_chain_one_edit_two_versions():
    for seed in range(5):
        chain = build_chain("s1", ["a", "b"], [EditOperation(0, 1, ("x",), "Mec")], seed)
        assert len(chain.versions) == 2


def test_build_chain_rejects_overlap():
    edits = [EditOperation(0, 2, ("x",), "Mec"), EditOperation(1, 3, ("y",), "Nn")]
    with pytest.raises(HarnessError, match="overlap"):
        build_chain("s1", ["a", "b", "c"], edits, 0)


def test_shifted_spans_final_version_order_independent():
    # first edit grows the sentence by one token, shifting the second span
    tokens = ["a", "b", "c", "d", "e"]
    edits = [
        EditOperation(1, 2, ("x", "y"), "Mec"),  # +1
        EditOperation(3, 4, ("z",), "Nn"),
    ]
    v01 = apply_edits_in_order(tokens, edits, [0, 1])[-1]
    v10 = apply_edits_in_order(tokens, edits, [1, 0])[-1]
    assert v01 == v10 == ("a", "x", "y", "c", "z", "e")
    assert v01 == merge_edits_order_free(tokens, edits)


def test_order_invariance_exhaustive_random():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(1, 8)
        tokens = [rng.choice(WORDS) for _ in range(n)]
        edits = random_edits(rng, n)
        expected = merge_edits_order_free(tokens, edits)
        for order in itertools.permutations(range(len(edits))):
            assert apply_edits_in_order(tokens, edits, list(order))[-1] == expected


def touching_edits(rng: random.Random, n_tokens: int) -> list[EditOperation]:
    """Non-overlapping edits, with insertions that touch a replacement on
    either side and insertions at the end of the sentence."""
    edits = []
    pos = 0
    while pos <= n_tokens:
        if rng.random() < 0.3:
            repl = tuple(rng.choice(WORDS) for _ in range(rng.randint(1, 2)))
            edits.append(EditOperation(pos, pos, repl, rng.choice(EDIT_TYPES)))
        width = rng.randint(1, 2)
        if pos + width <= n_tokens and rng.random() < 0.4:
            repl = tuple(rng.choice(WORDS) for _ in range(rng.randint(0, 2)))
            edits.append(EditOperation(pos, pos + width, repl, rng.choice(EDIT_TYPES)))
            pos += width
        else:
            pos += 1
    rng.shuffle(edits)
    return edits


def test_each_version_applies_its_edits_to_the_original():
    """Version k is the original tokens with the first k edits of the order
    applied, whatever the order."""
    rng = random.Random(23)
    for _ in range(300):
        n = rng.randint(0, 8)
        tokens = [rng.choice(WORDS) for _ in range(n)]
        edits = touching_edits(rng, n)
        order = rng.sample(range(len(edits)), len(edits))
        versions = apply_edits_in_order(tokens, edits, order)
        assert versions == [merge_edits_order_free(tokens, [edits[i] for i in order[:k]])
                            for k in range(len(order) + 1)]


def test_build_chain_deterministic():
    tokens = ["a", "b", "c", "d"]
    edits = [
        EditOperation(0, 1, ("x",), "Mec"),
        EditOperation(2, 3, (), "Nn"),
        EditOperation(3, 3, ("w",), "Wci"),
    ]
    c1 = build_chain("s9", tokens, edits, seed=123)
    c2 = build_chain("s9", tokens, edits, seed=123)
    assert c1 == c2
    c3 = build_chain("s9", tokens, edits, seed=124)
    assert c3.order != c1.order or c3.source_index != c1.source_index or c3 == c1


def test_build_chain_pinned_source():
    chain = build_chain("s1", ["a", "b"], [EditOperation(0, 1, ("x",), "Mec")],
                        seed=0, pin_source_index=1)
    assert chain.source_index == 1
    with pytest.raises(HarnessError):
        build_chain("s1", ["a"], [], seed=0, pin_source_index=3)


def test_manifest_roundtrip(tmp_path):
    rng = random.Random(4)
    chains = []
    for i in range(5):
        n = rng.randint(1, 7)
        tokens = [rng.choice(WORDS) for _ in range(n)]
        chains.append(build_chain(f"s{i}", tokens, random_edits(rng, n), seed=77))
    path = tmp_path / "manifest.json"
    emit_manifest(chains, path)
    assert load_manifest(path) == chains
    # byte-identical on re-emit
    text = path.read_text()
    emit_manifest(load_manifest(path), path)
    assert path.read_text() == text


def test_manifest_no_dedup_across_chains(tmp_path):
    # two sentences with identical text still emit their own version records
    chains = [
        build_chain("s1", ["a", "b"], [], seed=0),
        build_chain("s2", ["a", "b"], [], seed=0),
    ]
    path = tmp_path / "m.json"
    emit_manifest(chains, path)
    doc = json.loads(path.read_text())
    assert [v["version_id"] for v in doc["versions"]] == ["s1.v0", "s2.v0"]


def test_edit_corpus_reader(tmp_path):
    path = tmp_path / "edits.jsonl"
    path.write_text(
        '{"sentence_id": "s1", "tokens": ["He", "gve"], '
        '"edits": [{"start": 1, "end": 2, "replacement": ["gave"], "type": "Mec"}]}\n'
    )
    records = read_edit_corpus(path)
    assert records == [
        ("s1", ["He", "gve"], [EditOperation(1, 2, ("gave",), "Mec")])
    ]


@settings(max_examples=400, deadline=None)
@given(sid=st.text(min_size=1), n_edits=st.integers(0, 12))
def test_accepted_sentence_ids_name_creatable_graph_files(sid, n_edits):
    """README: a sentence_id must be usable as part of a file name.  For a
    record that ``read_edit_corpus`` accepts, with K single-token edits, the
    graph file ``graph_file_name(sid, k)`` of every version k <= K can be
    created."""
    record = {"sentence_id": sid, "tokens": [f"w{i}" for i in range(n_edits)],
              "edits": [{"start": i, "end": i + 1, "replacement": ["x"], "type": "R"}
                        for i in range(n_edits)]}
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory, "edits.jsonl")
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        try:
            read_edit_corpus(path)
        except HarnessError:
            return
        graphs = Path(directory, "graphs")
        graphs.mkdir()
        for k in range(n_edits + 1):
            (graphs / graph_file_name(sid, k)).touch(exist_ok=False)


def graphs_for(chains, parse=toy_parse):
    graphs = {}
    for chain in chains:
        for k, tokens in enumerate(chain.versions):
            vid = version_id(chain.sentence_id, k)
            graphs[vid] = parse(tokens, vid)
    return graphs


def raw_edit_deltas(chains, graphs):
    """``(edit type, score change)`` of every applied edit, in chain order:
    the edit applied k-th changes the usim average against the chain's
    source from that of version k - 1 to that of version k."""
    deltas = []
    for chain in chains:
        source = graphs[version_id(chain.sentence_id, chain.source_index)]
        scores = [usim(source, graphs[version_id(chain.sentence_id, k)]).average
                  for k in range(len(chain.versions))]
        for k, edit_index in enumerate(chain.order, start=1):
            deltas.append((chain.edits[edit_index].edit_type, scores[k] - scores[k - 1]))
    return deltas


def test_compute_deltas_identity_parser_all_zero():
    """A parser whose graph ignores the token text gives every version the
    same score, so every delta is zero.  Each graph must hold its version's
    tokens, so the parser builds one flat scene over them, and the edits
    substitute single tokens, keeping every version of a chain one length."""
    rng = random.Random(2)
    chains = []
    for i in range(8):
        n = rng.randint(2, 7)
        tokens = [rng.choice(WORDS) for _ in range(n)]
        edits = [EditOperation(k, k + 1, (rng.choice(WORDS),), rng.choice(EDIT_TYPES))
                 for k in sorted(rng.sample(range(n), rng.randint(1, min(4, n))))]
        chains.append(build_chain(f"s{i}", tokens, edits, seed=3))

    def identity_parse(tokens, gid):
        scene = ("scene", [("A", i) for i in range(len(tokens))])
        return graph_from_nested(gid, list(tokens), ("z-root", [("H", scene)]))

    report = compute_deltas(chains, graphs_for(chains, identity_parse))
    assert report and all(td.delta_mean == 0 for td in report)


def test_compute_deltas_aggregation_matches_raw():
    rng = random.Random(13)
    chains = []
    for i in range(10):
        n = rng.randint(2, 8)
        tokens = [rng.choice(WORDS) for _ in range(n)]
        chains.append(build_chain(f"s{i}", tokens, random_edits(rng, n), seed=8))
    graphs = graphs_for(chains)
    raw = raw_edit_deltas(chains, graphs)
    report = compute_deltas(chains, graphs)
    for td in report:
        mine = [d for t, d in raw if t == td.edit_type]
        assert td.occurrences == len(mine) >= 1
        assert td.delta_mean == sum(mine, Fraction(0)) / len(mine)
    # sorted by delta descending
    deltas = [td.delta_mean for td in report]
    assert deltas == sorted(deltas, reverse=True)
    # mass conservation
    assert sum(td.delta_mean * td.occurrences for td in report) == sum(
        (d for _, d in raw), Fraction(0)
    )


def test_compute_deltas_missing_graph_names_version():
    chain = build_chain("s1", ["He", "gve"],
                        [EditOperation(1, 2, ("gave",), "Mec")], seed=0)
    graphs = graphs_for([chain])
    del graphs["s1.v1"]
    with pytest.raises(HarnessError, match="s1.v1"):
        compute_deltas([chain], graphs)


def test_compute_deltas_looks_up_the_source_first():
    """With the graphs of versions 0 and 1 both missing, the error names
    the source, version 1."""
    chain = build_chain("s1", ["He", "gve"],
                        [EditOperation(1, 2, ("gave",), "Mec")], seed=0, pin_source_index=1)
    graphs = graphs_for([chain])
    del graphs["s1.v0"], graphs["s1.v1"]
    with pytest.raises(HarnessError, match=r"^no parsed graph for version 's1\.v1'$"):
        compute_deltas([chain], graphs)


def test_compute_deltas_rejects_graph_with_other_tokens():
    """Like ``maege score``, which names the graph file too, it refuses a
    graph that does not hold its version's tokens, here a three-token graph
    for a two-token version."""
    chain = build_chain("s1", ["He", "gve"],
                        [EditOperation(1, 2, ("gave",), "Mec")], seed=0, pin_source_index=1)
    graphs = graphs_for([chain])
    graphs["s1.v0"] = toy_parse(["He", "gve", "it"], "s1.v0")
    with pytest.raises(GraphValidationError) as exc:
        compute_deltas([chain], graphs)
    assert str(exc.value) == (
        "graph for version 's1.v0' does not have the manifest tokens of that version")


def three_version_chain():
    edits = [EditOperation(1, 2, ("gave",), "Mec"), EditOperation(2, 2, ("it",), "Ins")]
    return build_chain("s1", ["He", "gve"], edits, seed=0, pin_source_index=0)


@pytest.mark.parametrize("count", [2, 4])
def test_chain_scores_rejects_a_graph_count_other_than_the_versions(count):
    """Two graphs for three versions would end in an IndexError, and four
    would have the extra graph ignored: both are refused, naming the chain
    and both counts."""
    chain = three_version_chain()
    graphs = [toy_parse(tokens, version_id("s1", k)) for k, tokens in enumerate(chain.versions)]
    graphs = (graphs + graphs)[:count]
    with pytest.raises(HarnessError) as exc:
        chain_scores(chain, graphs)
    assert str(exc.value) == f"chain 's1' has 3 versions, but {count} graphs were given"


@pytest.mark.parametrize("count", [2, 4])
def test_type_deltas_rejects_a_score_count_other_than_the_versions(count):
    chain = three_version_chain()
    with pytest.raises(HarnessError) as exc:
        type_deltas([chain], [[Fraction(1)] * count])
    assert str(exc.value) == f"chain 's1' has 3 versions, but {count} scores were given"


def test_type_deltas_rejects_a_score_list_count_other_than_the_chains():
    chain = three_version_chain()
    for lists in ([], [[Fraction(1)] * 3] * 2):
        with pytest.raises(HarnessError) as exc:
            type_deltas([chain], lists)
        assert str(exc.value) == f"1 chains, but {len(lists)} score lists were given"


def test_chain_scores_one_distance_per_distinct_string_pair(monkeypatch):
    """A chain makes one distance-table call, in which each distinct
    (source string, version string) pair appears once.  A version equal to
    the source (after lowercasing) adds no string: here version 1 differs
    from the source only in case, and ``sat`` (``The`` too, without
    lowercasing) is in no other version."""
    import semfaith.align

    calls = []
    real = semfaith.align._distance_table

    def counting(src, dst):
        calls.append([(a, b) for a in src for b in dst])
        return real(src, dst)

    monkeypatch.setattr(semfaith.align, "_distance_table", counting)
    edits = [EditOperation(0, 1, ("the",), "Case"), EditOperation(2, 3, ("sits",), "Verb"),
             EditOperation(5, 5, ("Now",), "Ins")]
    versions = apply_edits_in_order(["The", "cat", "sat", "the", "mat"], edits, (0, 1, 2))
    chain = VersionChain("s1", 0, (0, 1, 2), tuple(versions), 0, tuple(edits))
    rng = random.Random(5)
    graphs = [random_dag(rng, version_id("s1", k), list(tokens))
              for k, tokens in enumerate(chain.versions)]
    for lowercase, source_only in ((False, "The"), (True, "sat")):
        norm = str.lower if lowercase else str
        source = [norm(t) for t in chain.versions[0]]
        others = [[norm(t) for t in v] for v in chain.versions if [norm(t) for t in v] != source]
        expected = {(a, b) for a in source for b in itertools.chain(*others)}
        assert source_only in source and not any(source_only in v for v in others)
        for max_norm_dist in (None, 0.4):
            calls.clear()
            chain_scores(chain, graphs, lowercase=lowercase, max_norm_dist=max_norm_dist)
            assert len(calls) == 1
            assert sorted(calls[0]) == sorted(expected)
    calls.clear()
    only = build_chain("s2", ["The", "cat"], [], seed=0)
    chain_scores(only, [random_dag(rng, "s2.v0", ["The", "cat"])])
    assert calls == []
