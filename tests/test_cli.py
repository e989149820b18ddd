from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from fig1 import fig1_correction, fig1_source
from helpers_build import graph_from_nested
from semfaith import graph_to_dict
from semfaith.cli import main


def write_graph(path, graph):
    path.write_text(json.dumps(graph_to_dict(graph)), encoding="utf-8")
    return str(path)


@pytest.fixture
def fig1_files(tmp_path):
    src = write_graph(tmp_path / "src.json", fig1_source())
    cor = write_graph(tmp_path / "cor.json", fig1_correction())
    return src, cor


def corpus_dirs(tmp_path, pairs):
    src_dir = tmp_path / "src"
    cor_dir = tmp_path / "cor"
    src_dir.mkdir()
    cor_dir.mkdir()
    for name, g_s, g_c in pairs:
        if g_s is not None:
            write_graph(src_dir / f"{name}.json", g_s)
        if g_c is not None:
            write_graph(cor_dir / f"{name}.json", g_c)
    return str(src_dir), str(cor_dir)


# -- score -----------------------------------------------------------------


def test_score_identical_pair(fig1_files, capsys):
    src, _ = fig1_files
    assert main(["score", src, src]) == 0
    out = capsys.readouterr().out
    assert "average\t1.0000" in out


def test_score_fig1_golden(fig1_files, capsys):
    src, cor = fig1_files
    assert main(["score", src, cor]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[1].split("\t") == [
        "s_to_c", "1.0000", "0.7778", "0.8750", "7", "7", "7", "9",
    ]
    assert lines[2].split("\t") == [
        "c_to_s", "0.7143", "0.5556", "0.6250", "5", "7", "5", "9",
    ]
    assert lines[3] == "average\t0.7500"


def test_score_json_lines(fig1_files, capsys):
    src, cor = fig1_files
    assert main(["score", src, cor, "--format", "json-lines"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["id"] == "fig1"
    assert doc["average"] == "0.7500"
    assert doc["s_to_c"]["matched_reference"] == 7
    assert doc["s_to_c"]["reference_count"] == 9


def test_score_missing_file(tmp_path, capsys):
    assert main(["score", str(tmp_path / "nope.json"), str(tmp_path / "x.json")]) == 3
    assert "error" in capsys.readouterr().err


def test_score_validation_failure(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "id": "b", "tokens": ["a"],
        "nodes": [{"id": "r"}, {"id": "w", "anchor": 0}],
        "edges": [{"parent": "r", "child": "ghost", "labels": ["A"]}],
        "root": "r",
    }))
    assert main(["score", str(bad), str(bad)]) == 4
    assert "ghost" in capsys.readouterr().err


def test_score_to_file(fig1_files, tmp_path):
    src, cor = fig1_files
    out = tmp_path / "report.tsv"
    assert main(["score", src, cor, "--out", str(out)]) == 0
    assert "average\t0.7500" in out.read_text()


@pytest.mark.parametrize("where", ["nodir/x.tsv", "a directory"])
def test_score_rejects_unusable_out_before_reading(fig1_files, tmp_path, where, capsys):
    """Exit 2 from the flag check: with a missing source file too, the
    source is never read (that would exit 3)."""
    src, cor = fig1_files
    out = str(tmp_path) if where == "a directory" else str(tmp_path / where)
    for source in (src, str(tmp_path / "missing.json")):
        with pytest.raises(SystemExit) as exc:
            main(["score", source, cor, "--out", out])
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err


# -- corpus ----------------------------------------------------------------


def test_corpus_identical(tmp_path, capsys):
    g = fig1_source()
    src, cor = corpus_dirs(tmp_path, [("fig1", g, g)])
    assert main(["corpus", src, cor]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1].startswith("<aggregate>")
    assert out.splitlines()[-1].endswith("1.0000")


def test_corpus_rewrite_scores_lower(tmp_path, capsys):
    g = fig1_source()
    rewrite = graph_from_nested(
        "fig1", ["nothing", "matches"], ("r", [("D", 0), ("E", 1)])
    )
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    src1, cor1 = corpus_dirs(tmp_path / "a", [("fig1", g, g)])
    src2, cor2 = corpus_dirs(tmp_path / "b", [("fig1", g, rewrite)])
    main(["corpus", src1, cor1])
    ident = capsys.readouterr().out.splitlines()[-1].split("\t")[-1]
    main(["corpus", src2, cor2])
    rew = capsys.readouterr().out.splitlines()[-1].split("\t")[-1]
    assert float(rew) < float(ident)


def test_corpus_unpaired_warnings(tmp_path, capsys):
    g = fig1_source()
    g2 = fig1_source("other")
    src, cor = corpus_dirs(tmp_path, [("fig1", g, g), ("other", g2, None)])
    assert main(["corpus", src, cor]) == 0
    captured = capsys.readouterr()
    assert "only in source corpus" in captured.err
    assert "'other'" in captured.err
    assert "fig1" in captured.out


def test_corpus_no_pairs(tmp_path, capsys):
    src, cor = corpus_dirs(
        tmp_path, [("a", fig1_source("a"), None), ("b", None, fig1_source("b"))]
    )
    assert main(["corpus", src, cor]) == 5


def test_corpus_parallel_matches_sequential(tmp_path):
    pairs = []
    for i in range(6):
        g = fig1_source(f"s{i}")
        c = fig1_correction(f"s{i}") if i % 2 else g
        pairs.append((f"s{i}", g, c))
    src, cor = corpus_dirs(tmp_path, pairs)
    out1 = tmp_path / "seq.tsv"
    out2 = tmp_path / "par.tsv"
    assert main(["corpus", src, cor, "--out", str(out1)]) == 0
    assert main(["corpus", src, cor, "--jobs", "4", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_corpus_columns_and_aggregate(tmp_path, capsys):
    pairs = [("a", fig1_source("a"), fig1_correction("a")),
             ("b", fig1_source("b"), fig1_source("b"))]
    src, cor = corpus_dirs(tmp_path, pairs)
    assert main(["corpus", src, cor]) == 0
    header, row_a, row_b, agg = capsys.readouterr().out.splitlines()
    assert header.split("\t") == ["id", "s_to_c_p", "s_to_c_r", "s_to_c_f",
                                  "c_to_s_p", "c_to_s_r", "c_to_s_f", "average"]
    # fig1: s_to_c 1, 7/9, 7/8; c_to_s 5/7, 5/9, 5/8; average 3/4
    assert row_a == "a\t1.0000\t0.7778\t0.8750\t0.7143\t0.5556\t0.6250\t0.7500"
    assert row_b == "b" + "\t1.0000" * 7
    assert agg == "<aggregate>\t1.0000\t0.8889\t0.9375\t0.8571\t0.7778\t0.8125\t0.8750"
    assert main(["corpus", src, cor, "--format", "json-lines"]) == 0
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert last == {"aggregate": True, "pairs": 2, **dict(zip(header.split("\t")[1:],
                                                             agg.split("\t")[1:]))}


def test_corpus_jsonl_stream_input(tmp_path, capsys):
    g = fig1_source()
    src = tmp_path / "src.jsonl"
    cor = tmp_path / "cor.jsonl"
    src.write_text(json.dumps(graph_to_dict(g)) + "\n")
    cor.write_text(json.dumps(graph_to_dict(g)) + "\n")
    assert main(["corpus", str(src), str(cor)]) == 0
    assert "fig1" in capsys.readouterr().out


# -- distsim ---------------------------------------------------------------


def test_distsim_identical(tmp_path, capsys):
    g = fig1_source()
    src, cor = corpus_dirs(tmp_path, [("fig1", g, g)])
    assert main(["distsim", src, cor]) == 0
    out = capsys.readouterr().out
    rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
    assert all(row[2] == "0.0000" for row in rows)
    names = [row[0] for row in rows]
    assert "A+D" in names and "Scene" in names


def test_distsim_custom_groups(tmp_path, capsys):
    src, cor = corpus_dirs(tmp_path, [("fig1", fig1_source(), fig1_correction())])
    groups = tmp_path / "groups.json"
    groups.write_text(json.dumps({"relators": ["R"]}))
    assert main(["distsim", src, cor, "--groups", str(groups)]) == 0
    out = capsys.readouterr().out
    rows = out.strip().splitlines()
    assert rows[1].split("\t") == ["relators", "R", "1.0000", "0.5000"]
    assert len(rows) == 2


def test_distsim_default_groups_present_when_zero(tmp_path, capsys):
    g = graph_from_nested("x", ["a"], ("r", [("E", 0)]))
    src, cor = corpus_dirs(tmp_path, [("x", g, g)])
    assert main(["distsim", src, cor]) == 0
    out = capsys.readouterr().out
    names = [line.split("\t")[0] for line in out.strip().splitlines()[1:]]
    assert names == ["A+D", "Scene", "E"]


# -- maege -----------------------------------------------------------------


@pytest.fixture
def edit_corpus(tmp_path):
    path = tmp_path / "edits.jsonl"
    records = [
        {"sentence_id": "s1", "tokens": ["He", "gve", "an", "apple"],
         "edits": [{"start": 1, "end": 2, "replacement": ["gave"], "type": "Mec"},
                   {"start": 2, "end": 3, "replacement": ["the"], "type": "ArtOrDet"}]},
        {"sentence_id": "s2", "tokens": ["a", "b"],
         "edits": [{"start": 0, "end": 1, "replacement": [], "type": "Nn"}]},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(path)


def test_maege_gen_deterministic(edit_corpus, tmp_path):
    m1 = tmp_path / "m1.json"
    m2 = tmp_path / "m2.json"
    assert main(["maege", "gen", edit_corpus, "--seed", "42", "--out", str(m1)]) == 0
    assert main(["maege", "gen", edit_corpus, "--seed", "42", "--out", str(m2)]) == 0
    assert m1.read_bytes() == m2.read_bytes()


def test_maege_gen_rejects_out_in_missing_directory(edit_corpus, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["maege", "gen", edit_corpus, "--out", str(tmp_path / "nodir" / "m.json")])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err


def test_maege_score_identity_graphs(tmp_path, capsys):
    """Edits that rewrite tokens to themselves leave every version of a
    chain with the same tokens and the same graph, so every delta is 0."""
    records = [
        {"sentence_id": "s1", "tokens": ["He", "gave"],
         "edits": [{"start": 0, "end": 1, "replacement": ["He"], "type": "Mec"},
                   {"start": 1, "end": 2, "replacement": ["gave"], "type": "ArtOrDet"}]},
        {"sentence_id": "s2", "tokens": ["a"],
         "edits": [{"start": 0, "end": 1, "replacement": ["a"], "type": "Nn"}]},
    ]
    edits = write_records(tmp_path / "edits.jsonl", records)
    manifest = tmp_path / "m.json"
    main(["maege", "gen", edits, "--seed", "7", "--out", str(manifest)])
    graphs_dir = tmp_path / "graphs"
    graphs_dir.mkdir()
    write_version_graphs(json.loads(manifest.read_text()), graphs_dir)
    assert main(["maege", "score", str(manifest), str(graphs_dir)]) == 0
    out = capsys.readouterr().out
    rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
    assert {row[0] for row in rows} == {"Mec", "ArtOrDet", "Nn"}
    assert all(row[1] == "0.0000" for row in rows)


def test_maege_score_missing_graph(edit_corpus, tmp_path, capsys):
    manifest = tmp_path / "m.json"
    main(["maege", "gen", edit_corpus, "--seed", "7", "--out", str(manifest)])
    graphs_dir = tmp_path / "graphs"
    graphs_dir.mkdir()
    assert main(["maege", "score", str(manifest), str(graphs_dir)]) == 3
    assert ".v0" in capsys.readouterr().err


# -- interface hygiene -----------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [["score"], ["corpus"], ["distsim"], ["maege", "score"]],
)
def test_help_documents_flags(argv, capsys):
    with pytest.raises(SystemExit):
        main(argv + ["--help"])
    out = capsys.readouterr().out
    for flag in ("--format", "--lowercase", "--no-remote", "--strict-parent",
                 "--max-norm-dist", "--out"):
        assert flag in out
        assert "default" in out


def test_help_maege_gen(capsys):
    with pytest.raises(SystemExit):
        main(["maege", "gen", "--help"])
    out = capsys.readouterr().out
    assert "--seed" in out and "--out" in out and "--pin-source" in out


# -- non-UTF-8 input ---------------------------------------------------------

NOT_UTF8 = b'{"id": "caf\xe9"}\n'  # Latin-1 bytes


def test_score_non_utf8_graph(fig1_files, tmp_path, capsys):
    src, _ = fig1_files
    bad = tmp_path / "bad.json"
    bad.write_bytes(NOT_UTF8)
    assert main(["score", src, str(bad)]) == 3
    assert "not UTF-8" in capsys.readouterr().err


def test_corpus_non_utf8_stream(tmp_path, capsys):
    src = write_graph(tmp_path / "src.jsonl", fig1_source())
    bad = tmp_path / "cor.jsonl"
    bad.write_bytes(NOT_UTF8)
    assert main(["corpus", src, str(bad)]) == 3
    assert "not UTF-8" in capsys.readouterr().err


def test_distsim_non_utf8_groups(tmp_path, capsys):
    src = write_graph(tmp_path / "src.jsonl", fig1_source())
    groups = tmp_path / "groups.json"
    groups.write_bytes(NOT_UTF8)
    assert main(["distsim", src, src, "--groups", str(groups)]) == 3
    assert "not UTF-8" in capsys.readouterr().err


def test_maege_gen_non_utf8_edit_corpus(tmp_path, capsys):
    bad = tmp_path / "edits.jsonl"
    bad.write_bytes(NOT_UTF8)
    assert main(["maege", "gen", str(bad), "--out", str(tmp_path / "m.json")]) == 3
    assert "not UTF-8" in capsys.readouterr().err


def test_maege_score_non_utf8_manifest(tmp_path, capsys):
    bad = tmp_path / "m.json"
    bad.write_bytes(NOT_UTF8)
    assert main(["maege", "score", str(bad), str(tmp_path)]) == 3
    assert "not UTF-8" in capsys.readouterr().err


# -- flag values and bad harness input ----------------------------------------


@pytest.mark.parametrize("value", ["0", "-3"])
def test_corpus_rejects_jobs_below_one(fig1_files, value, capsys):
    src, cor = fig1_files
    with pytest.raises(SystemExit) as exc:
        main(["corpus", src, cor, "--jobs", value])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-5", "nan"])
def test_rejects_negative_or_nan_max_norm_dist(fig1_files, value, capsys):
    src, cor = fig1_files
    with pytest.raises(SystemExit) as exc:
        main(["score", src, cor, "--max-norm-dist", value])
    assert exc.value.code == 2
    assert "--max-norm-dist" in capsys.readouterr().err
    assert main(["score", src, cor, "--max-norm-dist", "1.5"]) == 0


def write_records(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(path)


def write_version_graphs(doc, directory):
    """A flat graph over each version's manifest tokens."""
    for v in doc["versions"]:
        tokens = v["tokens"]
        flat = ("r", [("A", i) for i in range(len(tokens))])
        write_graph(directory / f"{v['version_id']}.json",
                    graph_from_nested(v["version_id"], tokens, flat))


def test_maege_gen_rejects_duplicate_sentence_ids(tmp_path, capsys):
    record = {"sentence_id": "s1", "tokens": ["a", "b"],
              "edits": [{"start": 0, "end": 1, "replacement": ["c"], "type": "Mec"}]}
    edits = write_records(tmp_path / "edits.jsonl", [record, record])
    assert main(["maege", "gen", edits, "--out", str(tmp_path / "m.json")]) == 3
    assert "duplicate sentence_id 's1'" in capsys.readouterr().err


@pytest.mark.parametrize("sid", ["../x", "a/b", "a\\b", "", ".", "..", 7])
def test_maege_gen_rejects_path_like_sentence_ids(tmp_path, sid, capsys):
    record = {"sentence_id": sid, "tokens": ["a"], "edits": []}
    edits = write_records(tmp_path / "edits.jsonl", [record])
    assert main(["maege", "gen", edits, "--out", str(tmp_path / "m.json")]) == 3
    assert "sentence_id" in capsys.readouterr().err


def test_maege_score_rejects_sentence_id_outside_graphs_dir(edit_corpus, tmp_path, capsys):
    manifest = tmp_path / "m.json"
    main(["maege", "gen", edit_corpus, "--seed", "7", "--out", str(manifest)])
    doc = json.loads(manifest.read_text())
    for chain in doc["chains"]:
        chain["sentence_id"] = "../" + chain["sentence_id"]
    manifest.write_text(json.dumps(doc))
    graphs_dir = tmp_path / "graphs"
    graphs_dir.mkdir()
    write_version_graphs(doc, tmp_path)  # where "../<id>" resolves
    assert main(["maege", "score", str(manifest), str(graphs_dir)]) == 3
    assert "sentence_id '../s1'" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["tokens", "replacement"])
def test_maege_gen_rejects_string_token_lists(tmp_path, field, capsys):
    edit = {"start": 0, "end": 1, "replacement": ["c"], "type": "Mec"}
    record = {"sentence_id": "s1", "tokens": ["a", "b"], "edits": [edit]}
    (edit if field == "replacement" else record)[field] = "abc"
    edits = write_records(tmp_path / "edits.jsonl", [record])
    assert main(["maege", "gen", edits, "--out", str(tmp_path / "m.json")]) == 3
    assert f"{field} must be a list of strings" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["tokens", "replacement"])
def test_maege_score_rejects_string_token_lists(edit_corpus, tmp_path, field, capsys):
    manifest = tmp_path / "m.json"
    main(["maege", "gen", edit_corpus, "--seed", "7", "--out", str(manifest)])
    doc = json.loads(manifest.read_text())
    if field == "tokens":
        doc["versions"][0]["tokens"] = "abc"
    else:
        doc["chains"][0]["edits"][0]["replacement"] = "abc"
    manifest.write_text(json.dumps(doc))
    write_version_graphs(doc, tmp_path)
    assert main(["maege", "score", str(manifest), str(tmp_path)]) == 3
    assert f"{field} must be a list of strings" in capsys.readouterr().err


def test_cli_import_loads_no_numeric_or_pool_modules():
    probe = ("import sys, semfaith.cli; "
             "print(sorted({'scipy', 'numpy', 'concurrent.futures'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize(
    "field, value, message",
    [("start", 0.5, "start and end must be integers"),
     ("end", True, "start and end must be integers"),
     ("type", ["Mec"], "type must be a string")],
)
def test_maege_gen_rejects_mistyped_edit_fields(tmp_path, field, value, message, capsys):
    edit = {"start": 0, "end": 1, "replacement": ["c"], "type": "Mec"}
    edit[field] = value
    record = {"sentence_id": "s1", "tokens": ["a", "b"], "edits": [edit]}
    edits = write_records(tmp_path / "edits.jsonl", [record])
    assert main(["maege", "gen", edits, "--out", str(tmp_path / "m.json")]) == 3
    assert message in capsys.readouterr().err


def _manifest_with_graphs(edit_corpus, tmp_path, change=lambda doc: None):
    """A generated manifest with ``change(doc)`` applied, and graphs for
    every version."""
    manifest = tmp_path / "m.json"
    main(["maege", "gen", edit_corpus, "--seed", "7", "--out", str(manifest)])
    doc = json.loads(manifest.read_text())
    change(doc)
    manifest.write_text(json.dumps(doc))
    write_version_graphs(doc, tmp_path)
    return str(manifest)


@pytest.mark.parametrize(
    "field, value, message",
    [("start", 1.0, "start and end must be integers"),
     ("type", ["Mec"], "type must be a string")],
)
def test_maege_score_rejects_mistyped_edit_fields(edit_corpus, tmp_path, field, value,
                                                  message, capsys):
    def change(doc):
        doc["chains"][0]["edits"][0][field] = value

    manifest = _manifest_with_graphs(edit_corpus, tmp_path, change)
    assert main(["maege", "score", manifest, str(tmp_path)]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, message",
    [("order", [5], "not a permutation"),
     ("order", [0, 0], "not a permutation"),
     ("order", [False, True], "not a permutation"),
     ("source_index", 9, "not a version index"),
     ("source_index", True, "not a version index"),
     ("version_ids", [], "do not replay"),
     ("tokens", "She", "do not replay")],
)
def test_maege_score_rejects_chain_that_does_not_replay(edit_corpus, tmp_path, key, value,
                                                        message, capsys):
    def change(doc):
        if key == "tokens":  # a hand-edited token in the last version of s1
            vid = doc["chains"][0]["version_ids"][-1]
            version = next(v for v in doc["versions"] if v["version_id"] == vid)
            version["tokens"][0] = value
        else:
            doc["chains"][0][key] = value

    manifest = _manifest_with_graphs(edit_corpus, tmp_path, change)
    assert main(["maege", "score", manifest, str(tmp_path)]) == 3
    assert message in capsys.readouterr().err


def test_maege_score_rejects_graph_with_other_tokens(edit_corpus, tmp_path, capsys):
    manifest = _manifest_with_graphs(edit_corpus, tmp_path)
    assert main(["maege", "score", manifest, str(tmp_path)]) == 0
    capsys.readouterr()
    path = tmp_path / "s1.v1.json"
    doc = json.loads(path.read_text())
    doc["tokens"][0] = "Zebra"
    path.write_text(json.dumps(doc))
    assert main(["maege", "score", manifest, str(tmp_path)]) == 4
    assert "'s1.v1'" in capsys.readouterr().err


def test_scoring_commands_load_no_numeric_modules(fig1_files, edit_corpus, tmp_path):
    """Token alignment is pure Python: scoring imports neither numpy nor scipy."""
    src, cor = fig1_files
    (tmp_path / "corpus").mkdir()
    src_dir, cor_dir = corpus_dirs(tmp_path / "corpus", [("p", fig1_source(), fig1_correction())])
    manifest = _manifest_with_graphs(edit_corpus, tmp_path)
    for argv in (["score", src, cor],
                 ["corpus", src_dir, cor_dir],
                 ["maege", "score", manifest, str(tmp_path), "--max-norm-dist", "0.5"]):
        probe = ("import sys; from semfaith.cli import main; "
                 f"code = main({argv!r}); "
                 "print(code, sorted({'scipy', 'numpy'} & set(sys.modules)), file=sys.stderr)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        err = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True).stderr
        assert err.strip().splitlines()[-1] == "0 []", argv
