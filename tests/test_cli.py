from __future__ import annotations

import errno
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from fig1 import fig1_correction, fig1_source
from helpers_build import graph_from_nested
from semfaith import TokenMismatchError, cli, graph_to_dict, harness
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


def fig1_corpus(tmp_path, count):
    """``count`` copies of the fig1 pair, ids s0, s1, ...: equal costs, so
    with J jobs pair i goes to shard i mod J."""
    return corpus_dirs(tmp_path, [(f"s{i}", fig1_source(f"s{i}"), fig1_correction(f"s{i}"))
                                  for i in range(count)])


def count_forks(monkeypatch):
    """A list that gains an entry at every later ``os.fork`` call."""
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


@pytest.mark.parametrize("jobs, pairs, forks",
                         [(1, 4, 0), (2, 4, 1), (3, 4, 2), (4, 4, 3), (9, 4, 3), (3, 1, 0)])
def test_corpus_jobs_forks_one_child_per_extra_shard(tmp_path, monkeypatch, jobs, pairs, forks):
    src, cor = fig1_corpus(tmp_path, pairs)
    seq, par = tmp_path / "seq.tsv", tmp_path / "par.tsv"
    assert main(["corpus", src, cor, "--out", str(seq)]) == 0
    calls = count_forks(monkeypatch)
    assert main(["corpus", src, cor, "--jobs", str(jobs), "--out", str(par)]) == 0
    assert len(calls) == forks
    assert par.read_bytes() == seq.read_bytes()


def test_corpus_jobs_without_fork_scores_in_process(tmp_path, monkeypatch):
    src, cor = fig1_corpus(tmp_path, 3)
    seq, par = tmp_path / "seq.tsv", tmp_path / "par.tsv"
    assert main(["corpus", src, cor, "--out", str(seq)]) == 0
    monkeypatch.delattr(os, "fork")
    assert main(["corpus", src, cor, "--jobs", "3", "--out", str(par)]) == 0
    assert par.read_bytes() == seq.read_bytes()


def test_corpus_worker_exception_exits_as_sequential(tmp_path, monkeypatch, capsys):
    src, cor = fig1_corpus(tmp_path, 4)
    real_usim = cli.usim

    def failing_usim(g_s, g_c, **kwargs):
        if g_s.id in ("s1", "s3"):
            raise TokenMismatchError(f"{g_s.id} failed in process {os.getpid()}")
        return real_usim(g_s, g_c, **kwargs)

    monkeypatch.setattr(cli, "usim", failing_usim)
    out = tmp_path / "out.tsv"
    assert main(["corpus", src, cor, "--out", str(out)]) == 4
    assert f"s1 failed in process {os.getpid()}" in capsys.readouterr().err
    for jobs in ("2", "4"):  # s1 is in a child's shard
        assert main(["corpus", src, cor, "--jobs", jobs, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "error: s1 failed in process" in err
        assert f"process {os.getpid()}" not in err
        assert not out.exists()


@pytest.mark.parametrize("die, how", [
    (lambda: os._exit(7), "exit code 7"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), f"killed by signal {signal.SIGKILL}"),
], ids=["exit", "signal"])
def test_corpus_worker_death_fails_without_report(tmp_path, monkeypatch, capsys, die, how):
    src, cor = fig1_corpus(tmp_path, 2)
    parent = os.getpid()
    real_usim = cli.usim

    def dying_usim(g_s, g_c, **kwargs):
        if os.getpid() != parent:
            die()
        return real_usim(g_s, g_c, **kwargs)

    monkeypatch.setattr(cli, "usim", dying_usim)
    out = tmp_path / "out.tsv"
    assert main(["corpus", src, cor, "--jobs", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "wait status" in err and how in err
    assert not out.exists()


def test_corpus_interrupted_collect_reaps_every_worker(tmp_path, monkeypatch):
    """An exception while a worker's result is collected stops and reaps
    every forked worker, the one being collected included."""
    src, cor = fig1_corpus(tmp_path, 3)
    pids = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        pids.append(pid)
        return pid

    def interrupted_collect(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(cli, "_collect", interrupted_collect)
    with pytest.raises(KeyboardInterrupt):
        main(["corpus", src, cor, "--jobs", "3"])
    assert len(pids) == 2
    leaked = []
    for pid in pids:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            continue  # reaped by the command
        leaked.append(pid)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert leaked == []


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


def test_distsim_empty_groups_path_exits_3(tmp_path, capsys):
    """An empty ``--groups`` path is read like any other, so it fails as an
    unreadable file instead of falling back to the default groups."""
    src, cor = corpus_dirs(tmp_path, [("fig1", fig1_source(), fig1_correction())])
    out = tmp_path / "report.tsv"
    assert main(["distsim", src, cor, "--groups", "", "--out", str(out)]) == 3
    assert "cannot read" in capsys.readouterr().err
    assert not out.exists()


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


# -- report bytes ------------------------------------------------------------

GOLDEN = {
    ("score", "tsv"):
        "direction\tprecision\trecall\tf_score\tmatched_candidate\tcandidate_count"
        "\tmatched_reference\treference_count\n"
        "s_to_c\t1.0000\t0.7778\t0.8750\t7\t7\t7\t9\n"
        "c_to_s\t0.7143\t0.5556\t0.6250\t5\t7\t5\t9\n"
        "average\t0.7500\n",
    ("score", "json-lines"):
        '{"average": "0.7500", '
        '"c_to_s": {"candidate_count": 7, "f": "0.6250", "matched_candidate": 5, '
        '"matched_reference": 5, "p": "0.7143", "r": "0.5556", "reference_count": 9}, '
        '"id": "fig1", '
        '"s_to_c": {"candidate_count": 7, "f": "0.8750", "matched_candidate": 7, '
        '"matched_reference": 7, "p": "1.0000", "r": "0.7778", "reference_count": 9}}\n',
    ("corpus", "tsv"):
        "id\ts_to_c_p\ts_to_c_r\ts_to_c_f\tc_to_s_p\tc_to_s_r\tc_to_s_f\taverage\n"
        "a\t1.0000\t0.7778\t0.8750\t0.7143\t0.5556\t0.6250\t0.7500\n"
        "b\t1.0000\t1.0000\t1.0000\t1.0000\t1.0000\t1.0000\t1.0000\n"
        "<aggregate>\t1.0000\t0.8889\t0.9375\t0.8571\t0.7778\t0.8125\t0.8750\n",
    ("corpus", "json-lines"):
        '{"average": "0.7500", '
        '"c_to_s": {"candidate_count": 7, "f": "0.6250", "matched_candidate": 5, '
        '"matched_reference": 5, "p": "0.7143", "r": "0.5556", "reference_count": 9}, '
        '"id": "a", '
        '"s_to_c": {"candidate_count": 7, "f": "0.8750", "matched_candidate": 7, '
        '"matched_reference": 7, "p": "1.0000", "r": "0.7778", "reference_count": 9}}\n'
        '{"average": "1.0000", '
        '"c_to_s": {"candidate_count": 9, "f": "1.0000", "matched_candidate": 9, '
        '"matched_reference": 9, "p": "1.0000", "r": "1.0000", "reference_count": 9}, '
        '"id": "b", '
        '"s_to_c": {"candidate_count": 9, "f": "1.0000", "matched_candidate": 9, '
        '"matched_reference": 9, "p": "1.0000", "r": "1.0000", "reference_count": 9}}\n'
        '{"aggregate": true, "average": "0.8750", "c_to_s_f": "0.8125", "c_to_s_p": "0.8571", '
        '"c_to_s_r": "0.7778", "pairs": 2, "s_to_c_f": "0.9375", "s_to_c_p": "1.0000", '
        '"s_to_c_r": "0.8889"}\n',
    ("distsim", "tsv"):
        "group\tlabels\tdistance\tsimilarity\n"
        "A+D\tA,D\t0.0000\t1.0000\n"
        "Scene\tH\t0.0000\t1.0000\n"
        "A\tA\t0.0000\t1.0000\n"
        "C\tC\t0.5000\t0.6667\n"
        "E\tE\t0.0000\t1.0000\n"
        "H\tH\t0.0000\t1.0000\n"
        "P\tP\t0.0000\t1.0000\n"
        "R\tR\t0.5000\t0.6667\n",
    ("distsim", "json-lines"):
        '{"distance": "0.0000", "group": "A+D", "labels": ["A", "D"], "similarity": "1.0000"}\n'
        '{"distance": "0.0000", "group": "Scene", "labels": ["H"], "similarity": "1.0000"}\n'
        '{"distance": "0.0000", "group": "A", "labels": ["A"], "similarity": "1.0000"}\n'
        '{"distance": "0.5000", "group": "C", "labels": ["C"], "similarity": "0.6667"}\n'
        '{"distance": "0.0000", "group": "E", "labels": ["E"], "similarity": "1.0000"}\n'
        '{"distance": "0.0000", "group": "H", "labels": ["H"], "similarity": "1.0000"}\n'
        '{"distance": "0.0000", "group": "P", "labels": ["P"], "similarity": "1.0000"}\n'
        '{"distance": "0.5000", "group": "R", "labels": ["R"], "similarity": "0.6667"}\n',
    ("maege score", "tsv"):
        "type\tdelta_mean\toccurrences\n"
        "Nn\t0.3333\t1\n"
        "ArtOrDet\t0.0000\t1\n"
        "Mec\t0.0000\t1\n",
    ("maege score", "json-lines"):
        '{"delta_mean": "0.3333", "occurrences": 1, "type": "Nn"}\n'
        '{"delta_mean": "0.0000", "occurrences": 1, "type": "ArtOrDet"}\n'
        '{"delta_mean": "0.0000", "occurrences": 1, "type": "Mec"}\n',
}


def report_argv(command, fig1_files, edit_corpus, tmp_path):
    """The argv of ``command`` on the fig1 pair (``score``), the corpus of
    pairs a = fig1 and b = fig1 source against itself (``corpus``,
    ``distsim``), or the ``edit_corpus`` chains at seed 7 (``maege score``)."""
    if command == "score":
        return ["score", *fig1_files]
    if command == "maege score":
        return ["maege", "score", _manifest_with_graphs(edit_corpus, tmp_path), str(tmp_path)]
    src, cor = corpus_dirs(tmp_path, [("a", fig1_source("a"), fig1_correction("a")),
                                      ("b", fig1_source("b"), fig1_source("b"))])
    return [command, src, cor]


@pytest.mark.parametrize("command, fmt", sorted(GOLDEN))
def test_report_bytes(command, fmt, fig1_files, edit_corpus, tmp_path, capsys):
    argv = report_argv(command, fig1_files, edit_corpus, tmp_path)
    capsys.readouterr()
    assert main([*argv, "--format", fmt]) == 0
    assert capsys.readouterr().out == GOLDEN[command, fmt]


def tsv_guard_argv(case, edit_corpus, tmp_path):
    """The argv of a command whose report holds a tab or a line break in one
    TSV field."""
    if case == "corpus id":
        g = fig1_source("a\tb\nc")
        stream = write_graph(tmp_path / "c.jsonl", g)
        return ["corpus", stream, stream]
    if case == "distsim label":
        g = graph_from_nested("x", ["a"], ("r", [("A\tB", 0)]))
        stream = write_graph(tmp_path / "c.jsonl", g)
        return ["distsim", stream, stream]
    if case == "distsim group":
        stream = write_graph(tmp_path / "c.jsonl", fig1_source())
        groups = tmp_path / "groups.json"
        groups.write_text(json.dumps({"relators\there": ["R"]}))
        return ["distsim", stream, stream, "--groups", str(groups)]
    records = [json.loads(line) for line in Path(edit_corpus).read_text().splitlines()]
    records[0]["edits"][0]["type"] = "Mec\nhere"
    edits = write_records(tmp_path / "edits.jsonl", records)
    (tmp_path / "graphs").mkdir()
    return ["maege", "score", _manifest_with_graphs(edits, tmp_path / "graphs"),
            str(tmp_path / "graphs")]


@pytest.mark.parametrize("case", ["corpus id", "distsim label", "distsim group",
                                  "maege edit type"])
def test_tsv_field_with_tab_or_line_break_exits_3(case, edit_corpus, tmp_path, capsys):
    argv = tsv_guard_argv(case, edit_corpus, tmp_path)
    out = tmp_path / "report.tsv"
    assert main([*argv, "--out", str(out)]) == 3
    assert "--format json-lines" in capsys.readouterr().err
    assert not out.exists()
    assert main([*argv, "--format", "json-lines", "--out", str(out)]) == 0
    assert out.exists()


# -- interface hygiene -----------------------------------------------------


COMMON_FLAGS = ("--format", "--no-remote", "--out")
ALIGNMENT_FLAGS = ("--lowercase", "--strict-parent", "--max-norm-dist")


@pytest.mark.parametrize(
    "argv",
    [["score"], ["corpus"], ["distsim"], ["maege", "score"]],
)
def test_help_documents_flags(argv, capsys):
    """Every report command takes the common flags; all but ``distsim``,
    which aligns no tokens, take the alignment flags too, and only
    ``corpus`` takes ``--jobs``: ``maege score`` forks one worker per
    usable CPU."""
    with pytest.raises(SystemExit):
        main(argv + ["--help"])
    out = capsys.readouterr().out
    if argv == ["distsim"]:
        present, absent = COMMON_FLAGS + ("--groups",), ALIGNMENT_FLAGS + ("--jobs",)
    elif argv == ["corpus"]:
        present, absent = COMMON_FLAGS + ALIGNMENT_FLAGS + ("--jobs",), ()
    else:
        present, absent = COMMON_FLAGS + ALIGNMENT_FLAGS, ("--jobs",)
    for flag in present:
        assert flag in out
    for flag in absent:
        assert flag not in out
    assert "default" in out


PUBLIC_NAMES = {
    "C_TO_S", "Edge", "EdgeInstance", "EditOperation", "GraphFormatError",
    "GraphValidationError", "HarnessError", "LabelDistSim", "LeafAlignment", "Node",
    "NodeAlignment", "S_TO_C", "ScoreTriple", "SemanticGraph", "TokenMismatchError",
    "TypeDelta", "UsimReport", "VersionChain", "align_leaves", "apply_edit",
    "apply_edits_in_order", "build_chain", "compute_deltas", "dag_fscore", "distsim",
    "edge_instances", "edit_distance", "emit_manifest", "extend_alignment",
    "format_alignment_dump", "graph_from_dict", "graph_to_dict", "load_graph",
    "load_manifest", "match_edges", "parse_graph", "read_corpus", "read_edit_corpus",
    "usim", "usim_from_alignment", "version_id", "yield_of",
}


def test_package_exports_only_the_pinned_names():
    """Every name ``semfaith`` exports, submodules aside, is called by the
    CLI, the benchmark or the tests; a new export must be added here."""
    import types

    import semfaith

    exported = {name for name in dir(semfaith) if not name.startswith("_")
                and not isinstance(getattr(semfaith, name), types.ModuleType)}
    assert exported == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 42


@pytest.mark.parametrize("flags", [["--lowercase"], ["--strict-parent"],
                                   ["--max-norm-dist", "0.5"]])
def test_distsim_rejects_alignment_flags(flags, tmp_path, capsys):
    stream = write_graph(tmp_path / "c.jsonl", fig1_source())
    with pytest.raises(SystemExit) as exc:
        main(["distsim", stream, stream, *flags])
    assert exc.value.code == 2
    assert flags[0] in capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["score", "corpus", "distsim", "maege gen", "maege score"])
def test_empty_input_path_exits_3(command, edit_corpus, tmp_path, monkeypatch, capsys):
    """An empty path would be Path(""), the current directory.  Here that
    directory holds a graph file and the version graphs of a manifest, so
    reading it could score them; an empty path exits 3 and writes no report."""
    manifest = tmp_path / "m.json"
    assert main(["maege", "gen", edit_corpus, "--seed", "7", "--out", str(manifest)]) == 0
    work = tmp_path / "cwd"
    work.mkdir()
    write_version_graphs(json.loads(manifest.read_text()), work)
    graph = write_graph(work / "g.json", fig1_source())
    monkeypatch.chdir(work)
    out = str(tmp_path / "report")
    argv = {
        "score": ["score", "", graph],
        "corpus": ["corpus", "", ""],
        "distsim": ["distsim", "", ""],
        "maege gen": ["maege", "gen", ""],
        "maege score": ["maege", "score", str(manifest), ""],
    }[command]
    assert main([*argv, "--out", out]) == 3
    assert "the path is empty" in capsys.readouterr().err
    assert not Path(out).exists()


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
             "print(sorted({'scipy', 'numpy', 'concurrent.futures', 'multiprocessing', "
             "'pickle'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_cli_import_loads_no_dataclasses():
    """``-S`` keeps a ``site`` .pth file from importing ``dataclasses``
    itself; the package is imported from the directory the tests use."""
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = "import sys; import semfaith.cli; assert 'dataclasses' not in sys.modules"
    subprocess.run([sys.executable, "-S", "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                   check=True)


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


def test_maege_score_rejects_version_ids_it_does_not_read(edit_corpus, tmp_path, capsys):
    """Renamed version ids would name graph files that ``maege score`` never
    reads, since it reads ``<version_id(sid, k)>.json``: they exit 3 even
    with a graph under every name."""
    manifest = _manifest_with_graphs(edit_corpus, tmp_path)
    doc = json.loads(Path(manifest).read_text())
    for v in doc["versions"]:
        v["version_id"] = "X" + v["version_id"]
    for c in doc["chains"]:
        c["version_ids"] = ["X" + vid for vid in c["version_ids"]]
    Path(manifest).write_text(json.dumps(doc))
    write_version_graphs(doc, tmp_path)
    assert main(["maege", "score", manifest, str(tmp_path)]) == 3
    assert ("chain 's1': version_ids[0] is 'Xs1.v0', not 's1.v0'"
            in capsys.readouterr().err)


@pytest.mark.parametrize("tokens_of", [0, -1])
def test_maege_score_rejects_repeated_version_id(edit_corpus, tmp_path, tokens_of, capsys):
    """A second ``versions`` entry for ``s1.v0`` exits 3 naming the id,
    whether it repeats the tokens of ``s1.v0`` or has the last version's."""
    def change(doc):
        tokens = doc["versions"][tokens_of]["tokens"]
        doc["versions"].append({"version_id": "s1.v0", "tokens": tokens})

    manifest = _manifest_with_graphs(edit_corpus, tmp_path, change)
    assert main(["maege", "score", manifest, str(tmp_path)]) == 3
    assert "versions repeat version_id 's1.v0'" in capsys.readouterr().err


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


# -- parallel maege score and fork failure -------------------------------------


def maege_chains(tmp_path, count, pin_source=None):
    """A manifest of ``count`` chains c0, c1, ... and flat graphs for every
    version, in ``tmp_path``.  With ``pin_source`` every chain has the same
    tokens, edits and source, so the same cost: with J jobs chain i goes to
    shard i mod J."""
    records = []
    for i in range(count):
        n = 3 if pin_source is not None else 3 + i % 4
        tokens = [f"w{j}" for j in range(n)]
        edits = [{"start": 0, "end": 1, "replacement": ["x", "y"], "type": "Ins"},
                 {"start": 1, "end": 2, "replacement": ["w1"], "type": "Same"},
                 {"start": n - 1, "end": n, "replacement": [], "type": "Del"}]
        records.append({"sentence_id": f"c{i}", "tokens": tokens, "edits": edits})
    edits = write_records(tmp_path / "edits.jsonl", records)
    manifest = tmp_path / "m.json"
    pin = [] if pin_source is None else ["--pin-source", str(pin_source)]
    assert main(["maege", "gen", edits, "--seed", "3", *pin, "--out", str(manifest)]) == 0
    write_version_graphs(json.loads(manifest.read_text()), tmp_path)
    return str(manifest), str(tmp_path)


def maege_score(monkeypatch, argv, cpus):
    """``main(argv)`` for a ``maege score`` argv, with ``cpus`` usable CPUs."""
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    return main(argv)


@pytest.mark.parametrize("fmt", ["tsv", "json-lines"])
def test_maege_score_parallel_matches_sequential(fmt, tmp_path, monkeypatch):
    manifest, graphs = maege_chains(tmp_path, 5)
    argv = ["maege", "score", manifest, graphs, "--format", fmt, "--out", str(tmp_path / "out")]
    outs = []
    assert main(argv) == 0  # this machine's CPUs
    outs.append((tmp_path / "out").read_bytes())
    for cpus in (1, 2, 3):
        assert maege_score(monkeypatch, argv, cpus) == 0
        outs.append((tmp_path / "out").read_bytes())
    assert len(outs[0].splitlines()) == 3 + (fmt == "tsv")  # three edit types
    assert outs[1:] == outs[:1] * 3


@pytest.mark.parametrize("cpus, chains, forks", [(1, 3, 0), (2, 3, 1), (3, 3, 2), (5, 3, 2)])
def test_maege_score_forks_one_child_per_extra_cpu(tmp_path, monkeypatch, cpus, chains, forks):
    manifest, graphs = maege_chains(tmp_path, chains)
    seq, par = tmp_path / "seq.tsv", tmp_path / "par.tsv"
    assert maege_score(monkeypatch, ["maege", "score", manifest, graphs, "--out", str(seq)],
                       1) == 0
    calls = count_forks(monkeypatch)
    assert maege_score(monkeypatch, ["maege", "score", manifest, graphs, "--out", str(par)],
                       cpus) == 0
    assert len(calls) == forks
    assert par.read_bytes() == seq.read_bytes()


V1_QUOTA, V1_PERIOD = "cpu/cpu.cfs_quota_us", "cpu/cpu.cfs_period_us"


@pytest.mark.parametrize("files, cpus", [
    ({}, 4),
    ({"cpu.max": b"max 100000\n"}, 4),
    ({"cpu.max": b"150000 100000\n"}, 2),
    ({"cpu.max": b"50000 100000\n"}, 1),
    ({"cpu.max": b"800000 100000\n"}, 4),  # a bound above the affinity count
    ({V1_QUOTA: b"-1\n", V1_PERIOD: b"100000\n"}, 4),
    ({V1_QUOTA: b"250000\n", V1_PERIOD: b"100000\n"}, 3),
    ({V1_QUOTA: b"250000\n"}, 4),  # no period file
    ({"cpu.max": b"150000\n"}, 4),
    ({"cpu.max": b"garbage 100000\n"}, 4),
    ({"cpu.max": b"\xff\xfe"}, 4),
    ({V1_QUOTA: b"100000\n", V1_PERIOD: b"0\n"}, 4),
    ({"cpu.max/": b""}, 4),  # a directory where the file should be: unreadable
], ids=["none", "v2 max", "v2 1.5", "v2 0.5", "v2 8", "v1 -1", "v1 2.5", "v1 no period",
        "v2 one field", "v2 garbage", "v2 not text", "v1 zero period", "v2 unreadable"])
def test_usable_cpus_bounded_by_cgroup_quota(tmp_path, monkeypatch, files, cpus):
    """The affinity count, bounded by the cgroup CPU quota rounded up; a
    missing, unreadable or malformed quota file is no bound."""
    for name, content in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if name.endswith("/"):
            path.mkdir()
        else:
            path.write_bytes(content)
    monkeypatch.setattr(cli, "_CGROUP", tmp_path)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert cli._usable_cpus() == cpus


def _remove_graph(graphs, vid):
    Path(graphs, f"{vid}.json").unlink()


def _retoken_graph(graphs, vid):
    path = Path(graphs, f"{vid}.json")
    doc = json.loads(path.read_text())
    doc["tokens"][0] = "Zebra"
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("damage, failing, code, message", [
    # a scoring failure in c0 (this process's shard) and a missing graph in c1
    ([(_remove_graph, "c1.v2")], {"c0.v1"}, 3, "no graph file for version 'c1.v2'"),
    # a wrong-token graph in c1 (a child's shard) and a missing graph in c2
    ([(_retoken_graph, "c1.v1"), (_remove_graph, "c2.v0")], {"c0.v1"}, 4,
     "graph for version 'c1.v1'"),
    # scoring failures in c1 (a child's shard) and c2 (this process's shard)
    ([], {"c1.v2", "c2.v0"}, 4, "error: c1.v2 failed to score"),
], ids=["load beats earlier scoring", "earlier load beats later load",
        "earlier scoring beats later scoring"])
def test_maege_score_failure_precedence_as_sequential(tmp_path, monkeypatch, capsys, damage,
                                                      failing, code, message):
    """With four chains of equal cost, chain i goes to shard i mod shards,
    so with two CPUs c0 and c2 are scored in this process and c1 and c3 in
    a child.  Every CPU count fails as one CPU does: with the first load
    failure in manifest order, else the first scoring failure."""
    manifest, graphs = maege_chains(tmp_path, 4, pin_source=0)
    for change, vid in damage:
        change(graphs, vid)
    real_usim = harness.usim

    def failing_usim(g_s, g_c, **kwargs):
        if g_c.id in failing:
            raise TokenMismatchError(f"{g_c.id} failed to score")
        return real_usim(g_s, g_c, **kwargs)

    monkeypatch.setattr(harness, "usim", failing_usim)
    out = tmp_path / "out.tsv"
    errors = []
    for cpus in (1, 2, 3, 4):
        argv = ["maege", "score", manifest, graphs, "--out", str(out)]
        assert maege_score(monkeypatch, argv, cpus) == code
        errors.append(capsys.readouterr().err)
        assert not out.exists()
    assert message in errors[0]
    assert errors[1:] == errors[:1] * 3


def test_maege_score_worker_death_fails_without_report(tmp_path, monkeypatch, capsys):
    manifest, graphs = maege_chains(tmp_path, 2)
    parent = os.getpid()
    real_usim = harness.usim

    def dying_usim(g_s, g_c, **kwargs):
        if os.getpid() != parent:
            os._exit(7)
        return real_usim(g_s, g_c, **kwargs)

    monkeypatch.setattr(harness, "usim", dying_usim)
    out = tmp_path / "out.tsv"
    assert maege_score(monkeypatch, ["maege", "score", manifest, graphs, "--out", str(out)],
                       2) == 1
    err = capsys.readouterr().err
    assert "wait status" in err and "exit code 7" in err
    assert not out.exists()


def _failing_fork():
    raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")


def _failing_pipe():
    raise OSError(errno.EMFILE, "Too many open files")


@pytest.mark.parametrize("call, failure", [("fork", _failing_fork), ("pipe", _failing_pipe)],
                         ids=["fork", "pipe"])
def test_failed_fork_scores_in_process(tmp_path, monkeypatch, call, failure):
    """Where ``os.fork`` or ``os.pipe`` fails, as at a process or file
    descriptor limit, both commands leave no descriptor open and score
    every shard in this process, as with one job."""
    (tmp_path / "corpus").mkdir()
    (tmp_path / "maege").mkdir()
    src, cor = fig1_corpus(tmp_path / "corpus", 3)
    manifest, graphs = maege_chains(tmp_path / "maege", 3)
    corpus = ["corpus", src, cor, "--out", str(tmp_path / "out")]
    maege = ["maege", "score", manifest, graphs, "--out", str(tmp_path / "out")]
    expected = []
    for run in (lambda: main([*corpus, "--jobs", "1"]), lambda: maege_score(monkeypatch, maege, 1)):
        assert run() == 0
        expected.append((tmp_path / "out").read_bytes())

    monkeypatch.setattr(os, call, failure)
    fds = Path("/proc/self/fd")
    runs = (lambda: main([*corpus, "--jobs", "2"]), lambda: maege_score(monkeypatch, maege, 2))
    for run, want in zip(runs, expected):
        before = len(list(fds.iterdir())) if fds.is_dir() else None
        assert run() == 0
        assert (tmp_path / "out").read_bytes() == want
        if before is not None:
            assert len(list(fds.iterdir())) == before
