from __future__ import annotations

import errno
import json
import os
import random
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fig1 import fig1_correction, fig1_source
from helpers_build import graph_from_nested, random_dag, random_tokens
from semfaith import (
    S_TO_C,
    GraphValidationError,
    LeafAlignment,
    cli,
    extend_alignment,
    graph_from_dict,
    graph_to_dict,
    harness,
)
from semfaith.cli import main
from test_graph import UNICODE_LINE_BREAKS
from test_harness import random_edits


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


def ghost_edge_graph(gid):
    """A graph document with an edge into an undeclared node (exit 4)."""
    return {
        "id": gid, "tokens": ["a"],
        "nodes": [{"id": "r"}, {"id": "w", "anchor": 0}],
        "edges": [{"parent": "r", "child": "ghost", "labels": ["A"]}],
        "root": "r",
    }


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
    bad.write_text(json.dumps(ghost_edge_graph("b")))
    assert main(["score", str(bad), str(bad)]) == 4
    assert capsys.readouterr().err == (
        f"error: {bad}: graph 'b': edge 'r'->'ghost' references undeclared node 'ghost'\n")


def test_score_rejects_repeated_edge_instance(tmp_path, capsys):
    """Two primary edges r->x that share label A would make the graph score
    0.75 against itself; the document exits 4 instead."""
    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps({
        "id": "g", "tokens": ["a", "b"],
        "nodes": [{"id": "r"}, {"id": "x", "anchor": 0}, {"id": "y", "anchor": 1}],
        "edges": [{"parent": "r", "child": "x", "labels": ["A"]},
                  {"parent": "r", "child": "x", "labels": ["A", "D"]},
                  {"parent": "r", "child": "y", "labels": ["C"]}],
        "root": "r",
    }))
    assert main(["score", str(dup), str(dup)]) == 4
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {dup}: graph 'g': edges 'r'->'x' repeat label 'A'\n")


def test_score_to_file(fig1_files, tmp_path):
    src, cor = fig1_files
    out = tmp_path / "report.tsv"
    assert main(["score", src, cor, "--out", str(out)]) == 0
    assert "average\t0.7500" in out.read_text()


@pytest.mark.parametrize("where", ["nodir/x.tsv", "a directory",
                                   pytest.param("a" * 300, id="a name too long")])
def test_score_rejects_unusable_out_before_reading(fig1_files, tmp_path, where, capsys):
    """Exit 2 from the flag check: with a missing source file too, the
    source is never read (that would exit 3).  The last name is too long
    for the file system, which fails the check's own calls."""
    src, cor = fig1_files
    out = str(tmp_path) if where == "a directory" else str(tmp_path / where)
    for source in (src, str(tmp_path / "missing.json")):
        with pytest.raises(SystemExit) as exc:
            main(["score", source, cor, "--out", out])
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err


def test_score_unary_chain_deeper_than_recursion_limit(tmp_path):
    """One token under 2999 unary internal nodes: loading, lifting and
    scoring it may not recurse once per level."""
    nodes = 3000
    assert nodes > sys.getrecursionlimit()
    ids = [f"n{k:05d}" for k in range(nodes - 1)] + ["w0"]
    doc = {
        "id": "chain",
        "tokens": ["word"],
        "nodes": [{"id": i} for i in ids[:-1]] + [{"id": "w0", "anchor": 0}],
        "edges": [{"parent": a, "child": b, "labels": ["E"]} for a, b in zip(ids, ids[1:])],
        "root": ids[0],
    }
    chain = graph_from_dict(doc)
    na = extend_alignment(chain, chain, LeafAlignment(frozenset({(0, 0)})), S_TO_C)
    assert len(na.mapping) == nodes
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["score", str(path), str(path), "--out", str(tmp_path / "report.tsv")]) == 0


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


def test_corpus_validation_error_names_file_and_line(tmp_path, capsys):
    """The source and the correction of a pair share a graph id, so a
    validation error names the file, or the line of a ``.jsonl`` corpus,
    that holds the bad graph, as a format error does."""
    message = "graph 'p': edge 'r'->'ghost' references undeclared node 'ghost'"
    src, cor = corpus_dirs(tmp_path, [("p", fig1_source("p"), None)])
    bad = Path(cor) / "p.json"
    bad.write_text(json.dumps(ghost_edge_graph("p")))
    assert main(["corpus", src, cor]) == 4
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    src_lines = tmp_path / "src.jsonl"
    src_lines.write_text(json.dumps(graph_to_dict(fig1_source("p"))) + "\n")
    cor_lines = tmp_path / "cor.jsonl"
    cor_lines.write_text(json.dumps(graph_to_dict(fig1_source("q"))) + "\n\n"
                         + json.dumps(ghost_edge_graph("p")) + "\n")
    assert main(["corpus", str(src_lines), str(cor_lines)]) == 4
    assert capsys.readouterr().err == f"error: {cor_lines} line 3: {message}\n"


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
            raise GraphValidationError(f"{g_s.id} failed in process {os.getpid()}")
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


def test_corpus_duplicate_id_names_both_graphs(tmp_path, capsys):
    """A graph id read twice exits 3, naming the ``.jsonl`` line or the file
    of each of the two graphs."""
    text, other = (json.dumps(graph_to_dict(fig1_source(gid))) for gid in "gh")
    stream = tmp_path / "dup.jsonl"
    stream.write_text(f"{text}\n{other}\n\n{text}\n")
    assert main(["corpus", str(stream), str(stream)]) == 3
    assert capsys.readouterr().err == (
        f"error: {stream} line 4: duplicate graph id 'g', first read at {stream} line 1\n")
    src, _ = corpus_dirs(tmp_path, [("a", fig1_source("g"), None), ("b", fig1_source("g"), None)])
    first, second = Path(src) / "a.json", Path(src) / "b.json"
    assert main(["corpus", src, src]) == 3
    assert capsys.readouterr().err == (
        f"error: {second}: duplicate graph id 'g', first read at {first}\n")


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["CRLF", "CR"])
def test_jsonl_records_end_at_crlf_and_lone_cr(newline, tmp_path, capsys):
    """Text mode reads ``\\r\\n`` and a lone ``\\r`` as ``\\n``, so a
    ``.jsonl`` corpus or edit corpus written with either is read, and its
    lines are numbered, as with ``\\n``: the bad record after a good one
    and a blank line is line 3."""
    good, bad = json.dumps(graph_to_dict(fig1_source("q"))), json.dumps(ghost_edge_graph("p"))
    src = write_graph(tmp_path / "src.jsonl", fig1_source("q"))
    cor = tmp_path / "cor.jsonl"
    cor.write_bytes(newline.join([good, "", bad, ""]).encode())
    assert main(["corpus", src, str(cor)]) == 4
    assert capsys.readouterr().err.startswith(f"error: {cor} line 3: graph 'p': ")
    cor.write_bytes(newline.join([good, "", ""]).encode())
    assert main(["corpus", src, str(cor)]) == 0
    assert capsys.readouterr().out.endswith("\t1.0000\n")
    record = {"sentence_id": "s1", "tokens": ["He", "gve"],
              "edits": [{"start": 1, "end": 2, "replacement": ["gave"], "type": "Mec"}]}
    empty = {**record, "sentence_id": "s2", "tokens": ["He", ""]}
    edits = tmp_path / "edits.jsonl"
    edits.write_bytes(newline.join([json.dumps(record), "", json.dumps(empty), ""]).encode())
    assert main(["maege", "gen", str(edits), "--out", str(tmp_path / "m.json")]) == 3
    assert capsys.readouterr().err == f"error: {edits} line 3: tokens[1] is an empty string\n"


# Characters at which ``str.splitlines`` ends a line but JSON Lines does not.
NOT_NEWLINES = ["\v", "\f", "\x1c", "\x1d", "\x1e", *UNICODE_LINE_BREAKS]


@pytest.mark.parametrize("separator", NOT_NEWLINES, ids=ascii)
def test_jsonl_records_end_only_at_a_newline(separator, edit_corpus, tmp_path, capsys):
    """Two records that such a character separates are one line, and that
    line is not JSON, in a corpus and in an edit corpus alike."""
    stream = tmp_path / "c.jsonl"
    stream.write_text(separator.join(json.dumps(graph_to_dict(fig1_source(gid)))
                                     for gid in "pq") + "\n", encoding="utf-8")
    assert main(["corpus", str(stream), str(stream)]) == 3
    assert capsys.readouterr().err.startswith(
        f"error: {stream} line 1: document: invalid JSON: Extra data")
    records = Path(edit_corpus).read_text(encoding="utf-8").split("\n")
    Path(edit_corpus).write_text(separator.join(records), encoding="utf-8")
    assert main(["maege", "gen", edit_corpus, "--out", str(tmp_path / "m.json")]) == 3
    assert capsys.readouterr().err.startswith(
        f"error: {edit_corpus} line 1: invalid JSON: Extra data")


def test_tsv_guard_refuses_a_line_break_that_the_reader_keeps(tmp_path, capsys):
    """A graph id holding a raw U+2028 reads, since a JSON Lines record ends
    only at a newline.  A TSV reader may end a row there, so a TSV report
    refuses the id, naming its column, and a JSON Lines report keeps it."""
    stream = tmp_path / "c.jsonl"
    stream.write_text(json.dumps(graph_to_dict(fig1_source("a\u2028b")), ensure_ascii=False)
                      + "\n", encoding="utf-8")
    out = tmp_path / "report"
    assert main(["corpus", str(stream), str(stream), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "TSV column 'id' cannot hold" in err and "use --format json-lines" in err
    assert not out.exists()
    assert main(["corpus", str(stream), str(stream), "--format", "json-lines",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8").split("\n")[0])["id"] == "a\u2028b"


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


@pytest.mark.parametrize("flags, rows", [
    ([], ["A+D\tA,D\t0.0000\t1.0000", "Scene\tH\t0.0000\t1.0000",
          "A\tA\t0.0000\t1.0000", "H\tH\t0.0000\t1.0000",
          "L\tL\t1.0000\t0.5000", "P\tP\t0.0000\t1.0000"]),
    (["--no-remote"], ["A+D\tA,D\t0.0000\t1.0000", "Scene\tH\t0.0000\t1.0000",
                       "A\tA\t0.0000\t1.0000", "H\tH\t0.0000\t1.0000",
                       "P\tP\t0.0000\t1.0000"]),
])
def test_distsim_remote_only_label_row(flags, rows, tmp_path, capsys):
    """A label that only a remote edge carries gets its own default row,
    and no row when ``--no-remote`` leaves remote edges out."""
    nested = ("r", [("H", ("s", [("A", 0), ("P", 1)]))])
    g_s = graph_from_nested("x", ["a", "b"], nested, [("r", "w0", {"L"}, True)])
    g_c = graph_from_nested("x", ["a", "b"], nested)
    src, cor = corpus_dirs(tmp_path, [("x", g_s, g_c)])
    assert main(["distsim", src, cor, *flags]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == rows


def test_distsim_empty_groups_path_exits_3(tmp_path, capsys):
    """An empty ``--groups`` path is read like any other, so it fails as an
    unreadable file instead of falling back to the default groups."""
    src, cor = corpus_dirs(tmp_path, [("fig1", fig1_source(), fig1_correction())])
    out = tmp_path / "report.tsv"
    assert main(["distsim", src, cor, "--groups", "", "--out", str(out)]) == 3
    assert "cannot read" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value, text", [
    (Fraction(1, 160), "0.0062"),
    (Fraction(7, 160), "0.0438"),
    (Fraction(161, 160), "1.0062"),
    (Fraction(-1, 20000), "-0.0000"),
    (Fraction(-1, 100000), "-0.0000"),
    (Fraction(29, 32), "0.9062"),
    (Fraction(-3, 7), "-0.4286"),
    (Fraction(0), "0.0000"),
    (Fraction(1), "1.0000"),
    (Fraction(5, 2), "2.5000"),
], ids=str)
def test_fmt_rounds_the_exact_value_half_to_even(value, text):
    """Four decimals of the exact value: a tie at the fifth decimal goes to
    the even digit whichever way its nearest float lies, and a negative
    value keeps its sign when it rounds to zero."""
    assert cli._fmt(value) == text


def test_distsim_rounds_a_tie_half_to_even(tmp_path, capsys):
    """160 one-token pairs, one of whose corrections adds an edge labelled
    B: B's distance is 1/160 = 0.00625 exactly, and prints 0.0062."""
    def pair(k, extra):
        return graph_from_nested(f"p{k:03d}", ["a"], ("r", [("A", 0), *extra]))

    src = write_records(tmp_path / "src.jsonl",
                        [graph_to_dict(pair(k, [])) for k in range(160)])
    cor = write_records(tmp_path / "cor.jsonl",
                        [graph_to_dict(pair(k, [("B", "implicit:u")] if k == 0 else []))
                         for k in range(160)])
    assert main(["distsim", src, cor]) == 0
    assert capsys.readouterr().out == (
        "group\tlabels\tdistance\tsimilarity\n"
        "A+D\tA,D\t0.0000\t1.0000\n"
        "Scene\tH\t0.0000\t1.0000\n"
        "A\tA\t0.0000\t1.0000\n"
        "B\tB\t0.0062\t0.9938\n"
    )


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
    # The typo pair is at distance 1 over 4 characters: kept at the
    # threshold 0.25, pruned below it.
    ("score --lowercase --max-norm-dist 0.25", "tsv"):
        "direction\tprecision\trecall\tf_score\tmatched_candidate\tcandidate_count"
        "\tmatched_reference\treference_count\n"
        "s_to_c\t1.0000\t1.0000\t1.0000\t2\t2\t2\t2\n"
        "c_to_s\t1.0000\t1.0000\t1.0000\t2\t2\t2\t2\n"
        "average\t1.0000\n",
    ("score --lowercase --max-norm-dist 0.2", "tsv"):
        "direction\tprecision\trecall\tf_score\tmatched_candidate\tcandidate_count"
        "\tmatched_reference\treference_count\n"
        "s_to_c\t0.5000\t0.5000\t0.5000\t1\t2\t1\t2\n"
        "c_to_s\t0.5000\t0.5000\t0.5000\t1\t2\t1\t2\n"
        "average\t0.5000\n",
    ("maege score --lowercase --max-norm-dist 0.2", "tsv"):
        "type\tdelta_mean\toccurrences\n"
        "Mec\t-0.5000\t1\n",
}


def report_argv(command, fig1_files, edit_corpus, tmp_path):
    """The argv of ``command`` on the fig1 pair (``score``), the corpus of
    pairs a = fig1 and b = fig1 source against itself (``corpus``,
    ``distsim``), or the ``edit_corpus`` chains at seed 7 (``maege score``).
    A ``score`` or ``maege score`` with flags runs on the typo "gve" for
    "gave" instead: flat graphs of "He gave" and "He gve", or the one-edit
    chain that fixes the typo, with the typo version as its source."""
    command, _, flags = command.partition(" --")
    if flags:
        typo = {"sentence_id": "s1", "tokens": ["He", "gve"],
                "edits": [{"start": 1, "end": 2, "replacement": ["gave"], "type": "Mec"}]}
        manifest = _manifest_with_graphs(write_records(tmp_path / "typo.jsonl", [typo]), tmp_path,
                                         lambda doc: doc["chains"][0].update(source_index=0))
        inputs = ([tmp_path / "s1.v1.json", tmp_path / "s1.v0.json"] if command == "score"
                  else [manifest, tmp_path])
        return [*command.split(), *map(str, inputs), *f"--{flags}".split()]
    if command == "score":
        return ["score", *fig1_files]
    if command == "maege score":
        return ["maege", "score", _manifest_with_graphs(edit_corpus, tmp_path), str(tmp_path)]
    src, cor = corpus_dirs(tmp_path, [("a", fig1_source("a"), fig1_correction("a")),
                                      ("b", fig1_source("b"), fig1_source("b"))])
    return [command, src, cor]


@pytest.mark.skipif(not Path("/dev/full").is_char_device(),
                    reason="needs /dev/full, whose every write fails with ENOSPC")
@pytest.mark.parametrize("command", ["score", "corpus", "distsim", "maege gen", "maege score"])
def test_write_failure_exits_2(command, fig1_files, edit_corpus, tmp_path, capsys):
    if command == "maege gen":
        argv = ["maege", "gen", edit_corpus]
    else:
        argv = report_argv(command, fig1_files, edit_corpus, tmp_path)
    capsys.readouterr()
    assert main([*argv, "--out", "/dev/full"]) == 2
    assert capsys.readouterr().err == "error: cannot write /dev/full: No space left on device\n"


@pytest.mark.parametrize("command, fmt", sorted(GOLDEN))
def test_report_bytes(command, fmt, fig1_files, edit_corpus, tmp_path, capsys):
    argv = report_argv(command, fig1_files, edit_corpus, tmp_path)
    capsys.readouterr()
    assert main([*argv, "--format", fmt]) == 0
    assert capsys.readouterr().out == GOLDEN[command, fmt]


@pytest.mark.parametrize("command", ["score", "corpus", "distsim", "maege gen", "maege score"])
def test_no_report_depends_on_the_hash_seed(command, fig1_files, edit_corpus, tmp_path):
    """Scoring iterates over sets of strings, whose order follows the string
    hash; each command, run as ``python -m semfaith.cli`` under two
    ``PYTHONHASHSEED`` values, writes the same bytes to stdout (``maege
    gen``, which needs ``--out``, to its manifest)."""
    rng = random.Random(11)
    if command in ("corpus", "distsim"):
        streams = [write_records(tmp_path / f"{side}.jsonl",
                                 [graph_to_dict(random_dag(rng, f"p{k}", random_tokens(rng)))
                                  for k in range(6)])
                   for side in ("src", "cor")]
        argv = [command, *streams] + (["--jobs", "2"] if command == "corpus" else [])
    elif command == "maege score":
        manifest = tmp_path / "m.json"
        assert main(["maege", "gen", edit_corpus, "--seed", "7", "--out", str(manifest)]) == 0
        for v in json.loads(manifest.read_text())["versions"]:
            write_graph(tmp_path / f"{v['version_id']}.json",
                        random_dag(rng, v["version_id"], v["tokens"]))
        argv = ["maege", "score", str(manifest), str(tmp_path)]
    else:
        argv = ["score", *fig1_files] if command == "score" else ["maege", "gen", edit_corpus]
    outs = []
    for hash_seed in ("0", "1"):
        manifest = tmp_path / f"manifest-{hash_seed}.json"
        extra = ["--out", str(manifest)] if command == "maege gen" else []
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), PYTHONHASHSEED=hash_seed)
        run = subprocess.run([sys.executable, "-m", "semfaith.cli", *argv, *extra], env=env,
                             capture_output=True, check=True)
        outs.append(manifest.read_bytes() if extra else run.stdout)
    assert outs[0] == outs[1] != b""


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
    "graph_from_dict", "graph_to_dict", "load_graph", "load_manifest", "match_edges",
    "parse_graph", "read_corpus", "read_edit_corpus", "usim", "usim_from_alignment",
    "version_id", "yield_of",
}


def test_package_exports_only_the_pinned_names():
    """Every name ``semfaith`` exports, submodules aside, is called by the
    CLI, the benchmark or the tests; a new export must be added here."""
    import types

    import semfaith

    exported = {name for name in dir(semfaith) if not name.startswith("_")
                and not isinstance(getattr(semfaith, name), types.ModuleType)}
    assert exported == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 41


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


@pytest.mark.parametrize("value", ["0", "-3", "x"])
def test_corpus_rejects_jobs_below_one(fig1_files, value, capsys):
    src, cor = fig1_files
    with pytest.raises(SystemExit) as exc:
        main(["corpus", src, cor, "--jobs", value])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-5", "nan", "abc"])
def test_rejects_negative_or_nan_max_norm_dist(fig1_files, value, capsys):
    src, cor = fig1_files
    with pytest.raises(SystemExit) as exc:
        main(["score", src, cor, "--max-norm-dist", value])
    assert exc.value.code == 2
    assert "--max-norm-dist" in capsys.readouterr().err
    assert main(["score", src, cor, "--max-norm-dist", "1.5"]) == 0


def graph_doc(**fields):
    """A one-token graph document with ``fields`` replaced, or removed where
    the value is None."""
    doc = {"id": "g", "tokens": ["a"], "nodes": [{"id": "r"}, {"id": "x", "anchor": 0}],
           "edges": [{"parent": "r", "child": "x", "labels": ["A"]}], "root": "r"}
    doc.update(fields)
    return {key: value for key, value in doc.items() if value is not None}


@pytest.mark.parametrize("doc, message", [
    ([], "document must be an object, got list"),
    (graph_doc(id=None), "document: missing field 'id'"),
    (graph_doc(id=1), "document: field 'id' must be str, got int"),
    (graph_doc(tokens=["a", 1]), "graph 'g': tokens[1] must be a string"),
    (graph_doc(nodes=[{"anchor": 0}]), "graph 'g' nodes[0]: missing field 'id'"),
    (graph_doc(nodes=[{"id": "r", "anchor": "0"}]),
     "graph 'g': nodes[0].anchor must be an integer"),
    (graph_doc(edges=["r"]), "graph 'g': edges[0] must be an object"),
    (graph_doc(edges=[{"parent": "r", "child": "x", "labels": [1]}]),
     "graph 'g' edges[0]: labels must be strings"),
    (graph_doc(edges=[{"parent": "r", "child": "x", "labels": ["A"], "remote": 1}]),
     "graph 'g' edges[0]: remote must be a boolean"),
    (graph_doc(root=None), "graph 'g': missing field 'root'"),
], ids=["not an object", "no id", "id not a string", "token not a string", "node without id",
        "anchor not an integer", "edge not an object", "label not a string",
        "remote not a boolean", "no root"])
def test_graph_document_fault_names_its_file_or_line(doc, message, tmp_path, capsys):
    """``score`` names the file of a faulty document, and ``corpus`` the
    ``.jsonl`` line, here line 2 after a sound graph."""
    path = tmp_path / "notobj.json"
    path.write_text(json.dumps(doc))
    sound = write_graph(tmp_path / "sound.json", fig1_source())
    assert main(["score", str(path), sound]) == 3
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    stream = tmp_path / "corpus.jsonl"
    stream.write_text(json.dumps(graph_to_dict(fig1_source())) + "\n" + json.dumps(doc) + "\n")
    assert main(["corpus", str(stream), str(stream)]) == 3
    assert capsys.readouterr().err == f"error: {stream} line 2: {message}\n"


def write_records(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(path)


@pytest.mark.parametrize("char", UNICODE_LINE_BREAKS, ids=ascii)
def test_maege_gen_reads_unicode_line_break_in_strings(char, tmp_path):
    """An edit record whose strings hold the character raw gives the same
    manifest bytes as the record with the character escaped."""
    record = {"sentence_id": f"s{char}1", "tokens": ["He", f"g{char}ve"],
              "edits": [{"start": 1, "end": 2, "replacement": [f"ga{char}ve"],
                         "type": f"M{char}ec"}]}
    manifests = []
    for raw in (True, False):
        edits = tmp_path / f"edits-{raw}.jsonl"
        edits.write_text(json.dumps(record, ensure_ascii=not raw) + "\n", encoding="utf-8")
        assert (char in edits.read_text(encoding="utf-8")) == raw
        out = tmp_path / f"manifest-{raw}.json"
        assert main(["maege", "gen", str(edits), "--out", str(out)]) == 0
        manifests.append(out.read_bytes())
    assert manifests[0] == manifests[1]


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


@pytest.mark.parametrize("command", ["corpus", "distsim", "maege score", "maege score id"])
def test_input_path_too_long_exits_3(command, tmp_path, capsys):
    """A path that the file system rejects, as too long here, exits 3 as
    an unreadable file does and writes no report.  In the last case the
    long name is a version graph's, from a long sentence id that a
    hand-edited manifest holds (``maege gen`` rejects it)."""
    long = tmp_path / ("a" * 300)
    records = [{"sentence_id": "s", "tokens": ["w0", "w1"],
                "edits": [{"start": 0, "end": 1, "replacement": ["x"], "type": "R"}]}]
    manifest = tmp_path / "m.json"
    edits = write_records(tmp_path / "edits.jsonl", records)
    assert main(["maege", "gen", edits, "--out", str(manifest)]) == 0
    if command == "maege score id":
        doc = json.loads(manifest.read_text())
        for v in doc["versions"]:
            v["version_id"] = "s" * 259 + v["version_id"]
        doc["chains"][0]["sentence_id"] = "s" * 260
        doc["chains"][0]["version_ids"] = [v["version_id"] for v in doc["versions"]]
        manifest.write_text(json.dumps(doc))
    argv, path = {
        "corpus": (["corpus", str(long), str(long)], long),
        "distsim": (["distsim", str(long), str(long)], long),
        "maege score": (["maege", "score", str(manifest), str(long)], long / "s.v0.json"),
        "maege score id": (["maege", "score", str(manifest), str(tmp_path)],
                           tmp_path / f"{'s' * 260}.v0.json"),
    }[command]
    out = tmp_path / "report"
    assert main([*argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}: ")
    assert not out.exists()


def test_maege_gen_rejects_duplicate_sentence_ids(tmp_path, capsys):
    record = {"sentence_id": "s1", "tokens": ["a", "b"],
              "edits": [{"start": 0, "end": 1, "replacement": ["c"], "type": "Mec"}]}
    edits = write_records(tmp_path / "edits.jsonl", [record, record])
    assert main(["maege", "gen", edits, "--out", str(tmp_path / "m.json")]) == 3
    assert "duplicate sentence_id 's1'" in capsys.readouterr().err


@pytest.mark.parametrize("sid", ["../x", "a/b", "a\\b", "s\x00x", "", ".", "..", 7])
def test_maege_gen_rejects_path_like_sentence_ids(tmp_path, sid, capsys):
    record = {"sentence_id": sid, "tokens": ["a"], "edits": []}
    edits = write_records(tmp_path / "edits.jsonl", [record])
    assert main(["maege", "gen", edits, "--out", str(tmp_path / "m.json")]) == 3
    assert "sentence_id" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def name_of_bytes(size: int, edits: int, wide: bool) -> str:
    """A sentence id whose last graph file name, ``<id>.v<edits>.json``,
    takes ``size`` bytes in UTF-8; ``wide`` builds it of two-byte letters."""
    room = size - len(f".v{edits}.json".encode("utf-8"))
    return "é" * (room // 2) + "s" * (room % 2) if wide else "s" * room


@pytest.mark.parametrize("wide", [False, True], ids=["ascii", "two-byte"])
@pytest.mark.parametrize("edits", [1, 10])
@pytest.mark.parametrize("size", [255, 256])
def test_maege_gen_rejects_graph_file_names_over_255_bytes(tmp_path, size, edits, wide, capsys):
    """The longest graph file name of a record is that of its last version,
    ``<id>.v<K>.json`` for K edits.  At 255 bytes it is written and read
    back; at 256 ``maege gen`` exits 3 naming the id and writes no manifest."""
    sid = name_of_bytes(size, edits, wide)
    record = {"sentence_id": sid, "tokens": [f"w{i}" for i in range(edits)],
              "edits": [{"start": i, "end": i + 1, "replacement": ["x"], "type": "R"}
                        for i in range(edits)]}
    manifest = tmp_path / "m.json"
    code = main(["maege", "gen", write_records(tmp_path / "edits.jsonl", [record]),
                 "--out", str(manifest)])
    if size > 255:
        assert code == 3
        assert not manifest.exists()
        err = capsys.readouterr().err
        assert f"line 1: sentence_id {sid!r} is too long" in err
        assert f".v{edits}.json takes 256 bytes, over 255" in err
        return
    assert code == 0
    graphs = tmp_path / "graphs"
    graphs.mkdir()
    write_version_graphs(json.loads(manifest.read_text(encoding="utf-8")), graphs)
    assert max(len(p.name.encode("utf-8")) for p in graphs.iterdir()) == 255
    assert main(["maege", "score", str(manifest), str(graphs)]) == 0


@pytest.mark.parametrize("field, texts, where", [
    ("tokens", ["a", ""], "tokens[1]"),
    ("replacement", ["c", ""], "edits[0].replacement[1]"),
    ("replacement", [""], "edits[0].replacement[0]"),
])
def test_maege_gen_rejects_empty_token_strings(tmp_path, field, texts, where, capsys):
    """No graph holds an empty token, so no version may have one.  The bad
    record is on line 2, after a valid one."""
    edit = {"start": 0, "end": 1, "replacement": ["c"], "type": "Mec"}
    record = {"sentence_id": "s2", "tokens": ["a", "b"], "edits": [edit]}
    (edit if field == "replacement" else record)[field] = texts
    valid = {"sentence_id": "s1", "tokens": ["a"], "edits": []}
    edits = write_records(tmp_path / "edits.jsonl", [valid, record])
    manifest = tmp_path / "m.json"
    assert main(["maege", "gen", edits, "--out", str(manifest)]) == 3
    assert capsys.readouterr().err.endswith(f"line 2: {where} is an empty string\n")
    assert not manifest.exists()


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


def test_maege_score_rejects_sentence_id_with_nul(edit_corpus, tmp_path, capsys):
    """No file name holds U+0000, so the manifest is refused, before any
    graph is looked for."""
    manifest = tmp_path / "m.json"
    main(["maege", "gen", edit_corpus, "--seed", "7", "--out", str(manifest)])
    doc = json.loads(manifest.read_text())
    doc["chains"][0]["sentence_id"] = "s\x00x"
    doc["chains"][0]["version_ids"] = [
        vid.replace("s1", "s\x00x", 1) for vid in doc["chains"][0]["version_ids"]]
    for v in doc["versions"]:
        v["version_id"] = v["version_id"].replace("s1", "s\x00x", 1)
    manifest.write_text(json.dumps(doc))
    assert main(["maege", "score", str(manifest), str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        "error: bad manifest: sentence_id 's\\x00x' is not a plain file-name part\n")


@pytest.mark.parametrize("field", ["tokens", "replacement"])
def test_maege_gen_rejects_string_token_lists(tmp_path, field, capsys):
    edit = {"start": 0, "end": 1, "replacement": ["c"], "type": "Mec"}
    record = {"sentence_id": "s1", "tokens": ["a", "b"], "edits": [edit]}
    (edit if field == "replacement" else record)[field] = "abc"
    edits = write_records(tmp_path / "edits.jsonl", [record])
    assert main(["maege", "gen", edits, "--out", str(tmp_path / "m.json")]) == 3
    assert capsys.readouterr().err == (
        f"error: {edits} line 1: bad record: {field} must be a list of strings\n")


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
    where = "version 's1.v0'" if field == "tokens" else "chain 's1'"
    assert capsys.readouterr().err == (
        f"error: bad manifest: {where}: {field} must be a list of strings\n")


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


def mistyped_values(edit, field):
    """How the error message of a mistyped ``field`` shows ``edit``'s values."""
    return repr(edit["type"]) if field == "type" else f"{edit['start']!r} and {edit['end']!r}"


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
    assert capsys.readouterr().err == (
        f"error: {edits} line 1: bad record: edit {message}, "
        f"not {mistyped_values(edit, field)}\n")


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
    edit = json.loads(Path(manifest).read_text())["chains"][0]["edits"][0]
    assert main(["maege", "score", manifest, str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        f"error: bad manifest: chain 's1': edit {message}, not {mistyped_values(edit, field)}\n")


# Explicit ids keep the case names short.
@pytest.mark.parametrize(
    "key, value, message",
    [pytest.param("order", [5], "order [5] is not a permutation of the edit indices",
                  id="order-value0-not a permutation"),
     pytest.param("order", [0, 0], "order [0, 0] is not a permutation of the edit indices",
                  id="order-value1-not a permutation"),
     pytest.param("order", [False, True],
                  "order [False, True] is not a permutation of the edit indices",
                  id="order-value2-not a permutation"),
     pytest.param("source_index", 9, "source_index 9 is not a version index",
                  id="source_index-9-not a version index"),
     pytest.param("source_index", True, "source_index True is not a version index",
                  id="source_index-True-not a version index"),
     pytest.param("version_ids", [], "versions do not replay from the edits in order",
                  id="version_ids-value5-do not replay"),
     pytest.param("tokens", "She", "versions do not replay from the edits in order",
                  id="tokens-She-do not replay")],
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
    assert capsys.readouterr().err == f"error: bad manifest: chain 's1': {message}\n"


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


@pytest.mark.parametrize("blank, where", [
    ("apple", "version 's1.v0' tokens[3]"),
    ("gave", "edits[0].replacement[0]"),
])
def test_maege_score_rejects_empty_token_strings(edit_corpus, tmp_path, blank, where, capsys):
    """A hand-edited manifest that blanks a token in every version holding
    it still replays, but no graph holds an empty token: ``maege score``
    exits 3 naming the chain and the index, before it reads any graph."""
    manifest = tmp_path / "m.json"
    assert main(["maege", "gen", edit_corpus, "--seed", "7", "--out", str(manifest)]) == 0
    doc = json.loads(manifest.read_text())
    for texts in ([v["tokens"] for v in doc["versions"]]
                  + [e["replacement"] for e in doc["chains"][0]["edits"]]):
        texts[:] = ["" if t == blank else t for t in texts]
    manifest.write_text(json.dumps(doc))
    graphs = tmp_path / "graphs"
    graphs.mkdir()
    assert main(["maege", "score", str(manifest), str(graphs)]) == 3
    assert capsys.readouterr().err == (
        f"error: bad manifest: chain 's1': {where} is an empty string\n")


def test_maege_score_rejects_graph_with_other_tokens(edit_corpus, tmp_path, capsys):
    manifest = _manifest_with_graphs(edit_corpus, tmp_path)
    assert main(["maege", "score", manifest, str(tmp_path)]) == 0
    capsys.readouterr()
    path = tmp_path / "s1.v1.json"
    doc = json.loads(path.read_text())
    doc["tokens"][0] = "Zebra"
    path.write_text(json.dumps(doc))
    assert main(["maege", "score", manifest, str(tmp_path)]) == 4
    assert capsys.readouterr().err == (
        f"error: graph for version 's1.v1' at {path} does not have the manifest "
        "tokens of that version\n")


def test_maege_score_validation_error_names_the_graph_file(edit_corpus, tmp_path, capsys):
    manifest = _manifest_with_graphs(edit_corpus, tmp_path)
    path = tmp_path / "s1.v1.json"
    doc = json.loads(path.read_text())
    doc["edges"].append({"parent": doc["root"], "child": "ghost", "labels": ["A"]})
    path.write_text(json.dumps(doc))
    assert main(["maege", "score", manifest, str(tmp_path)]) == 4
    assert capsys.readouterr().err == (
        f"error: {path}: graph 's1.v1': edge {doc['root']!r}->'ghost' references "
        "undeclared node 'ghost'\n")


def _edit(start, end):
    return {"start": start, "end": end, "replacement": ["x"], "type": "Mec"}


@pytest.mark.parametrize("edits, flags, message", [
    ([_edit(2, 1)], [], "invalid edit span (2, 1)"),
    ([_edit(1, 5)], [], "edit span (1, 5) out of bounds"),
    ([_edit(1, 3), _edit(2, 4)], [], "overlapping edit spans (1,3) and (2,4)"),
    ([_edit(0, 1), _edit(1, 2)], ["--pin-source", "3"], "pinned source index 3 out of range"),
], ids=["invalid", "out of bounds", "overlap", "pin"])
def test_maege_gen_span_and_pin_errors_name_the_line(edits, flags, message, tmp_path, capsys):
    """Line 1 is blank and the record on line 2 is sound, also under the
    pin; the faulty record is on line 3, and the message names that line."""
    path = tmp_path / "edits.jsonl"
    sound = {"sentence_id": "s1", "tokens": list("abcd"),
             "edits": [_edit(0, 1), _edit(1, 2), _edit(2, 3)]}
    faulty = {"sentence_id": "s2", "tokens": list("abcd"), "edits": edits}
    path.write_text("\n" + "".join(json.dumps(r) + "\n" for r in (sound, faulty)))
    out = tmp_path / "m.json"
    assert main(["maege", "gen", str(path), *flags, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {path} line 3: {message}\n"
    assert not out.exists()


def _drop_version(doc, vid):
    doc["versions"] = [v for v in doc["versions"] if v["version_id"] != vid]


@pytest.mark.parametrize("change, message", [
    (lambda doc: doc["chains"][1]["edits"][0].update(start=2, end=1),
     "chain 's2': invalid edit span (2, 1)"),
    (lambda doc: doc["chains"][0]["edits"][1].update(start=1, end=3),
     "chain 's1': overlapping edit spans (1,2) and (1,3)"),
    (lambda doc: doc["chains"][1].pop("order"), "chain 's2': missing field 'order'"),
    (lambda doc: _drop_version(doc, "s2.v1"), "chain 's2': no version has version_id 's2.v1'"),
    (lambda doc: doc["chains"][1]["edits"][0].update(start="0"),
     "chain 's2': edit start and end must be integers, not '0' and 1"),
    (lambda doc: doc["versions"][-1].update(tokens=["b", 1]),
     "version 's2.v1': tokens must be a list of strings"),
    (lambda doc: doc["versions"].insert(0, "s1.v0"), "versions[0] must be an object, got str"),
    (lambda doc: doc["versions"][0].update(version_id=5),
     "versions[0]: field 'version_id' must be a string, got int"),
    (lambda doc: doc["versions"][0].pop("tokens"), "version 's1.v0': missing field 'tokens'"),
    (lambda doc: doc.pop("chains"), "missing field 'chains'"),
    (lambda doc: doc["chains"][0].pop("sentence_id"), "chains[0]: missing field 'sentence_id'"),
    (lambda doc: doc["chains"][0].update(version_ids=5),
     "chain 's1': field 'version_ids' must be a list, got int"),
    (lambda doc: doc["chains"][0].update(edits={}),
     "chain 's1': field 'edits' must be a list, got dict"),
    (lambda doc: doc["chains"][1]["edits"][0].pop("replacement"),
     "chain 's2': edits[0]: missing field 'replacement'"),
    (lambda doc: doc["chains"][1].update(seed="abc"), "chain 's2': seed 'abc' is not an integer"),
    (lambda doc: doc["chains"][1].update(seed=True), "chain 's2': seed True is not an integer"),
    (lambda doc: doc["chains"][1].pop("seed"), "chain 's2': missing field 'seed'"),
], ids=["invalid", "overlap", "order", "version", "start", "tokens", "version object",
        "version id", "version tokens", "chains", "sentence id", "version ids", "edits",
        "replacement", "seed", "bool seed", "no seed"])
def test_maege_score_manifest_errors_name_the_chain_or_version(change, message, edit_corpus,
                                                               tmp_path, capsys):
    manifest = tmp_path / "m.json"
    assert main(["maege", "gen", edit_corpus, "--seed", "7", "--out", str(manifest)]) == 0
    doc = json.loads(manifest.read_text())
    change(doc)
    manifest.write_text(json.dumps(doc))
    graphs = tmp_path / "graphs"
    graphs.mkdir()
    assert main(["maege", "score", str(manifest), str(graphs)]) == 3
    assert capsys.readouterr().err == f"error: bad manifest: {message}\n"


def test_maege_score_rejects_manifest_that_is_not_an_object(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text("[]")
    assert main(["maege", "score", str(manifest), str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        "error: bad manifest: document must be an object, got list\n")


@pytest.mark.parametrize("record, message", [
    (["s1"], "document must be an object, got list"),
    ({"sentence_id": "s1", "edits": []}, "missing field 'tokens'"),
    ({"sentence_id": "s1", "tokens": ["a"], "edits": 3}, "field 'edits' must be a list, got int"),
    ({"sentence_id": "s1", "tokens": ["a"], "edits": [[0, 1, ["b"], "Mec"]]},
     "edits[0] must be an object, got list"),
    ({"sentence_id": "s1", "tokens": ["a"], "edits": [{"start": 0, "end": 1, "type": "Mec"}]},
     "edits[0]: missing field 'replacement'"),
], ids=["record", "tokens", "edits", "edit", "replacement"])
def test_maege_gen_names_the_record_and_field_of_a_malformed_record(record, message, tmp_path,
                                                                    capsys):
    edits = write_records(tmp_path / "edits.jsonl", [record])
    assert main(["maege", "gen", edits, "--out", str(tmp_path / "m.json")]) == 3
    assert capsys.readouterr().err == f"error: {edits} line 1: bad record: {message}\n"


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


@pytest.mark.parametrize("seed", range(4))
def test_maege_score_equals_compute_deltas(tmp_path, monkeypatch, capsys, seed):
    """The ``maege score`` report is the ``compute_deltas`` report on the
    same manifest and graphs, rendered, with and without the alignment
    flags and at one and two CPUs.  The chains are random edits of random
    tokens, some capitalised, and each version has a random DAG."""
    rng = random.Random(seed)
    records = []
    for i in range(rng.randint(2, 6)):
        tokens = [w.title() if rng.random() < 0.2 else w for w in random_tokens(rng)]
        edits = [{"start": e.start, "end": e.end, "replacement": list(e.replacement),
                  "type": e.edit_type} for e in random_edits(rng, len(tokens))]
        records.append({"sentence_id": f"s{i}", "tokens": tokens, "edits": edits})
    manifest = tmp_path / "m.json"
    edits = write_records(tmp_path / "edits.jsonl", records)
    assert main(["maege", "gen", edits, "--seed", str(seed), "--out", str(manifest)]) == 0
    graphs = {v["version_id"]: random_dag(rng, v["version_id"], v["tokens"])
              for v in json.loads(manifest.read_text())["versions"]}
    for vid, graph in graphs.items():
        write_graph(tmp_path / f"{vid}.json", graph)
    chains = harness.load_manifest(manifest)
    for flags, kwargs in (([], {}), (["--lowercase", "--max-norm-dist", "0.6"],
                                     {"lowercase": True, "max_norm_dist": 0.6})):
        rows = [["type", "delta_mean", "occurrences"]]
        rows += [[td.edit_type, f"{float(td.delta_mean):.4f}", str(td.occurrences)]
                 for td in harness.compute_deltas(chains, graphs, **kwargs)]
        expected = "".join("\t".join(row) + "\n" for row in rows)
        for cpus in (1, 2):
            argv = ["maege", "score", str(manifest), str(tmp_path), *flags]
            assert maege_score(monkeypatch, argv, cpus) == 0
            assert capsys.readouterr().out == expected, (flags, cpus)


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


def test_usable_cpus_without_affinity_counts_the_cpus(tmp_path, monkeypatch):
    """Where ``os.sched_getaffinity`` is missing, the CPU count stands in
    for the affinity count, and one CPU for an unknown count."""
    monkeypatch.setattr(cli, "_CGROUP", tmp_path)  # no quota file
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert cli._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._usable_cpus() == 1


def _remove_graph(graphs, vid):
    Path(graphs, f"{vid}.json").unlink()


def _retoken_graph(graphs, vid):
    path = Path(graphs, f"{vid}.json")
    doc = json.loads(path.read_text())
    doc["tokens"][0] = "Zebra"
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("damage, failing, code, message", [
    # a scoring failure in c0 (this process's shard) and a missing graph in c1
    ([(_remove_graph, "c1.v2")], {"c0.v1"}, 4, "error: c0.v1 failed to score"),
    # a wrong-token graph in c1 (a child's shard) and a missing graph in c2
    ([(_retoken_graph, "c1.v1"), (_remove_graph, "c2.v0")], set(), 4,
     "graph for version 'c1.v1'"),
    # a missing graph in c1 (a child's shard) and a scoring failure in c2
    ([(_remove_graph, "c1.v2")], {"c2.v0"}, 3, "no graph file for version 'c1.v2'"),
    # scoring failures in c1 (a child's shard) and c2 (this process's shard)
    ([], {"c1.v2", "c2.v0"}, 4, "error: c1.v2 failed to score"),
], ids=["earlier scoring beats later load", "earlier load beats later load",
        "earlier load beats later scoring", "earlier scoring beats later scoring"])
def test_maege_score_failure_precedence_as_sequential(tmp_path, monkeypatch, capsys, damage,
                                                      failing, code, message):
    """With four chains of equal cost, chain i goes to shard i mod shards,
    so with two CPUs c0 and c2 are scored in this process and c1 and c3 in
    a child.  Every CPU count fails as one CPU does: with the first chain in
    manifest order that fails to load or to score."""
    manifest, graphs = maege_chains(tmp_path, 4, pin_source=0)
    for change, vid in damage:
        change(graphs, vid)
    real_usim_batch = harness.usim_batch

    def failing_usim_batch(g_s, corrections, **kwargs):
        for g_c in corrections:
            if g_c.id in failing:
                raise GraphValidationError(f"{g_c.id} failed to score")
        return real_usim_batch(g_s, corrections, **kwargs)

    monkeypatch.setattr(harness, "usim_batch", failing_usim_batch)
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
    real_usim_batch = harness.usim_batch

    def dying_usim_batch(g_s, corrections, **kwargs):
        if os.getpid() != parent:
            os._exit(7)
        return real_usim_batch(g_s, corrections, **kwargs)

    monkeypatch.setattr(harness, "usim_batch", dying_usim_batch)
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


# -- the process entry ---------------------------------------------------------


def cli_env(**env):
    """This process's environment, without ``PYTHONUNBUFFERED`` unless
    ``env`` sets it, and with its import path."""
    environ = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    environ.update(env, PYTHONPATH=os.pathsep.join(sys.path))
    return environ


def cli_process(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **env):
    """``python -m semfaith.cli argv`` run to its end, its standard error
    and standard output captured unless ``stderr`` or ``stdout`` is given.
    The child's environment is ``cli_env(**env)``."""
    return subprocess.run([sys.executable, "-m", "semfaith.cli", *argv], env=cli_env(**env),
                          stdout=stdout, stderr=stderr)


def exit_path_argv(case, fig1_files, tmp_path):
    """The argv of a command that ends on the exit path ``case``, and the
    start of its standard error."""
    src, cor = fig1_files
    if case == "score":
        return ["score", src, cor], ""
    if case == "help":
        return ["--help"], ""
    if case == "bad flag":
        return ["score", src, cor, "--bogus"], "usage: semfaith"
    if case == "out in missing directory":
        return ["score", src, cor, "--out", str(tmp_path / "nodir" / "r.tsv")], "usage: semfaith"
    bad = tmp_path / "bad.json"
    if case == "malformed":
        bad.write_text("{")
        return ["score", str(bad), cor], f"error: {bad}: document: invalid JSON: "
    if case == "validation":
        bad.write_text(json.dumps(ghost_edge_graph("b")))
        return ["score", str(bad), cor], f"error: {bad}: graph 'b': edge 'r'->'ghost'"
    src_dir, cor_dir = corpus_dirs(tmp_path, [("a", fig1_source("a"), None),
                                              ("b", None, fig1_source("b"))])
    return ["corpus", src_dir, cor_dir], "warning: id 'a' present only in source corpus\n"


@pytest.mark.parametrize("case, code", [
    ("score", 0), ("help", 0), ("bad flag", 2), ("out in missing directory", 2),
    ("malformed", 3), ("validation", 4), ("unpaired", 5),
])
def test_process_ends_with_the_code_and_output_of_main(case, code, fig1_files, tmp_path,
                                                       capsys):
    """Run as ``python -m semfaith.cli``, each exit path ends with its exit
    code and exactly the standard output and error of ``main`` in process,
    argparse's exit included."""
    argv, err_start = exit_path_argv(case, fig1_files, tmp_path)
    capsys.readouterr()
    try:
        returned = main(argv)
    except SystemExit as exc:
        returned = exc.code
    out, err = capsys.readouterr()
    run = cli_process(argv)
    assert (run.returncode, run.stdout.decode(), run.stderr.decode()) == (returned, out, err)
    assert returned == code
    assert err.startswith(err_start) and (code == 0) == (err == "")
    assert (code == 0) == (out != "")


@pytest.mark.parametrize("command", ["corpus", "maege score"])
def test_piped_report_equals_out_file(command, tmp_path):
    """``corpus --jobs 2`` and ``maege score`` (one process per usable CPU)
    fork workers, so a worker and the parent both exit; the report read
    through a pipe is the ``--out`` bytes."""
    if command == "corpus":
        argv = ["corpus", *fig1_corpus(tmp_path, 4), "--jobs", "2"]
    else:
        argv = ["maege", "score", *maege_chains(tmp_path, 4)]
    out = tmp_path / "report.tsv"
    assert cli_process([*argv, "--out", str(out)]).returncode == 0
    piped = cli_process(argv)
    assert (piped.returncode, piped.stderr) == (0, b"")
    assert piped.stdout == out.read_bytes() != b""


def broken_stream_process(argv, stream, where, unbuffered):
    """``python -m semfaith.cli argv`` whose ``stream``, ``"stdout"`` or
    ``"stderr"``, takes no text: ``/dev/full``, a pipe whose read end is
    closed, or its descriptor closed at startup, where ``sys.stdout`` or
    ``sys.stderr`` is None.  The other stream is captured."""
    env = {"PYTHONUNBUFFERED": "1"} if unbuffered else {}
    if where == "closed":
        descriptor = 1 if stream == "stdout" else 2
        return subprocess.run(["sh", "-c", f'exec "$0" "$@" {descriptor}>&-', sys.executable,
                               "-m", "semfaith.cli", *argv],
                              env=cli_env(**env), capture_output=True)
    if where == "/dev/full":
        with open("/dev/full", "wb") as full:
            return cli_process(argv, **{stream: full}, **env)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return cli_process(argv, **{stream: write_end}, **env)
    finally:
        os.close(write_end)


# A standard error or output that takes no text, as ``broken_stream_process``
# names it.
BROKEN_STREAMS = [
    pytest.param("/dev/full", marks=pytest.mark.skipif(
        not Path("/dev/full").is_char_device(),
        reason="needs /dev/full, whose every write fails with ENOSPC")),
    "reader gone",
    "closed",
]


# The reason in the error line of a write to each stream of BROKEN_STREAMS.
BROKEN_STREAM_ERRORS = {
    "/dev/full": "No space left on device",
    "reader gone": "Broken pipe",
    "closed": "Bad file descriptor",
}


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("where", BROKEN_STREAMS)
def test_report_to_broken_stdout_exits_2(where, unbuffered, fig1_files):
    """A report that cannot be written to standard output is reported in
    one error line and exits 2, buffered or not, as for an ``--out`` that
    cannot be written."""
    run = broken_stream_process(["score", *fig1_files], "stdout", where, unbuffered)
    assert (run.returncode, run.stderr) == (
        2, f"error: cannot write standard output: {BROKEN_STREAM_ERRORS[where]}\n".encode())


def test_out_with_stdout_closed_at_startup(fig1_files, tmp_path):
    """Started with descriptor 1 closed, a run that writes its report to
    ``--out`` still exits 0."""
    out = tmp_path / "report.tsv"
    run = broken_stream_process(["score", *fig1_files, "--out", str(out)], "stdout", "closed",
                                False)
    assert (run.returncode, run.stderr) == (0, b"")
    assert out.read_text() == GOLDEN["score", "tsv"]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("where", BROKEN_STREAMS)
def test_error_line_lost_keeps_the_exit_code(where, unbuffered, fig1_files, tmp_path):
    """A missing input exits 3 whether or not its error line can be
    written, and the line never reaches standard output."""
    run = broken_stream_process(["score", str(tmp_path / "missing.json"), fig1_files[1]],
                                "stderr", where, unbuffered)
    assert (run.returncode, run.stdout) == (3, b"")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("where", BROKEN_STREAMS)
def test_usage_lost_keeps_the_exit_code(where, unbuffered, fig1_files):
    """A bad flag exits 2 whether or not argparse's usage and error lines
    can be written, and they never reach standard output."""
    run = broken_stream_process(["score", *fig1_files, "--bogus"], "stderr", where, unbuffered)
    assert (run.returncode, run.stdout) == (2, b"")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("where", BROKEN_STREAMS)
def test_help_write_failure_exits_2(where, unbuffered):
    """Help that cannot be written to standard output is reported as a
    report would be: one error line and exit 2, buffered or not."""
    run = broken_stream_process(["--help"], "stdout", where, unbuffered)
    assert (run.returncode, run.stderr) == (
        2, f"error: cannot write standard output: {BROKEN_STREAM_ERRORS[where]}\n".encode())


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("where", BROKEN_STREAMS)
def test_warning_lost_keeps_the_report(where, unbuffered, tmp_path):
    """A corpus with an id that only the source has warns and still writes
    its report.  When the warning cannot be written, the exit code and
    the report bytes are those of a run with standard error to a file, so
    no warning line reaches standard output."""
    argv = ["corpus", *corpus_dirs(tmp_path, [("a", fig1_source("a"), fig1_correction("a")),
                                              ("b", fig1_source("b"), None)])]
    with open(tmp_path / "err.txt", "wb") as err:
        expected = cli_process(argv, stderr=err)
    assert (tmp_path / "err.txt").read_bytes() == (
        b"warning: id 'b' present only in source corpus\n")
    assert expected.returncode == 0
    assert expected.stdout.startswith(b"id\t") and b"\na\t" in expected.stdout
    run = broken_stream_process(argv, "stderr", where, unbuffered)
    assert (run.returncode, run.stdout) == (0, expected.stdout)


def test_cli_import_registers_no_exit_handler():
    """The process entry ends with ``os._exit``, which runs no ``atexit``
    handler, so importing the CLI must register none."""
    probe = ("import atexit; before = atexit._ncallbacks(); import semfaith.cli; "
             "print(atexit._ncallbacks() - before)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "0"
