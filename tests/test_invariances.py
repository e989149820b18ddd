"""Invariances of the score that hold for every input and flag set, checked
over random DAG pairs.  These are properties a user of the metric relies
on, not comparisons with a slower copy of the code."""
from __future__ import annotations

import itertools
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_build import random_dag, random_tokens
from semfaith import SemanticGraph, align_leaves, graph_to_dict, parse_graph, usim
from semfaith.cli import main

seeds = st.integers(min_value=0, max_value=2**32 - 1)

# Every combination of the scoring flags: lowercase, include_remote,
# strict_parent and max_norm_dist.
FLAG_SETS = [
    dict(zip(("lowercase", "include_remote", "strict_parent", "max_norm_dist"), flags))
    for flags in itertools.product((False, True), (True, False), (False, True), (None, 0.5))
]


def random_pair(rng: random.Random, sid="s", cid="c") -> tuple[SemanticGraph, SemanticGraph]:
    """Two random DAGs whose tokens are sometimes capitalised, so that
    ``lowercase`` matters."""

    def tokens() -> list[str]:
        return [t.title() if rng.random() < 0.2 else t for t in random_tokens(rng)]

    return random_dag(rng, sid, tokens()), random_dag(rng, cid, tokens())


def shuffled(rng: random.Random, g: SemanticGraph) -> SemanticGraph:
    """``g`` read back from a document whose node and edge records, and the
    keys inside every record and the document, are in a random order."""

    def reorder(record: dict) -> dict:
        keys = list(record)
        rng.shuffle(keys)
        return {key: record[key] for key in keys}

    doc = graph_to_dict(g)
    for field in ("nodes", "edges"):
        rng.shuffle(doc[field])
        doc[field] = [reorder(record) for record in doc[field]]
    return parse_graph(json.dumps(reorder(doc)))


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_record_and_key_order_change_no_report(seed):
    rng = random.Random(seed)
    g_s, g_c = random_pair(rng)
    s2, c2 = shuffled(rng, g_s), shuffled(rng, g_c)
    for flags in FLAG_SETS:
        assert usim(s2, c2, **flags) == usim(g_s, g_c, **flags), flags


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_swap_law(seed):
    """Swapping the two graphs swaps the directions whenever it transposes
    the leaf alignment: the averages are equal, and each directional triple
    becomes the other's with precision and recall (and their counts)
    exchanged.  A swap need not transpose the leaf alignment, since among
    equal-cost alignments the tie-break is not symmetric."""
    rng = random.Random(seed)
    g_s, g_c = random_pair(rng)
    for flags in FLAG_SETS:
        leaf_flags = {"lowercase": flags["lowercase"], "max_norm_dist": flags["max_norm_dist"]}
        forward = align_leaves(g_s.tokens, g_c.tokens, **leaf_flags)
        backward = align_leaves(g_c.tokens, g_s.tokens, **leaf_flags)
        if {(j, i) for i, j in backward.pairs} != forward.pairs:
            continue
        rep, swapped = usim(g_s, g_c, **flags), usim(g_c, g_s, **flags)
        assert swapped.average == rep.average, flags
        for a, b in ((rep.s_to_c, swapped.c_to_s), (rep.c_to_s, swapped.s_to_c)):
            p, r, f, mc, cc, mr, rc = a
            assert b == (r, p, f, mr, rc, mc, cc), flags


FLAG_ARGS = {
    "lowercase": ["--lowercase"],
    "no_remote": ["--no-remote"],
    "strict_parent": ["--strict-parent"],
    "max_norm_dist": ["--max-norm-dist", "0.5"],
}


@given(seeds, st.lists(st.sampled_from(sorted(FLAG_ARGS)), unique=True),
       st.sampled_from(["tsv", "json-lines"]))
@settings(max_examples=15, deadline=None)
def test_corpus_jobs_give_the_same_bytes(tmp_path_factory, seed, flags, fmt):
    rng = random.Random(seed)
    work = tmp_path_factory.mktemp("corpus")
    pairs = [random_pair(rng, f"p{k}", f"p{k}") for k in range(rng.randint(2, 5))]
    paths = []
    for side, graphs in (("source", [s for s, _ in pairs]), ("correction", [c for _, c in pairs])):
        path = work / f"{side}.jsonl"
        path.write_text("".join(json.dumps(graph_to_dict(g)) + "\n" for g in graphs),
                        encoding="utf-8")
        paths.append(str(path))
    argv = ["corpus", *paths, "--format", fmt, *(a for f in flags for a in FLAG_ARGS[f])]
    reports = []
    for jobs in ("1", "2"):
        out = work / f"jobs{jobs}"
        assert main([*argv, "--jobs", jobs, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
