"""Invariances of the score that hold for every input and flag set, checked
over random DAG pairs.  These are properties a user of the metric relies
on, not comparisons with a slower copy of the code."""
from __future__ import annotations

import copy
import itertools
import json
import math
import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_build import WORDS, random_dag, random_tokens
from semfaith import (
    S_TO_C,
    EditOperation,
    SemanticGraph,
    VersionChain,
    align_leaves,
    build_chain,
    dag_fscore,
    distsim,
    edge_instances,
    extend_alignment,
    graph_to_dict,
    match_edges,
    parse_graph,
    usim,
    usim_from_alignment,
    version_id,
)
from semfaith.align import align_leaves_batch
from semfaith.cli import main
from semfaith.harness import chain_scores

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
def test_graph_id_changes_no_report(seed):
    """Renaming either graph, to a new id or to the other graph's, changes
    no report."""
    rng = random.Random(seed)
    g_s, g_c = random_pair(rng)
    s2, c2 = (g._replace(id=rng.choice(["s", "c", "x", "é\t1"])) for g in (g_s, g_c))
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


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_scoring_writes_nothing_into_a_graph(seed):
    """A graph is a value: every store it carries is built at construction,
    and no scoring call, under any flag set, changes one."""
    rng = random.Random(seed)
    g_s, g_c = random_pair(rng)
    before = [copy.deepcopy(vars(g)) for g in (g_s, g_c)]
    for flags in FLAG_SETS:
        edge_flags = {"include_remote": flags["include_remote"],
                      "strict_parent": flags["strict_parent"]}
        usim(g_s, g_c, **flags)
        for g in (g_s, g_c):
            dag_fscore(g, g, flags["lowercase"], flags["include_remote"])
        distsim([(g_s, g_c)], include_remote=flags["include_remote"])
        a_l = align_leaves(g_s.tokens, g_c.tokens, flags["lowercase"], flags["max_norm_dist"])
        mapping = extend_alignment(g_s, g_c, a_l, S_TO_C).mapping
        match_edges(g_s, g_c, mapping, **edge_flags)
        usim_from_alignment(g_s, g_c, mapping, **edge_flags)
        assert [vars(g) for g in (g_s, g_c)] == before, flags


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_edge_instance_views_agree(seed):
    """Without remote edges, the instances are those with them less the
    remote ones; both are sorted by (parent, child, label), and there is one
    instance per label of each edge."""
    g = random_pair(random.Random(seed))[0]
    everything, primary = edge_instances(g, True), edge_instances(g, False)
    assert primary == tuple(inst for inst in everything if not inst.remote)
    for view in (everything, primary):
        assert [inst[:3] for inst in view] == sorted(inst[:3] for inst in view)
    assert len(everything) == sum(len(e.labels) for e in g.edges)


def recased(rng: random.Random, tokens: list[str]) -> list[str]:
    return [rng.choice((t, t.upper(), t.title())) for t in tokens]


@given(seeds)
@settings(max_examples=200, deadline=None)
def test_equal_token_lists_align_on_the_diagonal(seed):
    """Token lists equal after lowercasing align each token to its own
    position under every threshold that allows a distance of 0; a negative
    threshold forbids every pair."""
    rng = random.Random(seed)
    tokens = recased(rng, random_tokens(rng))
    diagonal = {(i, i) for i in range(len(tokens))}
    for lowercase, other in ((False, list(tokens)), (True, recased(rng, tokens))):
        for t in (None, 0.0, -0.0, 0.3, 1.0, math.inf, math.nan):
            assert align_leaves(tokens, other, lowercase, t).pairs == diagonal, (lowercase, t)
        assert align_leaves(tokens, other, lowercase, -0.5).pairs == frozenset()


def edited(rng: random.Random, tokens: list[str]) -> list[str]:
    """``tokens`` after a few token insertions, deletions and replacements,
    and case changes, as a correction of them would be."""
    out = recased(rng, tokens)
    for _ in range(rng.randint(0, 3)):
        k = rng.randrange(len(out) + 1)
        word = rng.choice(WORDS)
        if rng.random() < 0.4:
            out.insert(k, word)
        elif k < len(out):
            out[k:k + 1] = [] if rng.random() < 0.5 else [word]
    return out


@given(seeds)
@settings(max_examples=200, deadline=None)
def test_threshold_of_one_or_more_prunes_nothing(seed):
    """No distance exceeds the longer token's length, so any threshold of 1
    or more (and NaN, which no quotient exceeds) gives the alignment of no
    threshold: the cells written under a threshold are all of them."""
    rng = random.Random(seed)
    src = recased(rng, random_tokens(rng))
    dst = edited(rng, src) if rng.random() < 0.7 else recased(rng, random_tokens(rng))
    for lowercase in (False, True):
        expected = align_leaves(src, dst, lowercase)
        for t in (1.0, 1.5, 7, math.inf, math.nan):
            assert align_leaves(src, dst, lowercase, t) == expected, (lowercase, t)


def random_chain(rng: random.Random) -> tuple[VersionChain, list[SemanticGraph]]:
    """A maege chain of up to three edits of random tokens, some capitalised
    (insertions, deletions, replacements and case-only changes, so that a
    version may equal the source after lowercasing), and a random DAG for
    each version."""
    tokens = [t.title() if rng.random() < 0.2 else t for t in random_tokens(rng)]
    edits = []
    for pos in sorted(rng.sample(range(len(tokens) + 1), min(3, len(tokens) + 1))):
        word = rng.choice(WORDS)
        if pos == len(tokens) or rng.random() < 0.3:
            edits.append(EditOperation(pos, pos, (word,), "Ins"))
        elif rng.random() < 0.3:
            edits.append(EditOperation(pos, pos + 1, (), "Del"))
        else:
            replacement = rng.choice((word, tokens[pos].upper(), tokens[pos].title()))
            edits.append(EditOperation(pos, pos + 1, (replacement,), "Rep"))
    chain = build_chain("s", tokens, edits, rng.randrange(1000))
    graphs = [random_dag(rng, version_id("s", k), list(v)) for k, v in enumerate(chain.versions)]
    return chain, graphs


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_chain_scores_equal_usim_per_version(seed):
    """Scoring a chain in one batch gives each version the score of its own
    ``usim`` call against the source."""
    chain, graphs = random_chain(random.Random(seed))
    source = graphs[chain.source_index]
    for flags in FLAG_SETS:
        expected = [usim(source, g, **flags).average for g in graphs]
        assert chain_scores(chain, graphs, **flags) == expected, flags


def solved(aligner, *args):
    """``aligner(*args)``, and the cost matrices it hands the solver."""
    import semfaith.align

    costs = []
    real = semfaith.align._assign

    def recording(cost):
        costs.append(cost)
        return real(cost)

    with mock.patch.object(semfaith.align, "_assign", recording):
        return aligner(*args), costs


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_batch_alignment_equals_alignment_per_correction(seed):
    """Aligning several corrections against one source in one batch gives
    each the alignment of its own ``align_leaves`` call: the distances of
    the other corrections' strings change neither its forbidden cost nor
    its allowed cells.  The corrections repeat strings, change case and
    include the source itself; the thresholds include every exact k / L of
    the token lengths L, 0, NaN, inf and a negative value.  The solver is
    handed the same cost matrices too: the alignment does not depend on the
    value of the forbidden cost, as long as it is above every total of
    allowed cells (``test_alignment_does_not_depend_on_the_forbidden_cost``
    in ``test_oracles.py``), but the composite costs do."""
    rng = random.Random(seed)
    source = recased(rng, random_tokens(rng))
    corrections = [edited(rng, source) for _ in range(rng.randint(1, 4))]
    corrections += [recased(rng, source), list(source), recased(rng, random_tokens(rng))]
    rng.shuffle(corrections)
    lengths = {len(t) for t in itertools.chain(source, *corrections)}
    thresholds = [None, 0.0, -0.25, math.nan, math.inf]
    thresholds += sorted({k / L for L in lengths for k in range(L + 1)})
    for lowercase in (False, True):
        for t in thresholds:
            singles = [solved(align_leaves, source, c, lowercase, t) for c in corrections]
            expected = ([a for a, _ in singles], [cost for _, costs in singles for cost in costs])
            assert solved(align_leaves_batch, source, corrections, lowercase, t) == expected, (
                lowercase, t)


FLAG_ARGS = {
    "lowercase": ["--lowercase"],
    "no_remote": ["--no-remote"],
    "strict_parent": ["--strict-parent"],
    "max_norm_dist": ["--max-norm-dist", "0.5"],
}


def write_jsonl(path, graphs) -> str:
    path.write_text("".join(json.dumps(graph_to_dict(g)) + "\n" for g in graphs),
                    encoding="utf-8")
    return str(path)


def flag_argv(flags) -> list[str]:
    return [arg for flag in flags for arg in FLAG_ARGS[flag]]


@given(seeds, st.lists(st.sampled_from(sorted(FLAG_ARGS)), unique=True),
       st.sampled_from(["tsv", "json-lines"]))
@settings(max_examples=15, deadline=None)
def test_corpus_jobs_give_the_same_bytes(tmp_path_factory, seed, flags, fmt):
    rng = random.Random(seed)
    work = tmp_path_factory.mktemp("corpus")
    pairs = [random_pair(rng, f"p{k}", f"p{k}") for k in range(rng.randint(2, 5))]
    paths = [write_jsonl(work / "source.jsonl", [s for s, _ in pairs]),
             write_jsonl(work / "correction.jsonl", [c for _, c in pairs])]
    argv = ["corpus", *paths, "--format", fmt, *flag_argv(flags)]
    reports = []
    for jobs in ("1", "2"):
        out = work / f"jobs{jobs}"
        assert main([*argv, "--jobs", jobs, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


@given(seeds, st.lists(st.sampled_from(sorted(FLAG_ARGS)), unique=True),
       st.sampled_from(["tsv", "json-lines"]))
@settings(max_examples=15, deadline=None)
def test_corpus_file_order_gives_the_same_bytes(tmp_path_factory, seed, flags, fmt):
    """A corpus read from a ``.jsonl`` in id order, from one in a shuffled
    order, or from a directory whose file names are in a shuffled order of
    the ids, gives the same report: pairs are matched and listed by id."""
    rng = random.Random(seed)
    work = tmp_path_factory.mktemp("order")
    pairs = [random_pair(rng, f"p{k}", f"p{k}") for k in range(rng.randint(2, 5))]
    reports = []
    for layout in ("jsonl", "shuffled jsonl", "directory"):
        paths = []
        for side, graphs in (("source", [s for s, _ in pairs]),
                             ("correction", [c for _, c in pairs])):
            if layout != "jsonl":
                rng.shuffle(graphs)
            if layout == "directory":
                path = work / side
                path.mkdir()
                for k, g in enumerate(graphs):
                    (path / f"{k}.json").write_text(json.dumps(graph_to_dict(g)),
                                                   encoding="utf-8")
                paths.append(str(path))
            else:
                paths.append(write_jsonl(work / f"{layout} {side}.jsonl", graphs))
        out = work / f"{layout}.out"
        assert main(["corpus", *paths, "--format", fmt, *flag_argv(flags),
                     "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[1:] == reports[:1] * 2
