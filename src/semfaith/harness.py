"""Sensitivity harness: apply typed edits in sampled orders, emit a parse
manifest for an external parser, then aggregate per-edit-type score deltas.

The pipeline is split in two phases.  ``build_chain`` works on text only and
produces every intermediate sentence version; an external semantic parser
turns versions into graphs.  The manifest joins the phases, and it has one
writer, ``manifest_text`` (``emit_manifest`` writes that text to a file),
and one reader, ``load_manifest``.  ``maege score`` calls
``chain_scores(chain, load_chain_graphs(graphs_dir, chain))`` for each chain
and averages the score change per edit type with ``type_deltas``;
``compute_deltas`` does the same from graphs already parsed, by version id.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .graph import (GraphValidationError, SemanticGraph, is_int, is_str_list, load_graph,
                    located, parse_json, read_json_lines, read_utf8, require_field, require_object)
from .measures import usim_batch


class HarnessError(ValueError):
    pass


class _EditFields(NamedTuple):
    start: int
    end: int
    replacement: tuple[str, ...]
    edit_type: str


class EditOperation(_EditFields):
    """Replace tokens[start:end) with ``replacement``; typed by ``edit_type``."""

    __slots__ = ()

    def __new__(cls, start, end, replacement, edit_type):
        if not 0 <= start <= end:
            raise HarnessError(f"invalid edit span ({start}, {end})")
        return super().__new__(cls, start, end, replacement, edit_type)

    @classmethod
    def _make(cls, fields):  # _replace builds through here: check it too
        return cls(*fields)


class VersionChain(NamedTuple):
    sentence_id: str
    seed: int
    order: tuple[int, ...]  # permutation of edit indices, in application order
    versions: tuple[tuple[str, ...], ...]  # versions[0] is the original
    source_index: int
    edits: tuple[EditOperation, ...]  # in original (corpus) order


class TypeDelta(NamedTuple):
    edit_type: str
    delta_mean: Fraction
    occurrences: int


def apply_edit(tokens: Sequence[str], edit: EditOperation) -> list[str]:
    """The one-edit case of ``apply_edits_in_order``."""
    return list(apply_edits_in_order(tokens, [edit], [0])[-1])


def _check_non_overlapping(edits: Sequence[EditOperation], n_tokens: int) -> None:
    spans = sorted((e.start, e.end) for e in edits)
    for start, end in spans:
        if end > n_tokens:
            raise HarnessError(f"edit span ({start}, {end}) out of bounds")
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        # open-interval intersection; insertions may touch another span's
        # boundary, but two insertions at the same point are ambiguous
        if (s1 < e2 and s2 < e1) or (s1, e1) == (s2, e2):
            raise HarnessError(f"overlapping edit spans ({s1},{e1}) and ({s2},{e2})")


def apply_edits_in_order(
    tokens: Sequence[str],
    edits: Sequence[EditOperation],
    order: Sequence[int],
) -> list[tuple[str, ...]]:
    """All versions produced by applying the edits in the given order.

    Version k is the original tokens with the first k edits of the order
    applied at their own spans, spliced from the last span to the first so
    that no splice moves a span still to come.  Returns ``len(order) + 1``
    versions, the original first.
    """
    _check_non_overlapping(edits, len(tokens))
    versions = [tuple(tokens)]
    for k in range(1, len(order) + 1):
        current = list(tokens)
        for edit in sorted((edits[i] for i in order[:k]), reverse=True):
            current[edit.start:edit.end] = edit.replacement
        versions.append(tuple(current))
    return versions


def build_chain(
    sentence_id: str,
    tokens: Sequence[str],
    edits: Sequence[EditOperation],
    seed: int,
    pin_source_index: int | None = None,
) -> VersionChain:
    """Apply the edits in a seeded random order, recording every version.

    The comparison source is drawn uniformly from the resulting versions
    unless pinned.
    """
    rng = random.Random(f"{seed}:{sentence_id}")  # one reproducible stream per sentence
    order = list(range(len(edits)))
    rng.shuffle(order)
    versions = apply_edits_in_order(tokens, edits, order)

    source_index = pin_source_index
    if source_index is None:
        source_index = rng.randrange(len(versions))
    elif not 0 <= source_index < len(versions):
        raise HarnessError(f"pinned source index {source_index} out of range")
    return VersionChain(
        sentence_id, seed, tuple(order), tuple(versions), source_index, tuple(edits)
    )


def version_id(sentence_id: str, position: int) -> str:
    return f"{sentence_id}.v{position}"


def graph_file_name(sentence_id: str, position: int) -> str:
    """The name of the file that holds the parsed graph of a version."""
    return f"{version_id(sentence_id, position)}.json"


# The longest file name, in bytes, that common file systems hold.
_MAX_NAME_BYTES = 255


# -- edit corpus and manifest I/O -----------------------------------------


def _records(record: dict, key: str):
    """``(name, item)`` for each item of the list ``record[key]``, which must
    each be an object, named ``<key>[<index>]``."""
    for k, item in enumerate(require_field(record, key, HarnessError, list, "a list")):
        name = f"{key}[{k}]"
        yield name, require_object(item, name, HarnessError)


def _strings(value, what: str) -> tuple[str, ...]:
    if not is_str_list(value):
        raise HarnessError(f"{what} must be a list of strings")
    return tuple(value)


def _edit_fields(record: dict) -> list[tuple]:
    """The ``EditOperation`` fields of each edit of the list
    ``record["edits"]``, type-checked.  A missing field names its edit,
    ``edits[<index>]``."""
    edits = []
    for name, e in _records(record, "edits"):
        with located(name, HarnessError):
            start, end, edit_type, replacement = (
                require_field(e, key, HarnessError)
                for key in ("start", "end", "type", "replacement"))
        if not (is_int(start) and is_int(end)):
            raise HarnessError(
                f"edit start and end must be integers, not {start!r} and {end!r}")
        if not isinstance(edit_type, str):
            raise HarnessError(f"edit type must be a string, not {edit_type!r}")
        edits.append((start, end, _strings(replacement, "replacement"), edit_type))
    return edits


def _claim_sentence_id(sid, seen: set[str]) -> str:
    """Check that ``sid`` can name the graph files ``<sid>.v<k>.json``: a
    plain file-name part, with no ``/``, ``\\`` or U+0000, that no earlier
    record in ``seen`` uses."""
    if not isinstance(sid, str) or sid in ("", ".", "..") or {"/", "\\", "\0"} & set(sid):
        raise HarnessError(f"sentence_id {sid!r} is not a plain file-name part")
    if sid in seen:
        raise HarnessError(f"duplicate sentence_id {sid!r}")
    seen.add(sid)
    return sid


def _check_token_strings(
    tokens_name: str, tokens: Sequence[str], edits: Sequence[EditOperation]
) -> None:
    """Check that neither ``tokens`` nor an edit's replacement holds an empty
    string, since no graph holds an empty token."""
    strings = [(tokens_name, tokens)]
    strings += [(f"edits[{k}].replacement", e.replacement) for k, e in enumerate(edits)]
    for what, texts in strings:
        if "" in texts:
            raise HarnessError(f"{what}[{texts.index('')}] is an empty string")


def read_edit_corpus(path: str | Path) -> list[tuple[str, list[str], list[EditOperation]]]:
    """Records {sentence_id, tokens, edits:[...]}, one per non-blank line of
    a JSON Lines file (see ``graph.read_json_lines``).  No token or
    replacement token may be empty, since no graph holds one, and the graph
    file name of a record's last version must fit in ``_MAX_NAME_BYTES``."""
    return [record for _, record in _located_edit_records(path)]


def _located_edit_records(path: str | Path) -> list[tuple[str, tuple]]:
    """The records of ``read_edit_corpus``, each after where it is,
    ``<path> line <N>``, which an error in the record names."""
    out = []
    seen: set[str] = set()
    for where, line in read_json_lines(path, HarnessError):
        doc = parse_json(line, HarnessError, where)
        with located(where, HarnessError):
            with located("bad record", HarnessError):
                record = require_object(doc, "document", HarnessError)
                sid = require_field(record, "sentence_id", HarnessError)
                tokens = list(_strings(require_field(record, "tokens", HarnessError), "tokens"))
                fields = _edit_fields(record)
            edits = [EditOperation(*f) for f in fields]
            _claim_sentence_id(sid, seen)
            _check_token_strings("tokens", tokens, edits)
            size = len(graph_file_name(sid, len(edits)).encode("utf-8"))
            if size > _MAX_NAME_BYTES:
                raise HarnessError(
                    f"sentence_id {sid!r} is too long: its graph file name "
                    f"{graph_file_name('<sentence_id>', len(edits))} takes {size} bytes, "
                    f"over {_MAX_NAME_BYTES}"
                )
        out.append((where, (sid, tokens, edits)))
    return out


def build_chains(
    path: str | Path, seed: int, pin_source_index: int | None = None
) -> list[VersionChain]:
    """The ``build_chain`` chain of every record of the edit corpus at
    ``path`` (see ``read_edit_corpus``), in line order.  Every record is
    read before the first chain is built, and an error names the line of
    its record."""
    chains = []
    for where, record in _located_edit_records(path):
        with located(where, HarnessError):
            chains.append(build_chain(*record, seed, pin_source_index))
    return chains


def manifest_text(chains: Sequence[VersionChain]) -> str:
    """The manifest of ``chains`` as ``maege gen`` writes it: indented JSON
    with sorted keys and raw non-ASCII text, ending in a newline.  It holds
    a ``versions`` list, one ``{version_id, tokens}`` record per version of
    every chain, and a ``chains`` list, one record per chain that names its
    versions by ``version_ids``."""
    versions = []
    chain_docs = []
    for chain in chains:
        vids = [version_id(chain.sentence_id, k) for k in range(len(chain.versions))]
        versions += ({"version_id": vid, "tokens": tokens}
                     for vid, tokens in zip(vids, chain.versions))
        chain_docs.append({
            "sentence_id": chain.sentence_id, "seed": chain.seed, "order": chain.order,
            "source_index": chain.source_index, "version_ids": vids,
            "edits": [{"start": e.start, "end": e.end, "replacement": e.replacement,
                       "type": e.edit_type} for e in chain.edits],
        })
    doc = {"versions": versions, "chains": chain_docs}
    return json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=1) + "\n"


def emit_manifest(chains: Sequence[VersionChain], path: str | Path) -> None:
    """Write ``manifest_text(chains)`` to ``path`` as UTF-8, encoded before
    the file is created."""
    Path(path).write_bytes(manifest_text(chains).encode("utf-8"))


def load_manifest(path: str | Path) -> list[VersionChain]:
    """The chains of the manifest at ``path``.  An error in a version or a
    chain names it by its ``version_id`` or its ``sentence_id`` once that is
    read, and by its index (``versions[0]``, ``chains[0]``) before.

    Each chain must be what ``maege gen`` would record: ``order`` permutes
    the edit indices, applying the edits in that order to the first version
    gives every version, ``source_index`` names one of them, ``seed`` is an
    integer, and neither the first version nor an edit's replacement holds
    an empty token string."""
    doc = parse_json(read_utf8(path, HarnessError), HarnessError, str(path))
    seen: set[str] = set()
    tokens_by_vid: dict[str, tuple[str, ...]] = {}
    chains = []
    with located("bad manifest", HarnessError):
        doc = require_object(doc, "document", HarnessError)
        for name, v in _records(doc, "versions"):
            with located(name, HarnessError):
                vid = require_field(v, "version_id", HarnessError, str, "a string")
            with located(f"version {vid!r}", HarnessError):
                tokens = _strings(require_field(v, "tokens", HarnessError), "tokens")
            if vid in tokens_by_vid:
                raise HarnessError(f"versions repeat version_id {vid!r}")
            tokens_by_vid[vid] = tokens
        for name, c in _records(doc, "chains"):
            with located(name, HarnessError):
                sid = require_field(c, "sentence_id", HarnessError)
            sid = _claim_sentence_id(sid, seen)
            with located(f"chain {sid!r}", HarnessError):
                vids = require_field(c, "version_ids", HarnessError, list, "a list")
                for k, vid in enumerate(vids):
                    if vid != version_id(sid, k):  # maege score reads <version_id(sid, k)>.json
                        raise HarnessError(
                            f"version_ids[{k}] is {vid!r}, not {version_id(sid, k)!r}")
                    if vid not in tokens_by_vid:
                        raise HarnessError(f"no version has version_id {vid!r}")
                versions = tuple(tokens_by_vid[vid] for vid in vids)
                edits = tuple(EditOperation(*f) for f in _edit_fields(c))
                order, source_index, seed = (
                    require_field(c, key, HarnessError)
                    for key in ("order", "source_index", "seed"))
                if (not isinstance(order, list) or not all(map(is_int, order))
                        or sorted(order) != list(range(len(edits)))):
                    raise HarnessError(f"order {order!r} is not a permutation of the edit indices")
                if not versions or tuple(
                        apply_edits_in_order(versions[0], edits, order)) != versions:
                    raise HarnessError("versions do not replay from the edits in order")
                if not is_int(source_index) or not 0 <= source_index < len(versions):
                    raise HarnessError(f"source_index {source_index!r} is not a version index")
                if not is_int(seed):
                    raise HarnessError(f"seed {seed!r} is not an integer")
                _check_token_strings(f"version {vids[0]!r} tokens", versions[0], edits)
                chains.append(VersionChain(sid, seed, tuple(order), versions, source_index, edits))
    return chains


# -- delta aggregation -----------------------------------------------------


def load_chain_graphs(graphs_dir: str | Path, chain: VersionChain) -> list[SemanticGraph]:
    """The graph of every version of ``chain``, in version order, each read
    from ``<graphs_dir>/<version_id>.json``.  Each must exist and hold the
    manifest tokens of its version."""
    graphs = []
    for k, tokens in enumerate(chain.versions):
        vid = version_id(chain.sentence_id, k)
        path = Path(graphs_dir) / graph_file_name(chain.sentence_id, k)
        try:  # a name too long for the file system, say
            found = path.is_file()
        except OSError as exc:
            raise HarnessError(f"cannot read {path}: {exc}") from exc
        if not found:
            raise HarnessError(f"no graph file for version {vid!r} at {path}")
        graphs.append(_version_graph(load_graph(path), tokens, f"version {vid!r} at {path}"))
    return graphs


def _version_graph(graph: SemanticGraph, tokens: tuple[str, ...], where: str) -> SemanticGraph:
    """``graph``, if it holds ``tokens``, the manifest tokens of ``where``."""
    if graph.tokens != tokens:
        raise GraphValidationError(
            f"graph for {where} does not have the manifest tokens of that version"
        )
    return graph


def _check_version_count(chain: VersionChain, count: int, what: str) -> None:
    if count != len(chain.versions):
        raise HarnessError(
            f"chain {chain.sentence_id!r} has {len(chain.versions)} versions, "
            f"but {count} {what} were given"
        )


def chain_scores(
    chain: VersionChain, graphs: Sequence[SemanticGraph], **score_kwargs
) -> list[Fraction]:
    """The USim average of every version of ``chain`` against its source, in
    version order, from the graph of each version in that order, which must
    hold one graph per version.  One ``usim_batch`` call scores them all, so
    each distinct (source string, version string) distance is computed once
    per chain."""
    _check_version_count(chain, len(graphs), "graphs")
    source = graphs[chain.source_index]
    return [report.average for report in usim_batch(source, graphs, **score_kwargs)]


def type_deltas(
    chains: Sequence[VersionChain], scores_per_chain: Sequence[Sequence[Fraction]]
) -> list[TypeDelta]:
    """Average score change per edit type, sorted by delta descending, from
    the ``chain_scores`` of each chain, one score list per chain and one
    score per version: the edit applied k-th changes the score from that of
    version k - 1 to that of version k."""
    if len(scores_per_chain) != len(chains):
        raise HarnessError(
            f"{len(chains)} chains, but {len(scores_per_chain)} score lists were given"
        )
    totals: dict[str, Fraction] = {}
    counts: dict[str, int] = {}
    for chain, scores in zip(chains, scores_per_chain):
        _check_version_count(chain, len(scores), "scores")
        for k, edit_index in enumerate(chain.order, start=1):
            edit_type = chain.edits[edit_index].edit_type
            totals[edit_type] = totals.get(edit_type, Fraction(0)) + scores[k] - scores[k - 1]
            counts[edit_type] = counts.get(edit_type, 0) + 1
    report = [
        TypeDelta(t, totals[t] / counts[t], counts[t]) for t in totals
    ]
    report.sort(key=lambda td: (-td.delta_mean, td.edit_type))
    return report


def compute_deltas(
    chains: Sequence[VersionChain],
    parsed_graphs: Mapping[str, SemanticGraph],
    **score_kwargs,
) -> list[TypeDelta]:
    """Average score change per edit type, sorted by delta descending, from
    the parsed graph of every version by version id.  Each graph must hold
    the manifest tokens of its version."""

    def graphs_of(chain: VersionChain) -> list[SemanticGraph]:
        vids = [version_id(chain.sentence_id, k) for k in range(len(chain.versions))]
        for vid in (vids[chain.source_index], *vids):
            if vid not in parsed_graphs:
                raise HarnessError(f"no parsed graph for version {vid!r}")
        return [_version_graph(parsed_graphs[vid], tokens, f"version {vid!r}")
                for vid, tokens in zip(vids, chain.versions)]

    return type_deltas(
        chains, [chain_scores(chain, graphs_of(chain), **score_kwargs) for chain in chains]
    )
