"""Sensitivity harness: apply typed edits in sampled orders, emit a parse
manifest for an external parser, then aggregate per-edit-type score deltas.

The pipeline is split in two phases.  ``build_chain``/``emit_manifest`` work
on text only and produce every intermediate sentence version; an external
semantic parser turns versions into graphs; ``compute_deltas`` ingests those
graphs and averages the score change per edit type.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .graph import SemanticGraph, parse_json, read_utf8
from .measures import usim


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
    if edit.end > len(tokens):
        raise HarnessError(
            f"edit span ({edit.start}, {edit.end}) out of bounds for "
            f"{len(tokens)} tokens"
        )
    return list(tokens[: edit.start]) + list(edit.replacement) + list(tokens[edit.end :])


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


def _chain_rng(master_seed: int, sentence_id: str) -> random.Random:
    # one independent, reproducible stream per sentence
    return random.Random(f"{master_seed}:{sentence_id}")


def apply_edits_in_order(
    tokens: Sequence[str],
    edits: Sequence[EditOperation],
    order: Sequence[int],
) -> list[tuple[str, ...]]:
    """All versions produced by applying the edits in the given order.

    Each pending edit's span is remapped by the cumulative length deltas of
    already applied edits that end at or before its start.  Returns
    ``len(order) + 1`` versions, the original first.
    """
    _check_non_overlapping(edits, len(tokens))
    versions = [tuple(tokens)]
    current = list(tokens)
    shift_events: list[tuple[int, int]] = []  # (original end, length delta)
    for k in order:
        edit = edits[k]
        shift = sum(delta for end, delta in shift_events if end <= edit.start)
        shifted = EditOperation(
            edit.start + shift, edit.end + shift, edit.replacement, edit.edit_type
        )
        current = apply_edit(current, shifted)
        versions.append(tuple(current))
        shift_events.append((edit.end, len(edit.replacement) - (edit.end - edit.start)))
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
    rng = _chain_rng(seed, sentence_id)
    order = list(range(len(edits)))
    rng.shuffle(order)
    versions = apply_edits_in_order(tokens, edits, order)

    if pin_source_index is None:
        source_index = rng.randrange(len(versions))
    else:
        if not 0 <= pin_source_index < len(versions):
            raise HarnessError(f"pinned source index {pin_source_index} out of range")
        source_index = pin_source_index
    return VersionChain(
        sentence_id, seed, tuple(order), tuple(versions), source_index, tuple(edits)
    )


def version_id(sentence_id: str, position: int) -> str:
    return f"{sentence_id}.v{position}"


# -- edit corpus and manifest I/O -----------------------------------------


def _strings(value, what: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise TypeError(f"{what} must be a list of strings")
    return tuple(value)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _edit_from_dict(e) -> EditOperation:
    start, end, edit_type = e["start"], e["end"], e["type"]
    if not (_is_int(start) and _is_int(end)):
        raise TypeError(f"edit start and end must be integers, not {start!r} and {end!r}")
    if not isinstance(edit_type, str):
        raise TypeError(f"edit type must be a string, not {edit_type!r}")
    return EditOperation(start, end, _strings(e["replacement"], "replacement"), edit_type)


def _claim_sentence_id(sid, seen: set[str], where: str) -> str:
    """Check that ``sid`` can name the graph files ``<sid>.v<k>.json``: a
    plain file-name part that no earlier record in ``seen`` uses."""
    if not isinstance(sid, str) or sid in ("", ".", "..") or "/" in sid or "\\" in sid:
        raise HarnessError(f"{where}: sentence_id {sid!r} is not a plain file-name part")
    if sid in seen:
        raise HarnessError(f"{where}: duplicate sentence_id {sid!r}")
    seen.add(sid)
    return sid


def read_edit_corpus(path: str | Path) -> list[tuple[str, list[str], list[EditOperation]]]:
    """Newline-delimited records {sentence_id, tokens, edits:[...]}."""
    out = []
    seen: set[str] = set()
    for lineno, line in enumerate(read_utf8(path, HarnessError).splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{path} line {lineno}"
        doc = parse_json(line, HarnessError, where)
        try:
            sid = doc["sentence_id"]
            tokens = list(_strings(doc["tokens"], "tokens"))
            edits = [_edit_from_dict(e) for e in doc["edits"]]
        except (KeyError, TypeError) as exc:
            raise HarnessError(f"{where}: bad record: {exc}") from exc
        out.append((_claim_sentence_id(sid, seen, where), tokens, edits))
    return out


def manifest_to_dict(chains: Sequence[VersionChain]) -> dict:
    versions = []
    chain_docs = []
    for chain in chains:
        vids = [version_id(chain.sentence_id, k) for k in range(len(chain.versions))]
        for vid, tokens in zip(vids, chain.versions):
            versions.append({"version_id": vid, "tokens": list(tokens)})
        chain_docs.append(
            {
                "sentence_id": chain.sentence_id,
                "seed": chain.seed,
                "order": list(chain.order),
                "source_index": chain.source_index,
                "version_ids": vids,
                "edits": [
                    {
                        "start": e.start,
                        "end": e.end,
                        "replacement": list(e.replacement),
                        "type": e.edit_type,
                    }
                    for e in chain.edits
                ],
            }
        )
    return {"versions": versions, "chains": chain_docs}


def chains_from_manifest(doc: dict) -> list[VersionChain]:
    seen: set[str] = set()
    try:
        tokens_by_vid: dict[str, tuple[str, ...]] = {}
        for v in doc["versions"]:
            vid, tokens = v["version_id"], _strings(v["tokens"], "tokens")
            if vid in tokens_by_vid:
                raise HarnessError(f"bad manifest: versions repeat version_id {vid!r}")
            tokens_by_vid[vid] = tokens
        chains = []
        for c in doc["chains"]:
            sid = _claim_sentence_id(c["sentence_id"], seen, "bad manifest")
            versions = tuple(tokens_by_vid[vid] for vid in c["version_ids"])
            for k, vid in enumerate(c["version_ids"]):
                if vid != version_id(sid, k):  # maege score reads <version_id(sid, k)>.json
                    raise HarnessError(f"bad manifest: chain {sid!r}: version_ids[{k}] "
                                       f"is {vid!r}, not {version_id(sid, k)!r}")
            edits = tuple(_edit_from_dict(e) for e in c["edits"])
            order, source_index = c["order"], c["source_index"]
            _check_replay(sid, versions, edits, order, source_index)
            chains.append(
                VersionChain(sid, c["seed"], tuple(order), versions, source_index, edits)
            )
    except (KeyError, TypeError) as exc:
        raise HarnessError(f"bad manifest: {exc}") from exc
    return chains


def _check_replay(
    sid: str,
    versions: tuple[tuple[str, ...], ...],
    edits: tuple[EditOperation, ...],
    order,
    source_index,
) -> None:
    """Check that a manifest chain is what ``build_chain`` would record:
    ``order`` permutes the edit indices, applying the edits in that order
    to the first version gives every version, and ``source_index`` names
    one of them."""
    where = f"bad manifest: chain {sid!r}"
    if (
        not isinstance(order, list)
        or not all(_is_int(k) for k in order)
        or sorted(order) != list(range(len(edits)))
    ):
        raise HarnessError(f"{where}: order {order!r} is not a permutation of the edit indices")
    if not versions or tuple(apply_edits_in_order(versions[0], edits, order)) != versions:
        raise HarnessError(f"{where}: versions do not replay from the edits in order")
    if not _is_int(source_index) or not 0 <= source_index < len(versions):
        raise HarnessError(f"{where}: source_index {source_index!r} is not a version index")


def emit_manifest(chains: Sequence[VersionChain], path: str | Path) -> None:
    text = json.dumps(manifest_to_dict(chains), ensure_ascii=False, sort_keys=True, indent=1)
    data = (text + "\n").encode("utf-8")  # before the file is created
    Path(path).write_bytes(data)


def load_manifest(path: str | Path) -> list[VersionChain]:
    doc = parse_json(read_utf8(path, HarnessError), HarnessError, str(path))
    return chains_from_manifest(doc)


# -- delta aggregation -----------------------------------------------------


def version_scores(
    chains: Sequence[VersionChain],
    parsed_graphs: Mapping[str, SemanticGraph],
    **score_kwargs,
) -> dict[str, Fraction]:
    """The USim average of every version against its chain's source, by
    version id, scored chain by chain in version order."""

    def graph_for(vid: str) -> SemanticGraph:
        try:
            return parsed_graphs[vid]
        except KeyError:
            raise HarnessError(f"no parsed graph for version {vid!r}") from None

    scores: dict[str, Fraction] = {}
    for chain in chains:
        source = graph_for(version_id(chain.sentence_id, chain.source_index))
        for k in range(len(chain.versions)):
            vid = version_id(chain.sentence_id, k)
            scores[vid] = usim(source, graph_for(vid), **score_kwargs).average
    return scores


def _edit_deltas(
    chains: Sequence[VersionChain], scores: Mapping[str, Fraction]
) -> list[tuple[str, Fraction]]:
    deltas: list[tuple[str, Fraction]] = []
    for chain in chains:
        for k, edit_index in enumerate(chain.order, start=1):
            edit_type = chain.edits[edit_index].edit_type
            delta = (scores[version_id(chain.sentence_id, k)]
                     - scores[version_id(chain.sentence_id, k - 1)])
            deltas.append((edit_type, delta))
    return deltas


def type_deltas(
    chains: Sequence[VersionChain], scores: Mapping[str, Fraction]
) -> list[TypeDelta]:
    """Average score change per edit type, sorted by delta descending, from
    the USim average of every version by version id."""
    totals: dict[str, Fraction] = {}
    counts: dict[str, int] = {}
    for edit_type, delta in _edit_deltas(chains, scores):
        totals[edit_type] = totals.get(edit_type, Fraction(0)) + delta
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
    """Average score change per edit type, sorted by delta descending."""
    return type_deltas(chains, version_scores(chains, parsed_graphs, **score_kwargs))
