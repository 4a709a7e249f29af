"""Exact substring-duplication spans — span-level dedup detection.

Doc-level dedup (exact/MinHash/SimHash, `pipelines/dedup.py`) misses the
dominant duplication mode in web/code corpora: long byte ranges repeated
inside otherwise-distinct documents (licenses, boilerplate, quoted text).
The published approach (Lee et al., "Deduplicating Training Data Makes
Language Models Better", ACL 2022 — PAPERS.md) finds exact duplicated
substrings with a corpus-wide suffix array; a suffix array is a global
sequential structure with no good Dataset expression, so this module
re-expresses the same detection Ray-Data-first:

    every W-byte window of every document
      -> per-batch np.unique pre-aggregation (map-side combine)
      -> ONE groupby(window).sum exchange of (window, count) rows
      -> windows with count >= min_count are "duplicated"
      -> second pass marks duplicated window starts per document and merges
         CONSECUTIVE starts into maximal islands:
         span = [first_start, last_start + W - 1] (1-based, inclusive)

Size-adaptive second pass (same convention as dedup.py's loser resolution):
the duplicated-window set is usually tiny relative to the corpus (shared
boilerplate), so below `broadcast_limit` it ships once via ray.put and the
corpus streams through a vectorized sorted-set membership probe — ONE small
exchange total.  Above the limit it falls back to a fully distributed
2-exchange plan (groupby(window).map_groups keeps groups with >= min_count
occurrences, then groupby(doc).map_groups merges islands) that never
materializes anything driver-side.

Exactness: the groupby key is the literal window BYTES (fixed width W), not
a hash — zero false positives, matching the suffix-array semantics and the
SQL oracle.  Windows are byte-based (== character-based on ASCII corpora;
DuckDB's substr() oracle is character-based, so they coincide on the
synthetic corpus — documented boundary for non-ASCII text).  At 100 TB the
window exchange inflates bytes ~W-fold; production runs raise `stride`
(sample every k-th start; detection of spans >= W + k - 1 is preserved) —
stride=1 here because the oracle checks every start.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from ..codecs.base import binary_parts

DEFAULT_WIDTH = 20


def _doc_windows(batch: pa.Table, width: int):
    """(windows_void, doc_rep, local_start, global_start) for every
    width-byte window of every text in the batch; windows never cross
    document boundaries.  global_start indexes the batch's concatenated
    text buffer (binary_parts order)."""
    texts = batch["text"]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    lengths, data = binary_parts(texts)
    counts = np.maximum(lengths - width + 1, 0)
    tot = int(counts.sum())
    if tot == 0:
        empty = np.empty(0, dtype=np.dtype((np.void, width)))
        z = np.empty(0, np.int64)
        return empty, z, z, z
    offs = np.zeros(len(lengths), dtype=np.int64)
    np.cumsum(lengths[:-1], out=offs[1:])
    base = np.repeat(offs, counts)
    cum = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=cum[1:])
    within = np.arange(tot, dtype=np.int64) - np.repeat(cum, counts)
    gstarts = base + within
    sw = np.lib.stride_tricks.sliding_window_view(data, width)
    wins = np.ascontiguousarray(sw[gstarts])  # (tot, width) materialized
    v = wins.view(np.dtype((np.void, width))).ravel()  # memcmp-ordered rows
    doc_rep = np.repeat(np.asarray(batch["doc_id"], dtype=np.int64), counts)
    return v, doc_rep, within, gstarts


def _void_to_binary(v: np.ndarray, width: int) -> pa.Array:
    buf = pa.py_buffer(v.tobytes())
    fsb = pa.FixedSizeBinaryArray.from_buffers(pa.binary(width), len(v), [None, buf])
    return fsb.cast(pa.binary())  # variable-width: exchange-friendly key type


def _spans_table(doc: np.ndarray, start0: np.ndarray, width: int) -> pa.Table:
    """Merge consecutive duplicated 0-based starts (sorted by doc, start)
    into islands; emit 1-based inclusive spans (the oracle's shape)."""
    if len(doc) == 0:
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "span_start": pa.array([], pa.int64()),
                "span_end": pa.array([], pa.int64()),
                "span_len": pa.array([], pa.int64()),
                "n_windows": pa.array([], pa.int64()),
            }
        )
    brk = np.flatnonzero((doc[1:] != doc[:-1]) | (start0[1:] != start0[:-1] + 1)) + 1
    first = np.concatenate(([0], brk))
    last = np.concatenate((brk, [len(doc)])) - 1
    return pa.table(
        {
            "doc_id": pa.array(doc[first], pa.int64()),
            "span_start": pa.array(start0[first] + 1, pa.int64()),
            "span_end": pa.array(start0[last] + width, pa.int64()),
            "span_len": pa.array(start0[last] + width - start0[first], pa.int64()),
            "n_windows": pa.array(last - first + 1, pa.int64()),
        }
    )


class _MarkSpans:
    """Actor-pool stage: the duplicated-window set ships ONCE per actor via
    ray.put (sorted void array, vectorized searchsorted membership)."""

    def __init__(self, dup_ref, width: int):
        self.dup = ray.get(dup_ref)  # sorted np.void array
        self.width = width

    def __call__(self, batch: pa.Table) -> pa.Table:
        v, doc, start0, _ = _doc_windows(batch, self.width)
        if len(v) == 0 or len(self.dup) == 0:
            return _spans_table(doc[:0], start0[:0], self.width)
        pos = np.searchsorted(self.dup, v)
        pos[pos == len(self.dup)] = 0
        hit = self.dup[pos] == v
        # rows are whole documents, so doc/start order from _doc_windows is
        # already (doc-block, ascending start) — islands need no sort
        return _spans_table(doc[hit], start0[hit], self.width)


_NPARTS = 64


def _docs(sf_dir: str) -> rd.Dataset:
    # the documents table is often ONE parquet file = one Ray block; fan
    # out so the window stages parallelize (each row is a whole doc, so
    # any split keeps windows intact)
    from ..sources.io import read_parquet_any

    return read_parquet_any(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text"],
        override_num_blocks=32,
    )


def _part_of(v: np.ndarray, width: int, nparts: int = _NPARTS) -> np.ndarray:
    # Hash of ALL `width` bytes of each window: its little-endian 8-byte
    # words (the last zero-padded) folded by xor, Knuth multiply and
    # xorshift, so windows sharing a long prefix still spread, and
    # identical windows always land in the same partition regardless of
    # which batch emitted them.  v is contiguous everywhere it is produced
    # (_doc_windows materializes, np.unique returns fresh).
    if not v.flags.c_contiguous:  # defensive; never hit on current callers
        v = np.ascontiguousarray(v)
    n, words = len(v), -(-width // 8)
    padded = np.zeros((n, words * 8), dtype=np.uint8)
    padded[:, :width] = v.view(np.uint8).reshape(n, width)
    w = padded.view("<u8")
    mul = np.uint64(0x9E3779B97F4A7C15)
    h = np.zeros(n, dtype=np.uint64)
    for j in range(words):
        h = (h ^ w[:, j]) * mul
        h ^= h >> np.uint64(29)
    return ((h * mul) >> np.uint64(40)).astype(np.int64) % nparts


def _discover_dups(sf_dir: str, width: int, min_count: int) -> rd.Dataset:
    """ONE exchange: duplicated-window discovery, materialized (bounded —
    duplicated windows only; without materialize the count and the driver
    pull would each re-execute the exchange)."""

    def count_windows(batch: pa.Table) -> pa.Table:
        v, _, _, _ = _doc_windows(batch, width)
        uniq, cnt = np.unique(v, return_counts=True)
        return pa.table(
            {
                "win": _void_to_binary(uniq, width),
                "cnt": pa.array(cnt, pa.int64()),
                "__part": pa.array(_part_of(uniq, width), pa.int64()),
            }
        )

    def dup_in_part(group: pa.Table) -> pa.Table:
        # Ray's native hash aggregate over ~1M binary groups measured
        # 9.5-23.6 s at sf0.1; the repo's __part pattern (64 int groups +
        # vectorized per-partition counting, same convention as dedup.py)
        # does the identical exchange bytes in ~2 s.
        col = group["win"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if len(col) == 0:
            return pa.table({"win": pa.array([], pa.binary())})
        fixed = col.cast(pa.binary(width))
        vt = np.dtype((np.void, width))
        v = np.frombuffer(
            fixed.buffers()[1], dtype=vt, count=len(fixed), offset=fixed.offset * width
        )
        cnt = np.asarray(group["cnt"], np.int64)
        uniq, inv = np.unique(v, return_inverse=True)
        tot = np.bincount(inv, weights=cnt).astype(np.int64)
        keep = uniq[tot >= min_count]
        return pa.table({"win": _void_to_binary(keep, width)})

    return (
        _docs(sf_dir)
        .map_batches(count_windows, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(dup_in_part, batch_format="pyarrow")
        .materialize()
    )


def _dup_sorted_array(dups: rd.Dataset, width: int) -> np.ndarray:
    vt = np.dtype((np.void, width))
    parts = []
    for t in dups.iter_batches(batch_format="pyarrow", batch_size=None):
        col = t["win"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        fixed = col.cast(pa.binary(width))
        parts.append(
            np.frombuffer(
                fixed.buffers()[1], dtype=vt, count=len(fixed),
                offset=fixed.offset * width,
            )
        )
    return np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=vt)


def dup_spans(
    sf_dir: str,
    width: int = DEFAULT_WIDTH,
    min_count: int = 2,
    broadcast_limit: int = 2_000_000,
) -> rd.Dataset:
    """(doc_id, span_start, span_end, span_len, n_windows) for every maximal
    island of consecutive duplicated-window starts, 1-based inclusive."""
    dups = _discover_dups(sf_dir, width, min_count)
    n_dup = dups.count()
    if n_dup <= broadcast_limit:
        # ---- broadcast path: ONE exchange total ----
        ref = ray.put(_dup_sorted_array(dups, width))
        return _docs(sf_dir).map_batches(
            _MarkSpans,
            fn_constructor_args=(ref, width),
            batch_format="pyarrow",
            concurrency=(1, 8),
        )
    # ---- distributed path: the already-discovered dup set is cogrouped
    # with the window positions on the same __part key (a union, never a
    # driver-side pull), then islands merge per doc-hash partition ----
    marked = _dup_positions_distributed(sf_dir, width, dups, _NPARTS)

    def islands(group: pa.Table) -> pa.Table:
        doc = np.asarray(group["doc_id"], np.int64)
        st = np.asarray(group["start0"], np.int64)
        order = np.lexsort((st, doc))
        return _spans_table(doc[order], st[order], width)

    return marked.groupby("__dpart").map_groups(islands, batch_format="pyarrow")


def _dup_positions_distributed(
    sf_dir: str, width: int, dups: rd.Dataset, nparts: int = _NPARTS
) -> rd.Dataset:
    """(doc_id, start0, __dpart) of every duplicated-window start, fully
    distributed: window positions UNION the tagged dup set, cogrouped by
    the window-hash __part key, membership by vectorized searchsorted —
    the discovery exchange's result is REUSED, not re-derived, and nothing
    reaches the driver."""

    def win_positions(batch: pa.Table) -> pa.Table:
        v, doc, start0, _ = _doc_windows(batch, width)
        return pa.table(
            {
                "win": _void_to_binary(v, width),
                "doc_id": pa.array(doc, pa.int64()),
                "start0": pa.array(start0, pa.int64()),
                "__part": pa.array(_part_of(v, width), pa.int64()),
            }
        )

    def tag_dups(batch: pa.Table) -> pa.Table:
        col = batch["win"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if len(col) == 0:
            return pa.table(
                {
                    "win": pa.array([], pa.binary()),
                    "doc_id": pa.array([], pa.int64()),
                    "start0": pa.array([], pa.int64()),
                    "__part": pa.array([], pa.int64()),
                }
            )
        fixed = col.cast(pa.binary(width))
        vt = np.dtype((np.void, width))
        v = np.frombuffer(
            fixed.buffers()[1], dtype=vt, count=len(fixed), offset=fixed.offset * width
        )
        neg = np.full(len(col), -1, dtype=np.int64)  # marker rows
        return pa.table(
            {
                "win": col.cast(pa.binary()),
                "doc_id": pa.array(neg, pa.int64()),
                "start0": pa.array(neg, pa.int64()),
                "__part": pa.array(_part_of(v, width), pa.int64()),
            }
        )

    def member_positions(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "start0": pa.array([], pa.int64()),
                "__dpart": pa.array([], pa.int64()),
            }
        )
        col = group["win"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if len(col) == 0:
            return empty
        doc = np.asarray(group["doc_id"], np.int64)
        st = np.asarray(group["start0"], np.int64)
        fixed = col.cast(pa.binary(width))
        vt = np.dtype((np.void, width))
        v = np.frombuffer(
            fixed.buffers()[1], dtype=vt, count=len(fixed), offset=fixed.offset * width
        )
        is_mark = doc < 0
        dup_sorted = np.sort(v[is_mark])
        if not len(dup_sorted) or is_mark.all():
            return empty
        pv = v[~is_mark]
        pos = np.searchsorted(dup_sorted, pv)
        pos[pos == len(dup_sorted)] = 0
        hit = dup_sorted[pos] == pv
        keep_doc = doc[~is_mark][hit]
        keep_st = st[~is_mark][hit]
        return pa.table(
            {
                "doc_id": pa.array(keep_doc, pa.int64()),
                "start0": pa.array(keep_st, pa.int64()),
                "__dpart": pa.array(keep_doc % nparts, pa.int64()),
            }
        )

    positions = _docs(sf_dir).map_batches(win_positions, batch_format="pyarrow")
    tagged = dups.map_batches(tag_dups, batch_format="pyarrow")
    return (
        positions.union(tagged)
        .groupby("__part")
        .map_groups(member_positions, batch_format="pyarrow")
    )


COLUMNS = ["doc_id", "span_start", "span_end", "span_len", "n_windows"]


def dup_spans_query(sf_dir: str, **kw):
    import pandas as pd

    df = dup_spans(sf_dir, **kw).to_pandas()
    if df.empty:  # all-empty datasets drop their schema through to_pandas
        return pd.DataFrame({c: pd.Series(dtype="int64") for c in COLUMNS})
    return df.sort_values(["doc_id", "span_start", "span_end"]).reset_index(drop=True)


def _strip_buffer(
    lengths: np.ndarray, data: np.ndarray, g: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Delete [g_i, g_i + width) from the concatenated doc buffer; returns
    (kept_lens, kept_data).  Coverage is one +1/-1 difference array + a
    cumulative sum, then snapped OUTWARD to UTF-8 character boundaries so
    the stripped strings stay valid UTF-8 on non-ASCII corpora (a window
    edge can fall mid-multibyte character; ASCII is unaffected).  Forward
    propagation cannot cross document boundaries: a valid document never
    starts with a continuation byte."""
    diff = np.zeros(len(data) + 1, dtype=np.int32)
    np.add.at(diff, g, 1)
    # a window never crosses its doc's end, so g+width stays in-doc
    np.add.at(diff, g + width, -1)
    covered = np.cumsum(diff[:-1]) > 0
    if len(data):
        cont = (data & 0xC0) == 0x80
        if cont.any():
            for _ in range(3):  # UTF-8 chars span <= 4 bytes
                # removed lead -> also remove its continuation tail
                covered[1:] |= covered[:-1] & cont[1:]
            for _ in range(3):
                # removed continuation -> also remove the char's earlier bytes
                covered[:-1] |= covered[1:] & cont[1:]
    kept_data = data[~covered]
    offs = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offs[1:])
    ccum = np.concatenate(([0], np.cumsum(covered, dtype=np.int64)))
    cov_per_doc = ccum[offs[1:]] - ccum[offs[:-1]]
    return lengths - cov_per_doc, kept_data


def _strip_result(doc_ids, lengths, kept_lens, kept_data) -> pa.Table:
    from ..codecs.base import build_binary

    return pa.table(
        {
            "doc_id": doc_ids,
            "orig_len": pa.array(lengths, pa.int64()),
            "kept_len": pa.array(kept_lens, pa.int64()),
            "text_stripped": build_binary(kept_lens, kept_data, pa.string()),
        }
    )


class _StripSpans:
    """Actor-pool stage: remove every byte covered by a duplicated window
    (Lee et al.'s ExactSubstr removal — all occurrences stripped)."""

    def __init__(self, dup_ref, width: int):
        self.dup = ray.get(dup_ref)  # sorted np.void array
        self.width = width

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        lengths, data = binary_parts(texts)
        v, _, _, gstart = _doc_windows(batch, self.width)
        if len(v) and len(self.dup):
            pos = np.searchsorted(self.dup, v)
            pos[pos == len(self.dup)] = 0
            hit = self.dup[pos] == v
            g = gstart[hit]
        else:
            g = np.empty(0, np.int64)
        kept_lens, kept_data = _strip_buffer(lengths, data, g, self.width)
        return _strip_result(batch["doc_id"], lengths, kept_lens, kept_data)


def strip_dup_spans(
    sf_dir: str,
    width: int = DEFAULT_WIDTH,
    min_count: int = 2,
    broadcast_limit: int = 2_000_000,
) -> rd.Dataset:
    """The removal half of exact substring dedup: every byte covered by a
    duplicated window is deleted from every document (all occurrences, the
    published ExactSubstr policy).  Returns (doc_id, orig_len, kept_len,
    text_stripped).  Same one-exchange duplicated-window discovery and the
    same size-adaptive second pass as dup_spans: dup set ≤ broadcast_limit
    ships once via ray.put; above it, positions and documents cogroup on
    the doc-hash partition key with nothing on the driver."""
    nparts = _NPARTS
    dups = _discover_dups(sf_dir, width, min_count)
    n_dup = dups.count()
    if n_dup <= broadcast_limit:
        ref = ray.put(_dup_sorted_array(dups, width))
        return _docs(sf_dir).map_batches(
            _StripSpans,
            fn_constructor_args=(ref, width),
            batch_format="pyarrow",
            concurrency=(1, 8),
        )
    # ---- distributed: duplicated starts cogroup with the documents ----
    positions = _dup_positions_distributed(sf_dir, width, dups, nparts)

    def pos_rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "text": pa.nulls(batch.num_rows, pa.string()),
                "start0": batch["start0"],
                "__dpart": batch["__dpart"],
            }
        )

    def doc_rows(batch: pa.Table) -> pa.Table:
        doc = np.asarray(batch["doc_id"], np.int64)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "text": batch["text"],
                "start0": pa.array(np.full(len(doc), -1, np.int64), pa.int64()),
                "__dpart": pa.array(doc % nparts, pa.int64()),
            }
        )

    def strip_group(group: pa.Table) -> pa.Table:
        st_all = np.asarray(group["start0"], np.int64)
        is_doc = st_all < 0
        docs_t = group.filter(pa.array(is_doc)).sort_by("doc_id")
        if docs_t.num_rows == 0:
            return _strip_result(
                pa.array([], pa.int64()),
                np.empty(0, np.int64),
                np.empty(0, np.int64),
                np.empty(0, np.uint8),
            )
        texts = docs_t["text"]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        lengths, data = binary_parts(texts)
        doc_sorted = np.asarray(docs_t["doc_id"], np.int64)
        offs = np.zeros(len(lengths), dtype=np.int64)
        np.cumsum(lengths[:-1], out=offs[1:])
        pdoc = np.asarray(group["doc_id"], np.int64)[~is_doc]
        pst = st_all[~is_doc]
        idx = np.searchsorted(doc_sorted, pdoc)
        g = offs[idx] + pst
        kept_lens, kept_data = _strip_buffer(lengths, data, g, width)
        return _strip_result(docs_t["doc_id"], lengths, kept_lens, kept_data)

    pos_u = positions.map_batches(pos_rows, batch_format="pyarrow")
    docs_u = _docs(sf_dir).map_batches(doc_rows, batch_format="pyarrow")
    return (
        docs_u.union(pos_u)
        .groupby("__dpart")
        .map_groups(strip_group, batch_format="pyarrow")
    )


def strip_dup_spans_query(sf_dir: str, **kw):
    """Driver projection: (doc_id, orig_len, kept_len) — kept_len is
    closed-form in SQL as orig_len minus the UNION length of the doc's
    duplicated spans (interval merge via running-max gaps-and-islands)."""
    import pandas as pd

    df = (
        strip_dup_spans(sf_dir, **kw)
        .select_columns(["doc_id", "orig_len", "kept_len"])
        .to_pandas()
    )
    if df.empty:
        return pd.DataFrame(
            {c: pd.Series(dtype="int64") for c in ("doc_id", "orig_len", "kept_len")}
        )
    return df.sort_values("doc_id").reset_index(drop=True)
