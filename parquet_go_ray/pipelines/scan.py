"""Pruned scans over encoded chunk checkpoints — the distributed analog of
the reference's row/page skipping machinery (reader SkipRows
reader/reader.go:178-222 + ColumnIndex page stats writer/writer.go:418-481):
chunk min/max/null-count stats travel in each blob's meta, so a filtered read
decodes ONLY the chunks whose [min, max] range can satisfy the predicate.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data as rd

from ..chunk import _chunk_type, bloom_may_contain, chunk_arrow_type, chunk_header, decode_column_chunk
from ..formats.par1 import _PRED_OPS, _normalize_predicate, dnf_mask


def chunk_meta(blob: bytes) -> dict:
    """Read a chunk blob's metadata WITHOUT decompressing or decoding it."""
    return chunk_header(blob)[0]


def _chunk_may_match(meta: dict, op: str, value) -> bool:
    """Admission of one normalized clause (see par1._normalize_predicate:
    str probes arrive as UTF-8 bytes) from the blob meta alone — no
    decompression.  The [min, max] test is par1's; what stays here is what
    the chunk header adds: null counts, the bloom, truncated and
    str()-encoded stats."""
    if op == "is_null":
        return meta.get("nulls", 1) > 0
    if op == "not_null":
        n = meta.get("n")
        return not (n is not None and meta.get("nulls", 0) == n)
    probes = value if op == "in" else [value]
    if op in ("==", "in") and "bloom" in meta:
        # Bloom consult first: prunes chunks whose min/max SPAN the probe but
        # whose value set misses it (random-ordered ids/names, where stats
        # never prune).  False positives only -> never wrong, just decoded.
        t = _chunk_type(meta)
        if not any(bloom_may_contain(meta["bloom"], p, t) for p in probes):
            return False
    mn, mx = meta.get("min"), meta.get("max")
    if mn is None or mx is None:
        return True  # no stats -> cannot prune
    if meta.get("max_trunc") and op in (">", ">=", "==", "in", "!="):
        return True  # truncated max cannot safely prune upper-bound/equality
    if isinstance(mn, str):
        # stats carry the str() encoding.  Their order is the value order
        # only for a string column probed with a string (compared as UTF-8
        # bytes, Arrow's string order); for str()-encoded non-string types
        # (Decimal, date, binary reprs, ...) it diverges ('7' > '30.00') and
        # pruning would silently drop matching chunks — decode instead.
        if meta.get("type", "string") not in ("string", "large_string") or not all(
            isinstance(p, bytes) for p in probes
        ):
            return True
        mn, mx = mn.encode(), mx.encode()
    # numeric stats are native JSON numbers; Python int/float comparison is
    # exact, so >53-bit ints prune correctly (no float round-trip)
    return _PRED_OPS[op](mn, mx, value)


def _scan_branches(column: str, predicate) -> list:
    """The single-column scan predicate in par1's normalized DNF: each
    (op, value) clause gains the column name.  Unknown ops raise
    ValueError here, in the driver."""

    def prefixed(p):
        return (column, *p) if isinstance(p, tuple) else [prefixed(q) for q in p]

    return _normalize_predicate(None if predicate is None else prefixed(predicate))


def _chunk_may_match_dnf(meta: dict, branches) -> bool:
    if not branches:
        return True
    return any(
        all(_chunk_may_match(meta, op, v) for _, op, v in br) for br in branches
    )


def scan_column(
    chunks: rd.Dataset,
    column: str,
    predicate: tuple[str, object] | None = None,
) -> rd.Dataset:
    """Decode `column` from a chunk-table Dataset, skipping chunks whose
    meta stats exclude `predicate`; rows are then exactly filtered.
    `predicate` speaks the same DNF language as the native scans minus the
    column name: one (op, value) clause with op in
    >= > <= < == != in is_null not_null, an AND list of clauses, or a list
    of AND lists ORed.  Returns (chunk_id, row_idx, value) rows."""
    branches = _scan_branches(column, predicate)

    def fn(batch: pa.Table) -> pa.Table:
        out_vals = []
        out_cid = []
        out_idx = []
        val_type = None
        for i in range(batch.num_rows):
            if batch["column"][i].as_py() != column:
                continue
            blob = batch["blob"][i].as_py()
            meta = chunk_meta(blob)
            if meta["codec"] == "list":
                raise TypeError("scan_column targets scalar columns; decode list chunks via decode_column_chunk")
            val_type = _chunk_type(meta)  # known without decoding
            if not _chunk_may_match_dnf(meta, branches):
                continue  # pruned: never decompressed/decoded
            arr = decode_column_chunk(blob)
            mask = dnf_mask(pa.table({column: arr}), branches) if branches else None
            if mask is not None:
                idx = np.flatnonzero(np.asarray(mask.fill_null(False)))
            else:
                idx = np.arange(len(arr))
            taken = arr.take(pa.array(idx, pa.int64()))
            out_vals.append(taken)
            out_cid.extend([batch["chunk_id"][i].as_py()] * len(idx))
            out_idx.append(idx)
        if not out_vals:
            return pa.table(
                {
                    "chunk_id": pa.array([], pa.string()),
                    "row_idx": pa.array([], pa.int64()),
                    # null type when NO same-column blob was in the block:
                    # it promotes to any concrete type at unification,
                    # where a guessed int64 vs a string column would not
                    column: pa.array([], val_type or pa.null()),
                }
            )
        vals = pa.concat_arrays([v.combine_chunks() if isinstance(v, pa.ChunkedArray) else v for v in out_vals])
        return pa.table(
            {
                "chunk_id": pa.array(out_cid, pa.string()),
                "row_idx": pa.array(np.concatenate(out_idx), pa.int64()),
                column: vals,
            }
        )

    return chunks.map_batches(fn, batch_format="pyarrow")


def count_pruned(chunks: rd.Dataset, column: str, predicate) -> dict:
    """Report how many chunks the predicate pruned vs decoded.  Counting
    happens INSIDE map_batches (only two ints per block reach the driver)
    — iter_batches would pull every compressed blob through the object
    store to the driver just to parse its few-hundred-byte header."""
    branches = _scan_branches(column, predicate)

    def part(batch: pa.Table) -> pa.Table:
        pruned = decoded = 0
        for i in range(batch.num_rows):
            if batch["column"][i].as_py() != column:
                continue
            meta = chunk_meta(batch["blob"][i].as_py())
            if _chunk_may_match_dnf(meta, branches):
                decoded += 1
            else:
                pruned += 1
        return pa.table(
            {"pruned": pa.array([pruned], pa.int64()),
             "decoded": pa.array([decoded], pa.int64())}
        )

    pdf = chunks.map_batches(part, batch_format="pyarrow").to_pandas()
    return {"pruned": int(pdf["pruned"].sum()), "decoded": int(pdf["decoded"].sum())}


def skip_read(
    chunks: rd.Dataset, column: str, row_offset: int, row_count: int
) -> pa.Table:
    """SkipRows analog (reference: reader/reader.go:178-222 +
    reader/columnbuffer.go:158-230): return rows [row_offset,
    row_offset+row_count) of `column` in chunk order.

    Two passes: a metadata pass (no blobs leave the workers) builds the
    cumulative row index and picks the overlapping chunks; the decode pass
    touches ONLY those chunks and decodes ONLY the in-chunk row range
    (byte-sliced for PLAIN fixed-width).  Whole chunks before the offset are
    skipped without decompression."""
    from ray.data import DataContext

    # a Dataset snapshots its DataContext at creation: the global flag alone
    # does NOT affect `chunks` — set preserve_order on BOTH so the metadata
    # pass and the decode pass walk blocks in the same (file) order
    ctx = DataContext.get_current()
    old = ctx.execution_options.preserve_order
    ds_ctx = chunks.context
    ds_old = ds_ctx.execution_options.preserve_order
    ctx.execution_options.preserve_order = True
    ds_ctx.execution_options.preserve_order = True
    try:
        # materialize ONCE: `chunks` is usually a lazy encode pipeline, and
        # without this both the metadata pass and the decode pass would
        # re-run the entire upstream encode — the object store holds (and
        # spills) the compressed chunk table instead
        chunks = chunks.materialize()
        meta_pdf = (
            chunks.select_columns(["chunk_id", "column", "rows"])
            .filter(expr=f"column == '{column}'")
            .to_pandas()  # chunk COUNT rows, not data rows: tiny
        )
        import numpy as _np

        ns = meta_pdf["rows"].to_numpy()
        starts = _np.concatenate(([0], _np.cumsum(ns)[:-1]))
        lo, hi = row_offset, row_offset + row_count
        wanted = {}
        for cid, st, n in zip(meta_pdf["chunk_id"], starts, ns):
            a, b = max(lo, st), min(hi, st + n)
            if a < b:
                wanted[cid] = (int(a - st), int(b - a))

        def fn(batch: pa.Table) -> pa.Table:
            outs = []
            col_blob = None
            for i in range(batch.num_rows):
                if batch["column"][i].as_py() != column:
                    continue
                blob = batch["blob"][i].as_py()
                col_blob = blob
                cid = batch["chunk_id"][i].as_py()
                if cid not in wanted:
                    continue
                off, cnt = wanted[cid]
                arr = decode_column_chunk(blob, row_offset=off, row_count=cnt)
                outs.append(pa.table({column: arr}))
            if not outs:
                # TYPED empty (type read from any same-column blob header,
                # nothing decompressed) so every block shares one schema
                if col_blob is not None:
                    try:
                        t = chunk_arrow_type(col_blob)
                    except TypeError:
                        t = decode_column_chunk(col_blob, row_offset=0, row_count=0).type
                    return pa.table({column: pa.array([], t)})
                return pa.table({})
            return pa.concat_tables(outs)

        parts = [
            b
            for b in chunks.map_batches(fn, batch_format="pyarrow").iter_batches(
                batch_format="pyarrow"
            )
            if b.num_rows
        ]
        return pa.concat_tables(parts) if parts else pa.table({column: []})
    finally:
        ctx.execution_options.preserve_order = old
        ds_ctx.execution_options.preserve_order = ds_old
