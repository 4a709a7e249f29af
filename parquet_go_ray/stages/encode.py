"""Encode / decode stages — the map_batches kernels.

`encode_table` is the Ray-native analog of the reference's pages->chunk
flush path (reference: writer/writer.go:367-500) with dictionary/FSST state
chunk-local instead of writer-global (writer/writer.go:315-325's
mutex-guarded DictRecs — deliberately dropped; see SURVEY §7.3): one input
batch -> one column chunk per column, encoded with the auto-selected codec,
emitted as rows of a chunk table.

Chunk ids are deterministic content hashes, so task retries are idempotent
(same input batch -> same chunk id/bytes).
"""

from __future__ import annotations

import collections
import hashlib
import json

import numpy as np
import pyarrow as pa

from ..chunk import (
    _is_nested,
    column_sha256,
    decode_column_chunk,
    encode_any_chunk,
    encode_column_chunk,
    raw_nbytes,
)
from ..config import DEFAULT, EngineConfig
from ..selector import REFERENCE_POLICY, select_codec

# one row per column chunk
CHUNK_SCHEMA = pa.schema(
    [
        ("chunk_id", pa.string()),
        ("part", pa.int64()),
        ("column", pa.string()),
        ("codec", pa.string()),
        ("outer", pa.string()),
        ("rows", pa.int64()),
        ("nulls", pa.int64()),
        ("raw_bytes", pa.int64()),
        ("enc_bytes", pa.int64()),
        ("ref_bytes", pa.int64()),
        ("sha256", pa.string()),
        ("blob", pa.large_binary()),
    ]
)


def encode_table(
    table: pa.Table, cfg: EngineConfig = DEFAULT, part: int = 0, plan: dict | None = None
) -> pa.Table:
    """Encode every column of `table` as one chunk; returns the chunk table.

    `plan` maps column -> (codec, outer) chosen ahead of time (see
    encode_pipeline._plan_codecs); unlike `cfg.per_column_codec`, a planned
    codec is still subject to the reference floor."""
    shas = [column_sha256(table[c]) for c in table.column_names]
    chunk_id = hashlib.sha256("|".join(shas).encode()).hexdigest()[:20]
    rows = []
    for name, sha in zip(table.column_names, shas):
        col = table[name]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if _is_nested(col.type):
            row = encode_any_chunk(col, cfg)
            # reference floor for nested: its default policy is PLAIN+snappy
            # over the value stream; approximate with snappy(raw buffers)
            raw = b"".join(bytes(b) for b in col.buffers() if b is not None)
            ref_bytes = max(len(pa.Codec("snappy").compress(raw, asbytes=True)), 1)
        else:
            values = col.drop_null() if col.null_count else col
            codec, outer, stats = (
                (*plan[name], {})
                if plan and name in plan and name not in cfg.per_column_codec
                else select_codec(values, cfg, column=name)
            )
            # sha already computed above for the chunk id — don't recompute per row
            row = encode_column_chunk(
                col, codec, outer, cfg, precomputed=stats.get("full_payload"),
                sha=sha if cfg.verify_sha256 else "",
            )
            ref_bytes = row["enc_bytes"]
            if cfg.enforce_reference_floor:
                # actual reference-policy size on the full chunk: the floor
                # candidates are cheap (snappy ~GB/s, arrow dict encode is C++)
                best_ref = None
                for rcodec, router in REFERENCE_POLICY:
                    if rcodec == "dict_rle":
                        # skip the dict floor trial for high-cardinality columns;
                        # under global planning stats is {} -> measure cheaply on
                        # a slice instead of always paying a full dict encode
                        cr = stats.get("card_ratio")
                        if cr is None:
                            import pyarrow.compute as pc

                            sample = values.slice(0, min(len(values), 2048))
                            cr = pc.count_distinct(sample).as_py() / max(len(sample), 1)
                        if cr > 0.9:
                            continue
                    try:
                        # sha="" — the row's sha256 field comes from the
                        # precomputed chunk-id hash below, never from a trial
                        rrow = encode_column_chunk(col, rcodec, router, cfg, sha="")
                    except Exception:
                        continue
                    if best_ref is None or rrow["enc_bytes"] < best_ref["enc_bytes"]:
                        best_ref = rrow
                forced = name in (cfg.per_column_codec or {})
                if best_ref is not None:
                    ref_bytes = best_ref["enc_bytes"]
                    # the <=-reference guarantee applies to auto-selected and
                    # planned codecs; an explicit per-column override is
                    # honored as-is
                    if not forced and best_ref["enc_bytes"] < row["enc_bytes"]:
                        row = best_ref
        rows.append(
            dict(row, chunk_id=chunk_id, part=part, column=name, ref_bytes=ref_bytes, sha256=sha)
        )
    return pa.Table.from_pylist(rows, schema=CHUNK_SCHEMA)


class ChunkDecoder:
    """Row-wise chunk decode -> verification rows (sha match, sizes).

    Each chunk-table row is independently decodable, so verification needs no
    grouping/shuffle at all."""

    def __init__(self, recompute_sha: bool = True):
        self.recompute_sha = recompute_sha

    def __call__(self, batch: pa.Table) -> pa.Table:
        ok = []
        for i in range(batch.num_rows):
            blob = batch["blob"][i].as_py()
            arr = decode_column_chunk(blob)
            good = len(arr) == batch["rows"][i].as_py()
            if self.recompute_sha:
                good = good and column_sha256(arr) == batch["sha256"][i].as_py()
            ok.append(good)
        return pa.table(
            {
                "chunk_id": batch["chunk_id"],
                "column": batch["column"],
                "codec": batch["codec"],
                "rows": batch["rows"],
                "raw_bytes": batch["raw_bytes"],
                "enc_bytes": batch["enc_bytes"],
                "ok": pa.array(ok, pa.bool_()),
            }
        )


def reassemble_chunk(group: pa.Table) -> pa.Table:
    """chunk-table rows of ONE chunk_id -> the original columns.

    A chunk id hashes the column sha256s, so equal chunks (duplicate rows,
    in one part or in several) share it: a group holding every column row
    m times decodes each column once and repeats the chunk m times."""
    names = group["column"].to_pylist()
    copies = collections.Counter(names)
    if len(set(copies.values())) > 1:
        raise ValueError(
            f"chunk rows not co-located within blocks (column row counts {copies}); "
            "read chunk tables with one block per file"
        )
    cols = {}
    for i, name in enumerate(names):
        if name not in cols:
            cols[name] = decode_column_chunk(group["blob"][i].as_py())
    t = pa.table(cols)
    return pa.concat_tables([t] * copies[names[0]]) if names else t


def reassemble_blocks(batch: pa.Table) -> pa.Table:
    """Within-block reassembly: encode_table emits every column row of a
    chunk in the same block, so regrouping needs NO shuffle — split the batch
    into chunk_id runs and reassemble each (pass batch_size=None so blocks
    arrive whole)."""
    import numpy as np

    if batch.num_rows == 0:
        return pa.table({})
    ids = batch["chunk_id"].to_numpy(zero_copy_only=False)
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    bounds = np.flatnonzero(sorted_ids[1:] != sorted_ids[:-1]) + 1
    parts = []
    colsets = set()
    for run in np.split(order, bounds):
        t = reassemble_chunk(batch.take(pa.array(run, pa.int64())))
        colsets.add(tuple(sorted(t.column_names)))
        parts.append(t)
    if len(colsets) > 1:
        # a chunk's column rows were split across blocks — reassembling the
        # fragments would silently union mismatched schemas
        raise ValueError(
            f"chunk rows not co-located within blocks (saw column sets {colsets}); "
            "read chunk tables with one block per file"
        )
    return pa.concat_tables(parts)
