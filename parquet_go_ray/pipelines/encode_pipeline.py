"""The flagship pipeline: Parquet source-code table -> encoded column chunks.

Ray-Data shape — map-only, no hash exchange, the input read once:

    src = parquet_source(ds) or block_source(ds)   [when called]
      - an untransformed read_parquet_any read: its files, listed from the
        footers; nothing is read yet
      - any other dataset: materialized once, in order; block k counts as
        file k with one row group
      -> fragments: the row ranges Ray's split repartition into num_parts
         blocks cuts (contiguous, equal row counts, input order;
         `_split_ranges`), as (file, row groups, row slice) pieces of the
         source
      -> _plan_codecs on the source's leading plan_sample_rows rows [driver]
      -> native_io._run_in_slots over the non-empty fragments
           [lazy; fragments packed into CPU-slot tasks by their bytes, each
            task reserving _task_cpus(); per fragment:]
           - read its pieces (`src.read`)
           - local sort by (repo, path)  (helps DELTA_BYTE_ARRAY/dicts;
             local pc.sort_indices, never a global sort)
           - part id = digest of (fragment index, sorted rows); a part
             already on disk returns at once (resume)
           - slice into ~batch_size_rows chunks
           - encode columns with the pre-planned codecs
           - publish chunks.parquet, then the lineage.json marker
      -> small metrics rows only (blobs never return to the driver)

The cut gives every fragment the same rows and the same index whatever
the input's block layout or files, so a part id is stable across resume
attempts, whatever task a fragment runs in; only `num_parts` persists in
`_plan.json`.  Fragments are independent (all codec state is chunk-local),
so a task may encode any of them.  A salted hash exchange bought no
compression here: the in-fragment sort re-clusters repos as well as a
repo-keyed shuffle does (7.196 vs 7.198 on a 100k-row corpus, 16 parts).

The no-partition variant (`encode_dataset`) maps batches straight through
`encode_table` — the in-memory encode, used for round-trip correctness
queries where partitioning is irrelevant.
"""

from __future__ import annotations

import functools
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data as rd

from ..sources.io import block_source, parquet_source, resolve_filesystem, row_range

from ..chunk import _is_nested
from ..config import DEFAULT, EngineConfig, cluster_cpus
from ..stages.encode import CHUNK_SCHEMA, encode_table
from ..state import lineage as lin
from . import native_io


def _plan_codecs(sample: pa.Table, cfg: EngineConfig) -> dict:
    """Plan codecs ONCE on a sample, in the calling process; returns
    {column: (codec, outer)} for `encode_table(plan=...)`.

    `encode_partitioned` passes the input's leading `cfg.plan_sample_rows`
    rows (read through its source, in input order), the same rows on every
    run.  A load-dependent sample could flip near-tied codec choices
    between runs (observed: content zstd7 vs zstd9, a 3% output-size swing
    on identical input).

    Per-chunk trial encoding is numpy-allocation-heavy and anti-scales on
    memory-bound hosts; a single plan keeps per-task work dominated by the C
    kernels (memcpy/zstd/snappy/sha), which parallelize.  The per-chunk
    reference-policy floor still guards mispredictions (chunks where the
    planned codec loses fall back to plain/dict+snappy)."""
    from ..selector import select_codec

    if {"repo", "path"} <= set(sample.column_names):
        # partitions are sorted before encoding — plan on sorted data so
        # order-sensitive codecs (delta_ba, rle) see realistic stats
        sample = sample.take(
            pc.sort_indices(
                sample.select(["repo", "path"]),
                sort_keys=[("repo", "ascending"), ("path", "ascending")],
            )
        )
    plan = {}
    for name in sample.column_names:
        col = sample[name]
        # the sorted sample's columns are one chunk each: take it as is
        col = col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
        if _is_nested(col.type):
            continue  # nested columns keep per-chunk selection
        values = col.drop_null() if col.null_count else col
        codec, outer, _ = select_codec(values, cfg, column=name)
        plan[name] = (codec, outer)
    return plan


def _split_ranges(rows: int, num_parts: int) -> list[tuple[int, int]]:
    """The row ranges of the non-empty fragments, in order, that Ray's
    split repartition into `num_parts` blocks cuts from `rows` rows: it
    ends fragment j at ``int(cur)`` after ``cur += rows / num_parts`` j + 1
    times (the last ends at `rows`)."""
    cuts, cur = [0], 0
    for _ in range(num_parts - 1):
        cur += rows / num_parts
        cuts.append(int(cur))
    cuts.append(rows)
    return [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi > lo]


def _part_id(index: int, fragment: pa.Table) -> int:
    """Non-negative 63-bit part id from the fragment's POSITION and CONTENT.

    Position is `index`, the fragment's place among the non-empty fragments
    `_split_ranges` lists (Ray's split emits them first and in input order,
    empty ones last when rows < num_parts), so the index depends only on
    the row count and num_parts, not on the task that encodes the
    fragment.  It keeps identical fragments apart — a
    table of two equal halves, a constant column.  Content is the sha1 of the fragment's Arrow IPC
    serialization, as write_par1_dataset names its parts: a resume over
    changed input re-encodes a fragment instead of skipping it."""
    import hashlib

    key = f"{index}:{native_io._ipc_content_tag(fragment)}"
    return int(hashlib.sha1(key.encode()).hexdigest()[:16], 16) >> 1


def encode_partition(
    fragment: pa.Table, index: int, cfg: EngineConfig, out_dir: str, plan: dict | None = None
) -> pa.Table:
    """One input fragment (the `index`-th of the cut) = one output
    partition under `out_dir`; returns its metrics row (empty when the part
    is already on disk).

    Deliberately a plain FUNCTION, not an actor: all dictionary/FSST state is
    chunk-local (SURVEY §7.3), so the stage is stateless and runs on Ray's
    persistent task workers — no per-execution actor cold-start (measured:
    30 actors importing numpy/pyarrow inside the timed window inverted the
    8->32 CPU scaling curve)."""
    if {"repo", "path"} <= set(fragment.column_names):
        # sort by (repo, path) to help delta_ba
        idx = pc.sort_indices(
            fragment.select(["repo", "path"]),
            sort_keys=[("repo", "ascending"), ("path", "ascending")],
        )
        fragment = fragment.take(idx)
    part = _part_id(index, fragment)
    if lin.is_done(out_dir, part):
        return _METRICS_SCHEMA.empty_table()
    t0 = time.time()
    bs = cfg.batch_size_rows
    chunk_tables = [
        encode_table(fragment.slice(lo, bs), cfg, part=part, plan=plan)
        for lo in range(0, fragment.num_rows, bs)
    ]
    chunks = pa.concat_tables(chunk_tables)
    wall = time.time() - t0
    metrics = {
        "part": part,
        "rows": int(fragment.num_rows),
        "raw_bytes": int(sum(chunks["raw_bytes"].to_pylist())),
        "enc_bytes": int(sum(chunks["enc_bytes"].to_pylist())),
        "ref_bytes": int(sum(chunks["ref_bytes"].to_pylist())),
        "chunks": len(chunk_tables),
        "encode_sec": round(wall, 4),
    }
    codecs = dict(zip(*np.unique(np.asarray(chunks["codec"]), return_counts=True))) if chunks.num_rows else {}
    # the marker holds only what the input and code decide, so a rerun
    # writes the same bytes; the wall time goes in the metrics row
    lineage = {k: v for k, v in metrics.items() if k != "encode_sec"}
    lineage["codecs"] = {k: int(v) for k, v in codecs.items()}
    lin.write_partition(out_dir, part, chunks, lineage)
    return pa.Table.from_pylist([metrics], schema=_METRICS_SCHEMA)


# encode tasks are memory-bandwidth-heavy: reserving >1 CPU keeps schedulers
# from oversubscribing the memory bus
_CPUS_PER_ENCODE_TASK = 4


def _task_cpus() -> int:
    """Per-encode-task CPU reservation: `_CPUS_PER_ENCODE_TASK`, capped
    at half the cluster so at least two encode slots run concurrently (a
    fixed num_cpus=4 once left an 8-CPU session a single slot and
    serialized the whole encode).  The deliberate under-subscription — more
    reserved CPUs than the single-threaded task uses — protects the memory
    bus on large hosts: 8 concurrent encoders at 32 CPUs."""
    # A/B at 32 CPUs after threaded outer compression landed (slices fill
    # the reservation): 8 slots 9.0/11.0 s vs 6 slots 9.7/10.5 s — a wash
    # inside host noise.
    return max(1, min(_CPUS_PER_ENCODE_TASK, cluster_cpus() // 2))


def encode_dataset(ds: rd.Dataset, cfg: EngineConfig = DEFAULT, plan: dict | None = None) -> rd.Dataset:
    """No-partition encode: each Ray block batch -> one chunk set (stateless
    task pool; chunk-local codec state needs no actors)."""
    return ds.map_batches(
        functools.partial(encode_table, cfg=cfg, plan=plan),
        batch_format="pyarrow",
        batch_size=cfg.batch_size_rows,
        num_cpus=_task_cpus(),
    )


def encode_partitioned(
    ds: rd.Dataset,
    out_dir: str,
    cfg: EngineConfig = DEFAULT,
    num_parts: int | None = None,
    total_bytes: int | None = None,
    plan: dict | None = None,
) -> rd.Dataset:
    """Map-only partitioned encode into `out_dir`, with per-partition
    checkpoints.

    Cuts ``parquet_source(ds) or block_source(ds)`` into `num_parts`
    fragments of consecutive rows when called (`_split_ranges`: the rows
    Ray's split repartition cuts), and a `plan` of None is planned here
    (unless `cfg.per_column_codec` is set) from the input's leading
    `cfg.plan_sample_rows` rows.  An untransformed ``read_parquet_any``
    read is cut from its footers and never materialized; any other `ds` is
    materialized once, in order (the caller's context is restored).
    Returns the lazy encode dataset of metrics rows (blobs go to out_dir):
    the non-empty fragments packed into ``native_io._run_in_slots`` tasks
    of `_task_cpus()` CPUs each, every task reading its own fragments.
    `plan` is a `_plan_codecs` result computed ahead of time."""
    if num_parts is None:
        if cfg.partitions:
            num_parts = cfg.partitions
        else:
            ncpu = cluster_cpus()
            if total_bytes is None:
                total_bytes = ds.size_bytes() or (64 << 20)
            # enough partitions to cap chunk memory AND keep every core busy,
            # but not so many that per-chunk selector overhead dominates
            by_size = int(total_bytes // cfg.target_chunk_bytes)
            by_cpu = min(2 * ncpu, int(total_bytes // (8 << 20)))
            num_parts = max(1, by_size, by_cpu)
    # fragments — and so part ids — depend on num_parts, which derives from
    # live cluster CPUs + size estimates: a resume on different hardware
    # must reuse the original split, or every fragment would re-encode under
    # new ids beside the old ones.  The plan persists before any partition
    # encodes; resumes reuse it.
    existing = lin.read_plan(out_dir)
    if existing is not None:
        num_parts = int(existing["num_parts"])
    else:
        lin.write_plan(out_dir, {"num_parts": num_parts})
    src = parquet_source(ds) or block_source(ds)
    groups = src.row_groups()
    rows = sum(r for _k, _g, r, _b in groups)
    ranges = _split_ranges(rows, num_parts)
    # sized by their rows' share of the input's uncompressed bytes
    row_bytes = sum(b for _k, _g, _r, b in groups) / max(rows, 1)
    if plan is None:
        sample = row_range(groups, 0, cfg.plan_sample_rows)
        plan = {} if cfg.per_column_codec else _plan_codecs(src.read(sample) if rows else pa.table({}), cfg)
    return native_io._run_in_slots(
        [row_range(groups, lo, hi) for lo, hi in ranges],
        [int((hi - lo) * row_bytes) for lo, hi in ranges],
        lambda i, piece: encode_partition(src.read(piece), i, cfg, out_dir, plan),
        _METRICS_SCHEMA.empty_table(),
        task_cpus=_task_cpus(),
    )


_METRICS_SCHEMA = pa.schema(
    [
        ("part", pa.int64()),
        ("rows", pa.int64()),
        ("raw_bytes", pa.int64()),
        ("enc_bytes", pa.int64()),
        ("ref_bytes", pa.int64()),
        ("chunks", pa.int64()),
        ("encode_sec", pa.float64()),
    ]
)


def decode_partitions(out_dir: str, parts: list[int] | None = None) -> rd.Dataset:
    """Read checkpointed chunk tables back as a Dataset of chunk rows.

    `parts` defaults to every finished part (`lin.done_parts`).  Each
    part's ``chunks.parquet``, sized from one ``native_io._ls_parquet``
    listing, is an item of ``native_io._run_in_slots``: the parts pack into
    CPU-slot tasks that read their own files with pyarrow, so every slot
    starts at once (Ray's parquet read admits one task at a time in a small
    object store).  No part is split across blocks: a chunk's column rows
    must stay co-located for the shuffle-free `reassemble_blocks`, so the
    read's own context has no block-size target, and a task's parts leave
    it as one block (a size target merges and re-slices the tables a task
    yields at 1.5x the target, cutting chunks).  No finished part gives an
    empty dataset typed as `CHUNK_SCHEMA`."""
    if parts is None:
        parts = sorted(lin.done_parts(out_dir))
    if not parts:
        return rd.from_arrow(CHUNK_SCHEMA.empty_table())
    sizes = native_io._ls_parquet(out_dir)
    files = [lin.part_dir(out_dir, p) + "/chunks.parquet" for p in parts]

    def read(i: int, path: str) -> pa.Table:
        fs, plain = resolve_filesystem(path)
        return pq.read_table(plain, filesystem=fs, partitioning=None, use_threads=False)

    ds = native_io._run_in_slots(
        files, [sizes.get(f) for f in files], read, CHUNK_SCHEMA.empty_table()
    )
    ds.context.target_max_block_size = None
    return ds
