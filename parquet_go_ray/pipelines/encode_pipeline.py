"""The flagship pipeline: Parquet source-code table -> encoded column chunks.

Ray-Data shape — map-only, no hash exchange, the input read once:

    read_parquet(columns=needed)
      -> repartition(num_parts).materialize()
           [split: contiguous, equal row counts; runs when called]
      -> _plan_codecs on the split's leading plan_sample_rows rows
           [driver; the blocks are fetched, the input is not read again]
      -> map_batches(encode_partition, batch_size=None)
           [lazy; one task per fragment, the tasks run concurrently]
           - local sort by (repo, path)  (helps DELTA_BYTE_ARRAY/dicts;
             local pc.sort_indices, never a global sort)
           - part id = digest of (fragment index, sorted rows); a part
             already on disk returns at once (resume)
           - slice into ~batch_size_rows chunks
           - encode columns with the pre-planned codecs
           - publish chunks.parquet, then the lineage.json marker
      -> small metrics rows only (blobs never return to the driver)

The split repartition gives every fragment the same rows and the same
index whatever the input's block layout (order is preserved), so a part id
is stable across resume attempts; only `num_parts` persists in
`_plan.json`.  A salted hash exchange bought no compression
here: the in-fragment sort re-clusters repos as well as a repo-keyed
shuffle does (7.196 vs 7.198 on a 100k-row corpus, 16 parts).

The no-partition variant (`encode_dataset`) maps batches straight through
`encode_table` — used for round-trip correctness queries where
partitioning is irrelevant.
"""

from __future__ import annotations

import functools
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from ..sources.io import read_parquet_any as _read_parquet_any

from ..config import DEFAULT, EngineConfig, cluster_cpus
from ..stages.encode import encode_table
from ..state import lineage as lin


def _plan_codecs(sample: pa.Table, cfg: EngineConfig) -> dict:
    """Plan codecs ONCE on a sample, in the calling process; returns
    {column: (codec, outer)} for `encode_table(plan=...)`.

    `encode_partitioned` passes the leading `cfg.plan_sample_rows` rows of
    its materialized split (`_leading_rows`): the split keeps input order, so
    these are the input's first rows on every run.  A load-dependent sample
    could flip near-tied codec choices between runs (observed: content zstd7
    vs zstd9, a 3% output-size swing on identical input).

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
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if (
            pa.types.is_list(col.type)
            or pa.types.is_large_list(col.type)
            or pa.types.is_struct(col.type)
            or pa.types.is_map(col.type)
        ):
            continue  # nested columns keep per-chunk selection
        values = col.drop_null() if col.null_count else col
        codec, outer, _ = select_codec(values, cfg, column=name)
        plan[name] = (codec, outer)
    return plan


def _leading_rows(blocks: list, n: int) -> pa.Table:
    """The first `n` rows of `blocks`, a materialized dataset's
    (ref, metadata) pairs in order; empty blocks are never fetched, and no
    blocks give a table with no columns."""
    import ray as _ray
    from ray.data.block import BlockAccessor

    refs, rows = [], 0
    for ref, meta in blocks:
        if rows >= n:
            break
        if meta.num_rows:
            refs.append(ref)
            rows += meta.num_rows
    tables = [BlockAccessor.for_block(b).to_arrow() for b in _ray.get(refs)]
    return pa.concat_tables(tables).slice(0, n) if tables else pa.table({})


def _part_id(fragment: pa.Table) -> int:
    """Non-negative 63-bit part id from the fragment's POSITION and CONTENT.

    Position is the map task's index: the split emits its non-empty
    fragments first and in input order (empty ones, when rows < num_parts,
    go last and never reach the UDF), so the index depends only on the row
    count and num_parts.  It keeps identical fragments apart — a table of
    two equal halves, a constant column.  Content is the sha1 of the
    fragment's Arrow IPC serialization, as write_par1_dataset names its
    parts: a resume over changed input re-encodes a fragment instead of
    skipping it."""
    import hashlib

    from ray.data._internal.execution.interfaces import TaskContext

    from .native_io import _ipc_content_tag

    ordinal = TaskContext.get_current().task_idx
    key = f"{ordinal}:{_ipc_content_tag(fragment.combine_chunks())}"
    return int(hashlib.sha1(key.encode()).hexdigest()[:16], 16) >> 1


def encode_partition(
    fragment: pa.Table, cfg: EngineConfig, out_dir: str | None, plan: dict | None = None
) -> pa.Table:
    """map_batches body: one input fragment = one output partition.

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
    part = _part_id(fragment)
    if out_dir is not None and lin.is_done(out_dir, part):
        return _METRICS_SCHEMA.empty_table()
    t0 = time.time()
    chunk_tables = []
    bs = cfg.batch_size_rows
    for lo in range(0, max(fragment.num_rows, 1), bs):
        piece = fragment.slice(lo, bs)
        if piece.num_rows == 0:
            continue
        chunk_tables.append(encode_table(piece, cfg, part=part, plan=plan))
    chunks = (
        pa.concat_tables(chunk_tables)
        if chunk_tables
        else encode_table(fragment, cfg, part=part, plan=plan).slice(0, 0)
    )
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
    if out_dir is not None:
        codecs = dict(zip(*np.unique(np.asarray(chunks["codec"]), return_counts=True))) if chunks.num_rows else {}
        lineage = dict(metrics, codecs={k: int(v) for k, v in codecs.items()})
        lin.write_partition(out_dir, part, chunks, lineage)
        return pa.Table.from_pylist([metrics], schema=_METRICS_SCHEMA)
    return chunks


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
    out_dir: str | None,
    cfg: EngineConfig = DEFAULT,
    num_parts: int | None = None,
    total_bytes: int | None = None,
    plan: dict | None = None,
) -> rd.Dataset:
    """Map-only partitioned encode with per-partition checkpoints.

    Runs the read and the split when called: `ds` is read once into
    `num_parts` materialized fragments, and a `plan` of None is planned
    here (when `cfg.plan_codecs_globally`) from the fragments' leading
    `cfg.plan_sample_rows` rows.  Returns the lazy encode dataset, one
    concurrent task per fragment: the metrics rows (blobs go to out_dir),
    or the chunk tables if out_dir is None.  `plan` is a `_plan_codecs`
    result computed ahead of time."""
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
    if out_dir is not None:
        # fragments — and so part ids — depend on num_parts, which derives
        # from live cluster CPUs + size estimates: a resume on different
        # hardware must reuse the original split, or every fragment would
        # re-encode under new ids beside the old ones.  The plan persists
        # before any partition encodes; resumes reuse it.
        existing = lin.read_plan(out_dir)
        if existing is not None:
            num_parts = int(existing["num_parts"])
        else:
            lin.write_plan(out_dir, {"num_parts": num_parts})
    # fragments are row ranges of the input ORDER, and a part id includes
    # its fragment's index: pin the order on the dataset's own captured
    # context (the global flag alone does not affect `ds`), also when `plan`
    # comes precomputed.  The split is an all-to-all barrier, so
    # materializing it loses no overlap; the plan samples its leading rows
    # instead of reading the input a second time.
    ds.context.execution_options.preserve_order = True
    split = ds.repartition(num_parts).materialize()
    blocks = [b for bundle in split.iter_internal_ref_bundles() for b in bundle.blocks]
    if plan is None:
        plan = (
            _plan_codecs(_leading_rows(blocks, cfg.plan_sample_rows), cfg)
            if cfg.plan_codecs_globally and not cfg.per_column_codec
            else {}
        )
    # Until a task finishes, Ray Data budgets each one at
    # target_max_block_size x its generator buffer (128 MB x 2 by default),
    # which in a small object store admits one encode task at a time — and
    # every fragment is one task, so the estimate is never corrected.  Bound
    # it by the largest fragment: an encode's output (metrics, or chunk
    # tables that the reference floor keeps at most plain/dict+snappy size,
    # plus per-chunk metadata the 1 MB floor covers) stays under the 1.5x of
    # it at which Ray would slice a block and split a chunk's rows.  `split`
    # holds its own copy of the context; the caller's is left alone.
    split.context.target_max_block_size = max([meta.size_bytes or 0 for _, meta in blocks] + [1 << 20])
    return split.map_batches(
        functools.partial(encode_partition, cfg=cfg, out_dir=out_dir, plan=plan),
        batch_format="pyarrow",
        batch_size=None,
        num_cpus=_task_cpus(),
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
    """Read checkpointed chunk tables back as a Dataset of chunk rows."""
    import os

    if parts is None:
        parts = sorted(lin.done_parts(out_dir))
    files = [os.path.join(lin.part_dir(out_dir, p), "chunks.parquet") for p in parts]
    # one block per file: a chunk's column rows MUST stay co-located so the
    # shuffle-free reassemble_blocks path can reunite them within-block
    return _read_parquet_any(files, override_num_blocks=max(len(files), 1))
