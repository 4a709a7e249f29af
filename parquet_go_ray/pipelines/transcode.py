"""Transcode pipelines closing the reference's reader/writer loop
(reference: NewParquetWriter writer/writer.go:58-114 + NewParquetReader
reader/reader.go:41-89): standard Parquet in -> encoded chunk checkpoints ->
standard Parquet back out.  Neither direction has a hash exchange: the
encode splits the input into contiguous fragments (see encode_pipeline),
and the decode reassembles chunks within blocks."""

from __future__ import annotations

import ray.data as rd

from ..sources.io import read_parquet_any as _read_parquet_any

from ..config import DEFAULT, EngineConfig
from ..stages.encode import reassemble_blocks
from .encode_pipeline import decode_partitions, encode_partitioned


def parquet_to_chunks(src, out_dir: str, cfg: EngineConfig = DEFAULT, **kw) -> rd.Dataset:
    """read_parquet -> map-only partitioned encode -> chunk checkpoints.
    Reads and splits `src` when called; the returned encode is lazy."""
    return encode_partitioned(_read_parquet_any(src), out_dir, cfg, **kw)


def chunks_to_parquet(chunk_dir: str, dest: str, min_rows_per_file: int = 100_000) -> None:
    """Decode chunk checkpoints back to standard Parquet (a directory of
    part files — the resumable-output layout)."""
    ds = decode_partitions(chunk_dir)
    # no shuffle: chunk rows are co-located per block by construction
    tables = ds.map_batches(reassemble_blocks, batch_format="pyarrow", batch_size=None)
    tables.write_parquet(dest, min_rows_per_file=min_rows_per_file)
