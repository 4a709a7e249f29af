"""Regression tests for the round-3 ADVICE findings:

1. chunk.py _decode_paged_chunk crashed (ArrowIndexError) on a row-range read
   whose selected range is entirely null in a nullable paged chunk.
2. Bloom filters were hashed with polars Series.hash (unstable across
   versions) but serialized into durable checkpoints -> now a spec-pinned
   hash (the parquet SBBF over XXH64) with a version tag; mismatched tags
   disable pruning.
3. hash_sample disagreed with its SQL oracle for negative keys.
4. The paged encode path never built a bloom, so page_rows silently disabled
   bloom pruning for exactly the large chunks where it matters.
"""

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from parquet_go_ray.chunk import (
    _BLOOM_HV,
    _bloom_build,
    bloom_may_contain,
    decode_column_chunk,
    encode_column_chunk,
)
from parquet_go_ray.config import EngineConfig
from parquet_go_ray.pipelines.scan import chunk_meta


def test_paged_read_of_entirely_null_range():
    # ADVICE repro: page_rows=1000, a 500-row all-null run, skip-read inside it
    n = 5000
    base = pa.array(np.arange(n))
    mask = np.zeros(n, bool)
    mask[2000:2500] = True  # null run
    arr = pc.if_else(pa.array(~mask), base, pa.scalar(None, type=base.type))
    cfg = EngineConfig(page_rows=1000, verify_sha256=False)
    row = encode_column_chunk(arr, "plain", "none", cfg)
    assert chunk_meta(row["blob"])["codec"] == "paged"
    # entirely inside the null run
    got = decode_column_chunk(row["blob"], row_offset=2100, row_count=300)
    assert got.equals(arr.slice(2100, 300))
    assert got.null_count == 300
    # straddling the run boundary still works
    got = decode_column_chunk(row["blob"], row_offset=1900, row_count=800)
    assert got.equals(arr.slice(1900, 800))


def test_paged_read_null_range_dict_rle():
    n = 4000
    base = pa.array([f"v{i % 7}" for i in range(n)])
    mask = np.zeros(n, bool)
    mask[1000:2000] = True
    arr = pc.if_else(pa.array(~mask), base, pa.scalar(None, type=base.type))
    cfg = EngineConfig(page_rows=500, verify_sha256=False)
    row = encode_column_chunk(arr, "dict_rle", "zstd", cfg)
    got = decode_column_chunk(row["blob"], row_offset=1200, row_count=600)
    assert got.equals(arr.slice(1200, 600))


def test_bloom_version_mismatch_disables_pruning():
    vals = pa.array([1, 2, 3], pa.int64())
    bloom = _bloom_build(vals, 10)
    assert bloom["hv"] == _BLOOM_HV
    assert not bloom_may_contain(bloom, 999_999, pa.int64())
    stale = dict(bloom, hv=_BLOOM_HV - 1)
    assert bloom_may_contain(stale, 999_999, pa.int64())  # no pruning, no FN
    legacy = {k: v for k, v in bloom.items() if k != "hv"}
    assert bloom_may_contain(legacy, 999_999, pa.int64())


def test_bloom_no_false_negatives_strings_large():
    rng = np.random.default_rng(7)
    vals = pa.array([f"doc-{v}" for v in rng.integers(0, 10**9, 5000)])
    bloom = _bloom_build(vals, 10)
    for v in vals[:200]:
        assert bloom_may_contain(bloom, v.as_py(), pa.string())
    misses = sum(
        bloom_may_contain(bloom, f"absent-{i}", pa.string()) for i in range(500)
    )
    assert misses < 50  # ~1% expected FP rate at 10 bits/value


def test_paged_chunk_builds_bloom():
    # ADVICE #4: page_rows + bloom_bits_per_value must coexist
    rng = np.random.default_rng(3)
    vals = pa.array(rng.integers(0, 10**12, 20000))
    cfg = EngineConfig(page_rows=5000, bloom_bits_per_value=10, verify_sha256=False)
    row = encode_column_chunk(vals, "plain", "zstd", cfg)
    meta = chunk_meta(row["blob"])
    assert meta["codec"] == "paged"
    assert "bloom" in meta
    present = vals[123].as_py()
    assert bloom_may_contain(meta["bloom"], present, pa.int64())
    assert not bloom_may_contain(meta["bloom"], -42, pa.int64())


def test_hash_sample_negative_keys_match_oracle(tmp_path):
    from parquet_go_ray.functions.sampling import hash_sample, hash_sample_oracle_sql

    rng = np.random.default_rng(11)
    keys = rng.integers(-(2**62), 2**62, 4000)
    keys[:10] = [-1, -2, 0, 1, -(2**62), 2**62 - 1, -12345, 12345, -7, 7]
    tbl = pa.table({"doc_id": keys, "text": [f"t{i}" for i in range(len(keys))]})
    import pyarrow.parquet as pq

    pq.write_table(tbl, tmp_path / "documents.parquet")
    got = (
        hash_sample(str(tmp_path), "documents", "doc_id", 0.3)
        .to_pandas()
        .doc_id.sort_values()
        .tolist()
    )
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')"
    )
    want = sorted(
        r[0]
        for r in con.execute(
            hash_sample_oracle_sql("documents", "doc_id", 0.3)
        ).fetchall()
    )
    assert got == want
    assert any(k < 0 for k in got)  # negative keys actually exercised
