"""Pruned scan: chunks whose min/max exclude the predicate are never decoded
(SkipRows / ColumnIndex analog)."""

import numpy as np
import pyarrow as pa

from parquet_go_ray.config import EngineConfig
from parquet_go_ray.formats.par1 import _normalize_predicate
from parquet_go_ray.pipelines.scan import _chunk_may_match, chunk_meta, count_pruned, scan_column
from parquet_go_ray.stages.encode import encode_table


def _clause(op, value):
    """One scan clause as scan_column normalizes it (str -> UTF-8 bytes)."""
    ((_col, op, value),) = _normalize_predicate(("c", op, value))[0]
    return op, value


def _chunks_ds(ray_session, tmp_path):
    import ray.data as rd

    tables = []
    for lo in range(0, 100, 10):  # 10 chunks with disjoint ranges
        t = pa.table({"v": pa.array(np.arange(lo * 1000, lo * 1000 + 1000))})
        tables.append(encode_table(t, EngineConfig()))
    return rd.from_arrow(pa.concat_tables(tables))


def test_scan_prunes_and_filters(ray_session, tmp_path):
    chunks = _chunks_ds(ray_session, tmp_path)
    stats = count_pruned(chunks, "v", (">=", 85_000))
    assert stats["pruned"] >= 8, stats
    out = scan_column(chunks, "v", predicate=(">=", 85_000)).to_pandas()
    expected = np.concatenate([np.arange(lo * 1000, lo * 1000 + 1000) for lo in range(0, 100, 10)])
    expected = expected[expected >= 85_000]
    assert sorted(out["v"]) == sorted(expected)


def test_chunk_meta_no_decode():
    t = pa.table({"v": pa.array([5, 7, 9])})
    chunks = encode_table(t, EngineConfig())
    meta = chunk_meta(chunks["blob"][0].as_py())
    assert float(meta["min"]) == 5 and float(meta["max"]) == 9
    assert _chunk_may_match(meta, "==", 7)
    assert not _chunk_may_match(meta, ">", 9)
    assert _chunk_may_match(meta, "<=", 5)


def test_truncated_max_never_prunes():
    t = pa.table({"s": pa.array(["a" * 100, "b" * 100])})
    chunks = encode_table(t, EngineConfig())
    from parquet_go_ray.pipelines.scan import chunk_meta

    meta = chunk_meta(chunks["blob"][0].as_py())
    assert meta.get("max_trunc") is True
    # upper-bound predicate beyond the truncated max must NOT prune
    assert _chunk_may_match(meta, *_clause(">=", "b" * 100))
    # lower-bound checks with truncated min stay safe (more permissive)
    assert _chunk_may_match(meta, *_clause("<=", "b" * 100))
    # and pruning where truly no value can match is still allowed
    assert not _chunk_may_match(meta, *_clause("<", "a"))


def test_skip_read_row_ranges(ray_session, tmp_path):
    """skip_read returns exactly rows [offset, offset+count) in chunk order,
    decoding only overlapping chunks (whole skipped chunks stay compressed)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from parquet_go_ray.config import EngineConfig
    from parquet_go_ray.pipelines.encode_pipeline import encode_dataset
    from parquet_go_ray.pipelines.scan import skip_read

    from parquet_go_ray.chunk import decode_column_chunk

    n = 10_000
    vals = pa.table({"v": pa.array(range(n), pa.int64())})
    f = tmp_path / "t.parquet"
    pq.write_table(vals, f)
    ds = rd.read_parquet(str(f))
    chunks = encode_dataset(ds, EngineConfig(batch_size_rows=1024)).materialize()
    # the contract: skip_read(off, cnt) == full decode in the SAME dataset
    # chunk order, sliced — a materialized dataset's order is baked, so the
    # reference sequence is built by walking it identically
    full = []
    for b in chunks.iter_batches(batch_format="pyarrow"):
        for i in range(b.num_rows):
            full.extend(decode_column_chunk(b["blob"][i].as_py()).to_pylist())
    for off, cnt in [(0, 5), (1024, 10), (5000, 2048), (9995, 100), (0, n)]:
        out = skip_read(chunks, "v", off, cnt)
        assert out["v"].to_pylist() == full[off : off + cnt], (off, cnt)
    assert skip_read(chunks, "v", n + 5, 10).num_rows == 0


def test_skip_read_forced_codecs(ray_session, tmp_path):
    """Row-range decode agrees across codec families (byte-sliced PLAIN vs
    decode+slice delta/dict paths)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from parquet_go_ray.config import EngineConfig
    from parquet_go_ray.pipelines.encode_pipeline import encode_dataset
    from parquet_go_ray.pipelines.scan import skip_read

    n = 4000
    f = tmp_path / "t.parquet"
    pq.write_table(pa.table({"v": pa.array(range(n), pa.int64())}), f)
    results = {}
    for codec in ("plain", "delta_bp", "dict_rle", "rle_bp"):
        cfg = EngineConfig(batch_size_rows=700, per_column_codec={"v": (codec, "none")})
        chunks = encode_dataset(rd.read_parquet(str(f)), cfg).materialize()
        out = skip_read(chunks, "v", 1500, 900)
        results[codec] = sorted(out["v"].to_pylist())
        assert len(results[codec]) == 900
    vals = list(results.values())
    assert all(v == vals[0] for v in vals[1:])


def test_bloom_prunes_where_stats_cannot(ray_session):
    """Unique unordered strings: every chunk's min/max spans any probe, so
    stats prune nothing; the per-chunk bloom prunes every non-holder."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from parquet_go_ray.config import EngineConfig
    from parquet_go_ray.pipelines.encode_pipeline import encode_dataset
    from parquet_go_ray.pipelines.scan import count_pruned, scan_column
    from parquet_go_ray.sources.io import read_parquet_any as rpq

    sf = "/root/testdata/sf0.001"
    t = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"])
    probe = t.filter(pc.equal(t["doc_id"], 0))["text"][0].as_py()
    cb = encode_dataset(
        rpq(f"{sf}/documents.parquet", columns=["text"]),
        EngineConfig(batch_size_rows=64, bloom_bits_per_value=10),
    ).materialize()
    cn = encode_dataset(
        rpq(f"{sf}/documents.parquet", columns=["text"]),
        EngineConfig(batch_size_rows=64),
    ).materialize()
    with_bloom = count_pruned(cb, "text", ("==", probe))
    stats_only = count_pruned(cn, "text", ("==", probe))
    assert stats_only["pruned"] == 0
    assert with_bloom["pruned"] > 0
    # correctness: same rows either way
    rows_b = scan_column(cb, "text", predicate=("==", probe)).count()
    rows_n = scan_column(cn, "text", predicate=("==", probe)).count()
    assert rows_b == rows_n >= 1


def test_bloom_no_false_negatives_int():
    """Every present value must probe positive (blooms have FPs, never FNs)."""
    import numpy as np

    from parquet_go_ray.chunk import _bloom_build, bloom_may_contain

    rng = np.random.default_rng(9)
    vals = pa.array(rng.integers(0, 1 << 40, 5000, dtype=np.int64))
    bloom = _bloom_build(vals, 10)
    for v in vals.slice(0, 200).to_pylist():
        assert bloom_may_contain(bloom, v, pa.int64())
    # absent values: false-positive rate stays near the design point (~1%)
    absent = rng.integers(1 << 41, 1 << 42, 2000, dtype=np.int64)
    fp = sum(bloom_may_contain(bloom, int(v), pa.int64()) for v in absent)
    assert fp / 2000 < 0.05


def test_scan_column_dnf_and_new_ops(ray_session):
    """Container-scan parity with the native DNF language: OR branches,
    in/!=/null ops, chunk pruning + exact re-filter."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from parquet_go_ray.config import EngineConfig
    from parquet_go_ray.pipelines.encode_pipeline import encode_dataset
    from parquet_go_ray.pipelines.scan import count_pruned, scan_column

    n = 40000
    vals = np.arange(n, dtype=np.int64)
    nulls = (vals // 1000) % 5 == 0
    t = pa.table({"v": pa.array(np.where(nulls, None, vals), pa.int64())})
    chunks = encode_dataset(
        rd.from_arrow(t), EngineConfig(batch_size_rows=2000)
    ).materialize()

    # OR of ANDs with in: exact rows
    pred = [[("<", 1500), (">=", 1200)], [("in", [30001, 30002, 999999])]]
    got = scan_column(chunks, "v", predicate=pred).to_pandas()
    expect = sorted(
        x for x in vals[~nulls] if (1200 <= x < 1500) or x in (30001, 30002)
    )
    assert sorted(got["v"]) == expect

    # chunk pruning engaged for the range branch
    st = count_pruned(chunks, "v", [("<", 1500), (">=", 1200)])
    assert st["pruned"] > st["decoded"]

    # null ops: counts match the planted null runs
    got_null = scan_column(chunks, "v", predicate=("is_null", None)).to_pandas()
    assert len(got_null) == int(nulls.sum())
    st_nn = count_pruned(chunks, "v", ("is_null", None))
    assert st_nn["pruned"] > 0  # all-valid chunks never decode

    got_nn = scan_column(
        chunks, "v", predicate=[("not_null", None), ("<", 3000)]
    ).to_pandas()
    assert sorted(got_nn["v"]) == [x for x in vals[~nulls] if x < 3000]

    # != over a constant chunk prunes it
    tc = pa.table({"v": pa.array([7] * 4000, pa.int64())})
    cchunks = encode_dataset(
        rd.from_arrow(tc), EngineConfig(batch_size_rows=2000)
    ).materialize()
    st_ne = count_pruned(cchunks, "v", ("!=", 7))
    assert st_ne["decoded"] == 0
    assert scan_column(cchunks, "v", predicate=("!=", 7)).count() == 0


def test_str_stats_never_prune_non_string_probe():
    """str()-encoded stats (e.g. a Decimal column) order differently from
    their values ('7' > '30.00'); pruning must decode, not skip."""
    from parquet_go_ray.pipelines.scan import _chunk_may_match

    meta = {"min": "10.00", "max": "30.00"}  # str()-encoded decimal stats
    from decimal import Decimal

    # non-string probe on str stats: cannot prune (must return True)
    assert _chunk_may_match(meta, *_clause("==", Decimal("25.00")))
    assert _chunk_may_match(meta, *_clause(">=", 7))
    # genuine string column with string probe still prunes
    assert not _chunk_may_match({"min": "a", "max": "c"}, *_clause("==", "x"))
    assert _chunk_may_match({"min": "a", "max": "c"}, *_clause("==", "b"))
