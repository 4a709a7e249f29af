"""Spec split-block Bloom filters in native PAR1 files (formats/bloom.py).

The reference engine has no bloom support (pruning stops at min/max stats —
SURVEY §2.3); this is a beyond-reference feature on the wire format, so the
proof is golden-vector conformance of the hand-implemented XXH64 plus
write→probe→prune behavior through the engine's own reader.
"""

import numpy as np
import pyarrow as pa
import pytest

from parquet_go_ray.formats.bloom import (
    SplitBlockBloom,
    hash_arrow_values,
    xxh64,
    xxh64_u32,
    xxh64_u64,
)
from parquet_go_ray.formats.par1 import (
    read_par1_bloom,
    read_par1_pruned,
    write_par1,
)


def test_xxh64_golden_vectors():
    # public xxHash reference vectors, seed 0
    assert xxh64(b"") == 0xEF46DB3751D8E999
    assert xxh64(b"a") == 0xD24EC4F1A98C6E5B
    assert xxh64(b"abc") == 0x44BC2CF5AD770999
    # >= 32 bytes exercises the 4-lane main loop
    assert xxh64(b"x" * 100) != xxh64(b"x" * 101)
    assert xxh64(b"hello", seed=1) != xxh64(b"hello")


def test_xxh64_vectorized_matches_scalar():
    import struct

    rng = np.random.default_rng(7)
    i64 = rng.integers(-(2**62), 2**62, 64)
    assert (
        xxh64_u64(i64)
        == np.array([xxh64(struct.pack("<q", int(x))) for x in i64], np.uint64)
    ).all()
    f64 = rng.normal(size=64)
    assert (
        xxh64_u64(f64)
        == np.array([xxh64(struct.pack("<d", float(x))) for x in f64], np.uint64)
    ).all()
    i32 = rng.integers(-(2**31), 2**31, 64).astype(np.int32)
    assert (
        xxh64_u32(i32)
        == np.array([xxh64(struct.pack("<i", int(x))) for x in i32], np.uint64)
    ).all()
    f32 = rng.normal(size=64).astype(np.float32)
    assert (
        xxh64_u32(f32)
        == np.array([xxh64(struct.pack("<f", float(x))) for x in f32], np.uint64)
    ).all()


def test_sbbf_no_false_negatives_and_fp_rate():
    rng = np.random.default_rng(3)
    present = xxh64_u64(rng.integers(0, 2**62, 5000))
    sb = SplitBlockBloom.for_ndv(5000, 0.01)
    sb.insert(present)
    assert sb.check(present).all()
    absent = xxh64_u64(rng.integers(-(2**62), 0, 50000))
    assert sb.check(absent).mean() < 0.05
    # serialization roundtrip is bit-exact
    rt = SplitBlockBloom.from_bytes(sb.to_bytes())
    assert (rt.blocks == sb.blocks).all() and rt.check(present).all()


def test_hash_arrow_values_nulls_and_strings():
    from parquet_go_ray.formats.parquet_meta import PT_BYTE_ARRAY, PT_INT64

    h = hash_arrow_values(pa.array([1, None, 2], pa.int64()), PT_INT64)
    assert len(h) == 2
    hs = hash_arrow_values(pa.array(["ab", "cd"]), PT_BYTE_ARRAY)
    assert hs[0] == xxh64(b"ab") and hs[1] == xxh64(b"cd")


@pytest.mark.parametrize("codec", ["snappy", "zstd"])
def test_write_par1_bloom_prunes_where_stats_cannot(tmp_path, codec):
    """Even-only int column: an odd probe sits inside [min, max] so chunk
    Statistics admit every row group, but the bloom rejects it — zero row
    groups read, zero pages decoded."""
    n = 8000
    t = pa.table(
        {
            "k": pa.array(np.arange(n) * 2, pa.int64()),  # evens only
            "s": pa.array([f"user_{i % 97}" for i in range(n)]),
            "x": pa.array(np.linspace(0, 1, n), pa.float64()),
        }
    )
    p = str(tmp_path / f"bloom_{codec}.parquet")
    write_par1(
        t, p, codec=codec, row_group_rows=2000, page_rows=500,
        encodings={"k": "delta_bp", "s": "dict"},
        bloom={"k": 0.01, "s": 0.005},
    )

    # pyarrow still reads the file (ignores the bloom sections)
    import pyarrow.parquet as pq

    assert pq.read_table(p).num_rows == n

    # standalone probe API
    sb = read_par1_bloom(p, 0, "k")
    assert sb is not None
    present = hash_arrow_values(pa.array(np.arange(2000) * 2), 2)
    assert sb.check(present).all()
    assert read_par1_bloom(p, 0, "x") is None  # no bloom requested for x

    # odd probe: stats overlap every rg, bloom prunes all of them
    tb, st = read_par1_pruned(p, ["k", "x"], ("k", "==", 4001))
    assert tb.num_rows == 0
    assert st["row_groups_read"] == 0 and st["pages_decoded"] == 0

    # present probe: exact row comes back
    tb2, st2 = read_par1_pruned(p, ["k", "x"], ("k", "==", 4000))
    assert tb2["k"].to_pylist() == [4000]
    assert st2["row_groups_read"] == 1

    # string bloom: absent value inside the lexicographic stats range
    tb3, st3 = read_par1_pruned(p, ["s"], ("s", "==", "user_098x"))
    assert tb3.num_rows == 0 and st3["row_groups_read"] == 0
    tb4, _ = read_par1_pruned(p, ["k"], ("s", "==", "user_42"))
    assert tb4.num_rows == t.filter(
        pa.compute.equal(t["s"], "user_42")
    ).num_rows


def test_scan_par1_column_bloom_skip(tmp_path):
    """The single-column scanner also consults the spec bloom on ==: an
    in-range absent probe decodes ZERO pages even though every page's
    min/max admits it."""
    from parquet_go_ray.formats.par1 import scan_par1_column, write_par1

    n = 6000
    t = pa.table({"k": pa.array(np.arange(n) * 2, pa.int64())})  # evens
    p = str(tmp_path / "scan_bloom.parquet")
    write_par1(t, p, codec="snappy", row_group_rows=2000, page_rows=500,
               bloom=["k"])
    tb, st = scan_par1_column(p, "k", ("==", 4001))
    assert tb.num_rows == 0
    assert st["pages_decoded"] == 0 and st["pages_total"] > 0
    tb2, st2 = scan_par1_column(p, "k", ("==", 4000))
    assert tb2["k"].to_pylist() == [4000] and st2["pages_decoded"] >= 1


def test_bloom_on_nested_leaf(tmp_path):
    """Blooms attach to dotted leaf paths of nested columns too — the
    standalone probe API loads them by leaf path."""
    from parquet_go_ray.formats.par1 import read_par1, read_par1_bloom, write_par1
    from parquet_go_ray.formats.parquet_meta import PT_BYTE_ARRAY

    n = 1000
    stats = pa.StructArray.from_arrays(
        [pa.array([f"lab{i % 17}" for i in range(n)]),
         pa.array(np.arange(n, dtype=np.int64))],
        names=["label", "ord"],
    )
    t = pa.table({"id": pa.array(np.arange(n), pa.int64()), "stats": stats})
    p = str(tmp_path / "nested_bloom.parquet")
    write_par1(t, p, codec="snappy", bloom={"stats.label": 0.01})
    assert read_par1(p).to_pydict() == t.to_pydict()
    sb = read_par1_bloom(p, 0, "stats.label")
    assert sb is not None
    present = hash_arrow_values(pa.array([f"lab{i}" for i in range(17)]), PT_BYTE_ARRAY)
    assert sb.check(present).all()
    absent = hash_arrow_values(pa.array([f"zz{i}" for i in range(200)]), PT_BYTE_ARRAY)
    assert absent is not None and sb.check(absent).mean() < 0.1
    assert read_par1_bloom(p, 0, "id") is None


def test_write_par1_bloom_engine_roundtrip_full(tmp_path):
    """A bloom-carrying file reads back value-identical through read_par1
    (bloom sections must not disturb data/index layout), and CRC
    verification still passes."""
    from parquet_go_ray.formats.par1 import read_par1

    n = 3000
    t = pa.table(
        {
            "a": pa.array(np.arange(n), pa.int64()),
            "b": pa.array([None if i % 11 == 0 else f"v{i % 29}" for i in range(n)]),
        }
    )
    p = str(tmp_path / "bloom_rt.parquet")
    write_par1(t, p, codec="snappy", row_group_rows=1000, page_rows=250,
               bloom=["a", "b"])
    back = read_par1(p, verify_crc=True)
    assert back.to_pydict() == t.to_pydict()


def test_bloom_signed_zero_and_vectorized_bytes():
    import numpy as np
    import pyarrow as pa

    from parquet_go_ray.formats.bloom import (
        SplitBlockBloom, hash_arrow_values, hash_plain_scalar, xxh64,
        xxh64_bytes,
    )
    from parquet_go_ray.formats.parquet_meta import PT_DOUBLE

    # -0.0 inserted, +0.0 probed: must NOT false-negative (SQL -0.0 == 0.0)
    sb = SplitBlockBloom(64)
    sb.insert(hash_arrow_values(pa.array([-0.0, 1.5], pa.float64()), PT_DOUBLE))
    assert sb.check(np.array([hash_plain_scalar(0.0, PT_DOUBLE)], dtype=np.uint64))[0]
    # vectorized variable-length path is bit-identical to the scalar spec
    rng = np.random.default_rng(11)
    vals = [rng.integers(0, 256, size=int(n)).astype(np.uint8).tobytes()
            for n in rng.integers(0, 90, size=300)]
    got = xxh64_bytes(pa.array(vals, pa.binary()))
    want = np.array([xxh64(v) for v in vals], dtype=np.uint64)
    assert (got == want).all()
    # fixed-width (FLBA) values take the same kernel, sliced arrays too
    from parquet_go_ray.formats.parquet_meta import PT_FLBA

    for w in (1, 4, 12, 33, 70):
        fixed = [bytes(rng.integers(0, 256, w, dtype=np.uint8)) for _ in range(40)]
        got = hash_arrow_values(pa.array(fixed, pa.binary(w)).slice(3), PT_FLBA)
        assert (got == np.array([xxh64(v) for v in fixed[3:]], dtype=np.uint64)).all()
