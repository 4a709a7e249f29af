"""Chunk container + selector unit tests (no Ray needed)."""

import datetime

import numpy as np
import pyarrow as pa
import pytest

from parquet_go_ray.chunk import column_sha256, decode_column_chunk, encode_column_chunk
from parquet_go_ray.config import EngineConfig
from parquet_go_ray.selector import select_codec

CASES = [
    pa.array([1, 2, None, 4], type=pa.int64()),
    pa.array(["a", None, "ccc", ""]),
    pa.array([None] * 5, type=pa.string()),
    pa.array([], type=pa.int32()),
    pa.array(np.random.default_rng(0).normal(size=100)),
    pa.array([True, None, False]),
    pa.array(
        [datetime.datetime(2020, 1, 1), None, datetime.datetime(2021, 6, 5)],
        type=pa.timestamp("us"),
    ),
    pa.array([datetime.date(2020, 1, 1), datetime.date(1999, 12, 31)]),
    pa.array([b"xy", None, b"z" * 50], type=pa.binary()),
]


@pytest.mark.parametrize("i", range(len(CASES)))
@pytest.mark.parametrize("outer", ["none", "snappy", "zstd"])
def test_chunk_roundtrip(i, outer):
    arr = CASES[i]
    row = encode_column_chunk(arr, "plain", outer=outer)
    out = decode_column_chunk(row["blob"])
    assert out.equals(arr)
    assert column_sha256(out) == column_sha256(arr)


def test_chunk_roundtrip_all_codecs_ints():
    arr = pa.array([5, 5, 5, None, 9, 1, 1, None, 3], type=pa.int64())
    for codec in ["plain", "rle_bp", "delta_bp", "dict_rle"]:
        row = encode_column_chunk(arr, codec, outer="zstd")
        assert decode_column_chunk(row["blob"]).equals(arr)


def test_sliced_array_roundtrip():
    base = pa.array(list(range(100)), type=pa.int64())
    arr = base.slice(10, 50)
    row = encode_column_chunk(arr, "delta_bp")
    assert decode_column_chunk(row["blob"]).equals(arr)


def test_selector_picks_sensibly():
    # strict-size mode: tolerance off so the min-size codec wins outright
    cfg = EngineConfig(size_tolerance=1.0)
    # constant column -> rle or dict beats plain
    codec, outer, _ = select_codec(pa.array([7] * 10000, type=pa.int64()), cfg)
    assert codec in ("rle_bp", "dict_rle")
    # sorted ints -> delta
    codec, _, _ = select_codec(pa.array(np.arange(10000) * 3 + 7), cfg)
    assert codec in ("delta_bp", "rle_bp")
    # low-cardinality strings -> dict (or delta_length+zstd, which the
    # trial-encode can legitimately find smaller on periodic data)
    codec, _, _ = select_codec(pa.array(["en", "de", "fr"] * 3000), cfg)
    assert codec in ("dict_rle", "delta_length_ba", "rle_bp", "plain")
    # low-cardinality long strings without outer compression -> dict wins
    cfg_noouter = EngineConfig(outer_codecs=("none",))
    codec, _, _ = select_codec(
        pa.array([f"value-{i % 7:040d}" for i in range(5000)]), cfg_noouter
    )
    assert codec == "dict_rle"
    # random floats: plain or bss
    codec, _, _ = select_codec(
        pa.array(np.random.default_rng(1).normal(size=8000)), cfg
    )
    assert codec in ("plain", "byte_stream_split")


def test_selector_override():
    cfg = EngineConfig(per_column_codec={"x": ("delta_bp", "zstd")})
    codec, outer, _ = select_codec(pa.array([1, 2, 3]), cfg, column="x")
    assert (codec, outer) == ("delta_bp", "zstd")


def test_reference_floor():
    """enforce_reference_floor guarantees enc_bytes <= reference policy size."""
    from parquet_go_ray.stages.encode import encode_table

    rng = np.random.default_rng(5)
    t = pa.table(
        {
            "a": pa.array(rng.integers(0, 10, 5000)),
            "s": pa.array([f"val{int(i)}" for i in rng.integers(0, 50, 5000)]),
        }
    )
    chunks = encode_table(t, EngineConfig())
    enc = chunks["enc_bytes"].to_pylist()
    ref = chunks["ref_bytes"].to_pylist()
    assert all(e <= r for e, r in zip(enc, ref)), (enc, ref)


def test_list_chunk_roundtrip():
    from parquet_go_ray.chunk import encode_list_chunk

    cases = [
        pa.array([[1, 2, 3], [], None, [4]], type=pa.list_(pa.int64())),
        pa.array([[None, 1], [2]], type=pa.list_(pa.int64())),
        pa.array([[["a"], ["b", "c"]], None], type=pa.list_(pa.list_(pa.string()))),
        pa.array([[], []], type=pa.large_list(pa.string())),
    ]
    for arr in cases:
        row = encode_list_chunk(arr)
        out = decode_column_chunk(row["blob"])
        assert out.equals(arr)
        assert column_sha256(out) == column_sha256(arr)


def test_embeddings_table_bit_identity():
    import pyarrow.parquet as pq

    from parquet_go_ray.stages.encode import encode_table, reassemble_chunk

    t = pq.read_table("/root/testdata/sf0.001/embeddings.parquet")
    out = reassemble_chunk(encode_table(t))
    for c in t.column_names:
        got = out[c].combine_chunks() if hasattr(out[c], "combine_chunks") else out[c]
        assert got.equals(t[c].combine_chunks()), c


def test_decimal_roundtrip():
    from decimal import Decimal

    arr = pa.array(
        [Decimal("12.34"), None, Decimal("-99999999.99")], type=pa.decimal128(10, 2)
    )
    for codec in ["plain", "dict_rle"]:
        row = encode_column_chunk(arr, codec, outer="zstd")
        out = decode_column_chunk(row["blob"])
        assert out.equals(arr)
        assert column_sha256(out) == column_sha256(arr)


def test_codec_selection_deterministic():
    """Static cost model: selection is a pure function of the data — the
    same column must produce the same (codec, outer) on every call (a
    measured-cost model flipped near-tied choices with host
    memory-bandwidth phase)."""
    import numpy as np

    from parquet_go_ray.config import EngineConfig

    rng = np.random.default_rng(11)
    cols = {
        "text": pa.array(
            ["".join(map(chr, rng.integers(97, 123, 800))) for _ in range(400)]
        ),
        "ids": pa.array(np.cumsum(rng.integers(0, 9, 20000)).astype(np.int64)),
        "lowcard": pa.array((rng.integers(0, 5, 20000)).astype(np.int32)),
        "floats": pa.array(rng.normal(size=20000)),
    }
    cfg = EngineConfig()
    for name, arr in cols.items():
        first = select_codec(arr, cfg)[:2]
        for _ in range(3):
            assert select_codec(arr, cfg)[:2] == first, name


def test_bloom_trailing_empty_and_uint64():
    """Regression: a trailing empty string corrupted the LAST non-empty
    value's hash (reduceat clamp split its byte range) -> false-negative
    pruning; uint64 >= 2^63 crashed the safe int64 cast."""
    import numpy as np
    import pyarrow as pa

    from parquet_go_ray.chunk import _bloom_build, bloom_may_contain

    bloom = _bloom_build(pa.array(["ab", ""]), 10)
    assert bloom_may_contain(bloom, "ab", pa.string())
    bloom2 = _bloom_build(pa.array(["hello", "x", "", ""]), 10)
    assert bloom_may_contain(bloom2, "hello", pa.string())
    big = 2**63 + 5
    bloom3 = _bloom_build(pa.array([big, 7], pa.uint64()), 10)
    assert bloom_may_contain(bloom3, big, pa.uint64())


def test_dictionary_typed_input_roundtrips():
    """Dictionary-typed arrays decode at entry: the old path recorded meta
    type 'dictionary<...>' which had no alias, leaving blobs unreadable."""
    import pyarrow as pa

    from parquet_go_ray.chunk import (
        decode_column_chunk, encode_any_chunk, encode_column_chunk,
    )

    arr = pa.array(["a", "b", "a", "c", None]).dictionary_encode()
    for row in (encode_any_chunk(arr), encode_column_chunk(arr, "plain")):
        out = decode_column_chunk(row["blob"])
        assert out.to_pylist() == ["a", "b", "a", "c", None]
        assert out.type == pa.string()


def test_sliced_outer_compress_multiframe_roundtrip():
    """Payloads >= 2x _SLICE_TARGET compress as concatenated zstd frames on
    a thread pool; the result must be one standard zstd stream (decode path
    unchanged) and byte-identical regardless of the caller's thread budget."""
    from parquet_go_ray import chunk as chunk_mod

    rng = np.random.default_rng(7)
    # ~9 MB of low-entropy bytes: crosses the 8 MB slicing threshold fast
    body = bytes(rng.integers(97, 105, size=9 << 20, dtype=np.uint8))
    out = chunk_mod._outer_compress(body, "zstd9", 3)
    n_slices = -(-len(body) // chunk_mod._SLICE_TARGET)
    assert n_slices >= 2
    # single-worker pool must produce the same bytes (slice boundaries are a
    # function of len(body) only)
    serial = b"".join(
        chunk_mod._codec("zstd", 9).compress(
            memoryview(body)[lo : lo + -(-len(body) // n_slices)], asbytes=True
        )
        for lo in range(0, len(body), -(-len(body) // n_slices))
    )
    assert out == serial
    assert chunk_mod._outer_decompress(out, "zstd9", len(body)) == body


def test_sliced_outer_compress_column_chunk_roundtrip():
    """End-to-end: a column chunk big enough to slice round-trips bit-exact."""
    vals = pa.array(
        [f"line {i % 977}: the quick brown fox {i % 31}\n" * 8 for i in range(70000)]
    )
    assert vals.nbytes >= 16 << 20
    row = encode_column_chunk(vals, "delta_length_ba", outer="zstd9")
    back = decode_column_chunk(row["blob"])
    assert back.equals(vals)
