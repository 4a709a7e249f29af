"""Seeded adversarial fuzz sweeps over the bit-level kernels — wider than the
hypothesis strategies (all bit widths, run-structured patterns, many seeds)."""

import numpy as np
import pyarrow as pa
import pytest

from parquet_go_ray.bits import (
    pack_bits,
    read_uvarint,
    unpack_bits,
    write_uvarint,
    zigzag_decode_scalar,
    zigzag_encode_scalar,
)
from parquet_go_ray.codecs.delta import delta_bp_decode_np, delta_bp_encode_np
from parquet_go_ray.codecs.rle import decode_hybrid, encode_hybrid


# ---------------------------------------------------------------------------
# Reference decoders: the per-miniblock / per-run loops the vectorized kernels
# replaced, kept as the oracle they must match value for value and in end pos.
# ---------------------------------------------------------------------------


def _ref_unpack_bits(buf, width, count, offset=0):
    if width == 0:
        return np.zeros(count, dtype=np.uint64)
    if count == 0:
        return np.empty(0, dtype=np.uint64)
    nbytes = (count * width + 7) // 8
    raw = np.frombuffer(buf, dtype=np.uint8, count=nbytes, offset=offset)
    bits = np.unpackbits(raw, bitorder="little")[: count * width]
    shifts = np.arange(width, dtype=np.uint64)
    return ((bits.reshape(count, width).astype(np.uint64)) << shifts).sum(
        axis=1, dtype=np.uint64
    )


def _ref_delta_bp_decode(buf, pos=0):
    block, pos = read_uvarint(buf, pos)
    mbs, pos = read_uvarint(buf, pos)
    n, pos = read_uvarint(buf, pos)
    if n == 0:
        return np.empty(0, dtype=np.int64), pos
    zz, pos = read_uvarint(buf, pos)
    first = zigzag_decode_scalar(zz)
    out = np.empty(n, dtype=np.int64)
    out[0] = first
    nd = n - 1
    mb_vals = block // mbs
    deltas = np.empty(((nd + block - 1) // block) * block, dtype=np.int64)
    got = 0
    while got < nd:
        zz, pos = read_uvarint(buf, pos)
        min_delta = zigzag_decode_scalar(zz)
        widths = list(buf[pos : pos + mbs])
        pos += mbs
        remaining = nd - got
        mb_used = min(mbs, (remaining + mb_vals - 1) // mb_vals)
        for m in range(mb_used):
            w = widths[m]
            vals = _ref_unpack_bits(buf, w, mb_vals, offset=pos)
            pos += w * mb_vals // 8
            with np.errstate(over="ignore"):
                deltas[got : got + mb_vals] = vals.view(np.int64) + np.int64(min_delta)
            got += mb_vals
    with np.errstate(over="ignore"):
        np.cumsum(deltas[:nd].view(np.uint64), out=out[1:].view(np.uint64))
        np.add(
            out[1:].view(np.uint64),
            np.uint64(first & 0xFFFFFFFFFFFFFFFF),
            out=out[1:].view(np.uint64),
        )
    return out, pos


def _ref_decode_hybrid(buf, width, count, pos=0):
    out = np.empty(count, dtype=np.uint64)
    filled = 0
    vbytes = (width + 7) // 8
    n = len(buf)
    while filled < count and pos < n:
        header, pos = read_uvarint(buf, pos)
        if header & 1:
            num = (header >> 1) * 8
            nbytes = num * width // 8
            vals = _ref_unpack_bits(buf, width, num, offset=pos)
            pos += nbytes
            take = min(num, count - filled)
            out[filled : filled + take] = vals[:take]
            filled += take
        else:
            run_len = header >> 1
            value = int.from_bytes(buf[pos : pos + vbytes], "little") if vbytes else 0
            pos += vbytes
            take = min(run_len, count - filled)
            out[filled : filled + take] = value
            filled += take
    if filled < count:
        raise ValueError(f"hybrid stream exhausted: {filled}/{count}")
    return out, pos


def _assert_same_delta(buf, pos=0):
    got, got_pos = delta_bp_decode_np(buf, pos)
    want, want_pos = _ref_delta_bp_decode(buf, pos)
    assert np.array_equal(got, want)
    assert got_pos == want_pos
    return got, got_pos


def _delta_stream(rng, block, mbs, n, widths=None):
    """A hand-built DELTA_BINARY_PACKED stream with random min deltas and
    random payload bits; `widths(rng)` picks each miniblock's width.  Widths
    of the last block's unneeded miniblocks are random bytes, as the spec
    lets writers leave them."""
    widths = widths or (lambda r: int(r.integers(0, 65)))
    out = bytearray(write_uvarint(block) + write_uvarint(mbs) + write_uvarint(n))
    if n == 0:
        return bytes(out)
    out += write_uvarint(int(rng.integers(0, 1 << 63, dtype=np.uint64)) * 2 + 1)
    nd, mb_vals = n - 1, block // mbs
    while nd > 0:
        out += write_uvarint(int(rng.integers(0, 1 << 64, dtype=np.uint64)))
        used = min(mbs, -(-nd // mb_vals))
        ws = [widths(rng) for _ in range(used)]
        out += bytes(ws) + bytes(rng.integers(0, 256, mbs - used, dtype=np.uint8))
        for w in ws:
            out += rng.integers(0, 256, w * mb_vals // 8, dtype=np.uint8).tobytes()
        nd -= block
    return bytes(out)


@pytest.mark.parametrize("width", [0, 1, 2, 3, 5, 7, 8, 13, 16, 24, 31, 32, 47, 63, 64])
def test_pack_unpack_all_widths(width):
    rng = np.random.default_rng(width)
    n = 64
    hi = (1 << width) - 1 if width else 0
    vals = rng.integers(0, hi + 1, n, dtype=np.uint64) if width < 64 else rng.integers(
        0, 1 << 62, n, dtype=np.uint64
    ) * np.uint64(4) + rng.integers(0, 4, n, dtype=np.uint64)
    packed = pack_bits(vals, width)
    out = unpack_bits(packed, width, n)
    assert np.array_equal(out, vals)


@pytest.mark.parametrize("seed", range(12))
def test_hybrid_run_structured_fuzz(seed):
    rng = np.random.default_rng(seed)
    parts = []
    for _ in range(rng.integers(1, 40)):
        kind = rng.integers(0, 3)
        if kind == 0:  # long run
            parts.append(np.full(rng.integers(8, 100), rng.integers(0, 1 << 20), np.uint64))
        elif kind == 1:  # short runs
            parts.append(np.full(rng.integers(1, 8), rng.integers(0, 1 << 20), np.uint64))
        else:  # noise
            parts.append(rng.integers(0, 1 << 20, rng.integers(1, 50)).astype(np.uint64))
    v = np.concatenate(parts)
    w = int(v.max()).bit_length()
    payload = encode_hybrid(v, w)
    out, _ = decode_hybrid(payload, w, len(v))
    assert np.array_equal(out, v)


@pytest.mark.parametrize("seed", range(8))
def test_delta_bp_block_boundaries(seed):
    rng = np.random.default_rng(seed)
    for n in [1, 2, 127, 128, 129, 255, 256, 257, 384, 513]:
        v = rng.integers(-(1 << 40), 1 << 40, n)
        out, _ = _assert_same_delta(delta_bp_encode_np(v))
        assert np.array_equal(out, v), n
        _assert_same_delta(_delta_stream(rng, 128, 4, n))


@pytest.mark.parametrize("width", range(65))
def test_delta_bp_matches_reference_every_width(width):
    rng = np.random.default_rng(width)
    _assert_same_delta(_delta_stream(rng, 128, 4, 1 + 128 * 3 + 50, lambda r: width))
    # encoder output whose miniblocks hold `width`-bit normalized deltas
    d = np.zeros(300, np.uint64)
    if width:
        d = rng.integers(0, 1 << 64, 300, dtype=np.uint64) >> np.uint64(64 - width)
        d[::32] = np.uint64((1 << width) - 1)
        d[1::128] = 0
    base = np.int64(-(1 << 40))
    with np.errstate(over="ignore"):
        v = np.cumsum(d.view(np.int64) + base)
    got, _ = _assert_same_delta(delta_bp_encode_np(v))
    assert np.array_equal(got, v)


@pytest.mark.parametrize("k", range(1, 64))
def test_delta_bp_encode_width_is_exact_bit_length(k):
    """A miniblock whose largest normalized delta is 2^k - 1 or 2^k is
    written with exactly that value's bit length (a float log2 estimate
    once wrote k + 1 bits for 2^k - 1, k = 49..52)."""
    for top in ((1 << k) - 1, 1 << k):
        # block min delta is int64 min, so normalized deltas are 0 except
        # one equal to `top` in the first miniblock
        d = np.full(128, np.iinfo(np.int64).min, np.int64)
        d[5] = np.uint64(top + (1 << 63) & ((1 << 64) - 1)).view(np.int64)
        with np.errstate(over="ignore"):
            v = np.concatenate([[0], np.cumsum(d)])
        buf = delta_bp_encode_np(v)
        pos = 0
        for _ in range(4):  # block size, miniblocks, count, first value
            _, pos = read_uvarint(buf, pos)
        _, pos = read_uvarint(buf, pos)  # the block's min delta
        assert list(buf[pos : pos + 4]) == [top.bit_length(), 0, 0, 0], top
        got, end = _assert_same_delta(buf)
        assert end == len(buf) and np.array_equal(got, v), top


def test_delta_bp_matches_reference_wraparound_and_negative_first():
    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    rng = np.random.default_rng(7)
    for v in (
        np.array([hi, lo, hi, lo, 0, -1, hi, -5], dtype=np.int64),
        np.array([-3] + [lo, hi] * 100, dtype=np.int64),
        rng.integers(lo, hi, 777, dtype=np.int64, endpoint=True),
        -np.arange(1, 300, dtype=np.int64) * (1 << 50),
    ):
        got, _ = _assert_same_delta(delta_bp_encode_np(v))
        assert np.array_equal(got, v)


def test_delta_bp_matches_reference_chained_streams():
    rng = np.random.default_rng(11)
    a = rng.integers(0, 300, 200)
    b = rng.integers(-(1 << 60), 1 << 60, 129)
    buf = delta_bp_encode_np(a) + delta_bp_encode_np(b) + b"tail"
    got_a, pos = _assert_same_delta(buf)
    got_b, pos = _assert_same_delta(buf, pos)
    assert np.array_equal(got_a, a) and np.array_equal(got_b, b)
    assert buf[pos:] == b"tail"


@pytest.mark.parametrize("block,mbs", [(256, 8), (128, 2), (128, 1), (512, 4)])
def test_delta_bp_matches_reference_non_default_geometry(block, mbs):
    rng = np.random.default_rng(block + mbs)
    for n in [1, 2, block, block + 1, 2 * block + block // mbs + 3]:
        _assert_same_delta(_delta_stream(rng, block, mbs, n))


@pytest.mark.parametrize(
    "header",
    [(128, 0), (64, 2), (200, 4), (0, 4), (128, 8), (48, 4), (384, 5)],
    ids=["zero-miniblocks", "block-64", "block-200", "block-0", "mb-16", "48x4", "mb-not-divisor"],
)
def test_delta_bp_rejects_bad_geometry(header):
    block, mbs = header
    buf = write_uvarint(block) + write_uvarint(mbs) + write_uvarint(5) + bytes(200)
    with pytest.raises(ValueError):
        delta_bp_decode_np(buf)


def test_delta_bp_rejects_width_above_64():
    buf = (
        write_uvarint(128) + write_uvarint(4) + write_uvarint(5) + write_uvarint(0)
        + write_uvarint(0) + bytes([65, 0, 0, 0]) + bytes(65 * 32 // 8 + 64)
    )
    with pytest.raises(ValueError):
        delta_bp_decode_np(buf)


def test_delta_bp_rejects_truncated_stream():
    rng = np.random.default_rng(3)
    full = _delta_stream(rng, 128, 4, 300, lambda r: int(r.integers(1, 65)))
    _assert_same_delta(full)
    for cut in range(len(full)):
        with pytest.raises(ValueError):
            delta_bp_decode_np(full[:cut])
    huge = write_uvarint(128) + write_uvarint(4) + write_uvarint(1 << 60) + bytes(16)
    with pytest.raises(ValueError):
        delta_bp_decode_np(huge)


def _hybrid_stream(rng, width, runs):
    """A hand-built hybrid stream of `runs` random RLE / bit-packed runs."""
    out = bytearray()
    total = 0
    for _ in range(runs):
        if rng.integers(0, 2):
            groups = int(rng.integers(0, 6))
            out += write_uvarint((groups << 1) | 1)
            out += rng.integers(0, 256, groups * width, dtype=np.uint8).tobytes()
            total += groups * 8
        else:
            ln = int(rng.integers(0, 40))
            value = int(rng.integers(0, 1 << 64, dtype=np.uint64)) & ((1 << width) - 1)
            out += write_uvarint(ln << 1) + value.to_bytes((width + 7) // 8, "little")
            total += ln
    return bytes(out), total


@pytest.mark.parametrize("width", range(65))
def test_hybrid_matches_reference_every_width(width):
    rng = np.random.default_rng(100 + width)
    for _ in range(6):
        buf, total = _hybrid_stream(rng, width, int(rng.integers(1, 12)))
        buf += b"\x05tail"
        # counts that end mid-run, so the last bit-packed group overshoots
        for count in {total, max(total - 1, 0), max(total - 5, 0), total // 2, 1}:
            if count > total:
                continue
            got, pos = decode_hybrid(buf, width, count)
            want, want_pos = _ref_decode_hybrid(buf, width, count)
            assert np.array_equal(got, want) and pos == want_pos


@pytest.mark.parametrize("n", [1, 7, 9, 15, 17, 100, 1001])
def test_hybrid_last_group_overshoots_count(n):
    rng = np.random.default_rng(n)
    v = np.concatenate([np.full(20, 3, np.uint64), rng.integers(0, 1 << 11, n, dtype=np.uint64)])
    buf = encode_hybrid(v, 11) + encode_hybrid(v[::-1].copy(), 11)
    got, pos = decode_hybrid(buf, 11, len(v))
    want, want_pos = _ref_decode_hybrid(buf, 11, len(v))
    assert np.array_equal(got, v) and np.array_equal(want, v) and pos == want_pos
    got2, _ = decode_hybrid(buf, 11, len(v), pos)
    assert np.array_equal(got2, v[::-1])


def test_hybrid_rejects_truncated_bitpacked_run():
    buf = write_uvarint((2 << 1) | 1) + bytes(2 * 9 - 1)
    with pytest.raises(ValueError):
        decode_hybrid(buf, 9, 16)


@pytest.mark.parametrize("width", range(1, 65))
def test_unpack_bits_unaligned_offsets(width):
    rng = np.random.default_rng(1000 + width)
    hi = (1 << width) - 1
    vals = rng.integers(0, hi, 24, dtype=np.uint64, endpoint=True)
    vals[0] = hi
    packed = pack_bits(vals, width)
    for lead in (1, 3, 7, 8, 13):
        for trail in range(9):  # the run ends 0..8 bytes before the buffer ends
            buf = bytes(rng.integers(0, 256, lead, dtype=np.uint8)) + packed + bytes(
                rng.integers(0, 256, trail, dtype=np.uint8)
            )
            assert np.array_equal(unpack_bits(buf, width, len(vals), offset=lead), vals)
        with pytest.raises(ValueError):
            unpack_bits(buf[: lead + len(packed) - 1], width, len(vals), offset=lead)
    # many runs in one call, at scattered byte offsets
    bufs = [bytes(rng.integers(0, 256, k, dtype=np.uint8)) + packed for k in (5, 0, 2)]
    buf = b"".join(bufs)
    starts = np.cumsum([len(b) for b in bufs]) - len(packed)
    out = unpack_bits(buf, width, len(vals), starts=starts)
    assert np.array_equal(out, np.tile(vals, 3))


@pytest.mark.parametrize("seed", range(6))
def test_fsst_fuzz(seed):
    from parquet_go_ray.codecs import decode, encode

    rng = np.random.default_rng(seed)
    # mix of compressible, random, escape-heavy and empty values
    vals = []
    for _ in range(rng.integers(10, 200)):
        kind = rng.integers(0, 4)
        if kind == 0:
            vals.append(b"")
        elif kind == 1:
            vals.append(bytes(rng.integers(250, 256, rng.integers(1, 50), dtype=np.uint8)))
        elif kind == 2:
            vals.append((b"pattern" * rng.integers(1, 30))[: rng.integers(1, 120)])
        else:
            vals.append(bytes(rng.integers(0, 256, rng.integers(0, 100), dtype=np.uint8)))
    arr = pa.array(vals, type=pa.binary())
    p, m = encode("fsst", arr)
    out = decode(p, m, arr.type)
    assert out.cast(arr.type).equals(arr) or out.equals(arr)
