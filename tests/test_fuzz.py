"""Seeded adversarial fuzz sweeps over the bit-level kernels — wider than the
hypothesis strategies (all bit widths, run-structured patterns, many seeds)."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
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


# ---------------------------------------------------------------------------
# Reference encoders: the per-run / per-block loops and the shift-matrix
# packer the vectorized encoders replaced, kept as the oracle they must match
# byte for byte.
# ---------------------------------------------------------------------------


def _ref_pack_bits(vals, width):
    if width == 0 or len(vals) == 0:
        return b""
    v = np.ascontiguousarray(vals, dtype=np.uint64)
    shifts = np.arange(width, dtype=np.uint64)
    bits = ((v[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits.reshape(-1), bitorder="little").tobytes()


def _ref_bitpacked_span(v, start, count, width):
    vals = v[start : start + count]
    if count % 8:
        vals = np.concatenate((vals, np.zeros((-count) % 8, dtype=np.uint64)))
    return write_uvarint((((count + 7) // 8) << 1) | 1) + _ref_pack_bits(vals, width)


def _ref_encode_hybrid(values, width):
    n = len(values)
    if n == 0:
        return b""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    vbytes = (width + 7) // 8
    starts = np.concatenate(([0], np.flatnonzero(v[1:] != v[:-1]) + 1))
    run_lens = np.diff(np.concatenate((starts, [n])))
    if len(starts) > n - (n >> 2):
        return _ref_bitpacked_span(v, 0, n, width)
    out = bytearray()
    bp_start = -1
    bp_count = 0
    for s, l in zip(starts.tolist(), run_lens.tolist()):
        if l >= 8:
            if bp_count:
                pad = (-bp_count) % 8
                if l - pad >= 8:
                    out += _ref_bitpacked_span(v, bp_start, bp_count + pad, width)
                    bp_start, bp_count = -1, 0
                    out += write_uvarint((l - pad) << 1) + int(v[s]).to_bytes(vbytes, "little")
                else:
                    bp_count += l
                continue
            out += write_uvarint(l << 1) + int(v[s]).to_bytes(vbytes, "little")
        else:
            if bp_count == 0:
                bp_start = s
            bp_count += l
    if bp_count:
        out += _ref_bitpacked_span(v, bp_start, bp_count, width)
    return bytes(out)


def _ref_delta_bp_encode(v, bits=64):
    v = v.astype(np.int64, copy=False)
    n = len(v)
    out = bytearray(write_uvarint(128) + write_uvarint(4) + write_uvarint(n))
    if n == 0:
        return bytes(out)
    out += write_uvarint(zigzag_encode_scalar(int(v[0])))
    with np.errstate(over="ignore"):
        deltas = np.subtract(v[1:], v[:-1])
    if bits == 32:
        deltas = deltas.astype(np.int32).astype(np.int64)
    for b0 in range(0, len(deltas), 128):
        block = deltas[b0 : b0 + 128]
        lo = int(block.min())
        norm = [(int(d) - lo) & ((1 << 64) - 1) for d in block]
        norm += [0] * (128 - len(norm))
        used = -(-len(block) // 32)
        widths = [max(norm[m * 32 : m * 32 + 32]).bit_length() if m < used else 0 for m in range(4)]
        out += write_uvarint(zigzag_encode_scalar(lo)) + bytes(widths)
        for m in range(used):
            out += _ref_pack_bits(np.array(norm[m * 32 : m * 32 + 32], dtype=np.uint64), widths[m])
    return bytes(out)


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



_WIDTH_CLASSES = ((0, 0), (1, 8), (9, 57), (58, 64))


def _mixed_widths():
    """A `_delta_stream` width picker: every four miniblocks (one whole
    default block) take width 0, one width up to 8, one of 9..57 and one of
    58..64 (the ninth-byte widths), in random order."""
    pending = []

    def pick(r):
        if not pending:
            pending.extend(int(r.integers(lo, hi, endpoint=True)) for lo, hi in r.permutation(_WIDTH_CLASSES))
        return pending.pop()

    return pick


@pytest.mark.parametrize("seed", range(10))
def test_delta_bp_mixed_width_blocks_match_reference(seed):
    rng = np.random.default_rng(300 + seed)
    for n in (2, 33, 129, 1 + 128 * 4, 1 + 128 * 9 + 77):
        _assert_same_delta(_delta_stream(rng, 128, 4, n, _mixed_widths()))


def test_delta_bp_multibyte_and_negative_min_deltas():
    """Blocks whose min delta is negative and whose zigzag varint takes 1 to
    10 bytes, through the encoder and through hand-built streams."""
    rng = np.random.default_rng(41)
    blocks = []
    for k in (0, 3, 6, 7, 13, 20, 27, 34, 41, 48, 55, 62, 63):
        lo = -(1 << k)
        blocks.append(lo + rng.integers(0, 1 << min(k, 20), 128, endpoint=True))
        blocks[-1][rng.integers(0, 128)] = lo  # the block's min delta is exactly -2^k
    d = np.concatenate(blocks)
    with np.errstate(over="ignore"):
        v = np.concatenate([[7], 7 + np.cumsum(d)])
    buf = delta_bp_encode_np(v)
    pos = 0
    for _ in range(4):  # block size, miniblocks, count, first value
        _, pos = read_uvarint(buf, pos)
    lens = []
    for _ in blocks:  # every block: its min-delta varint, then widths and payload
        start = pos
        _, pos = read_uvarint(buf, pos)
        lens.append(pos - start)
        pos += 4 + sum(buf[pos : pos + 4]) * 4
    assert sorted(set(lens)) == list(range(1, 11))
    got, end = _assert_same_delta(buf)
    assert end == len(buf) and np.array_equal(got, v)
    # hand-built: one-byte negative min (zigzag 1 -> -1) and the largest
    # ten-byte one (zigzag 2^64 - 1 -> -2^63)
    for zz in (1, 3, 127, 255, (1 << 64) - 1):
        stream = bytearray(write_uvarint(128) + write_uvarint(4) + write_uvarint(200) + write_uvarint(5))
        for _ in range(2):
            stream += write_uvarint(zz) + bytes([3, 9, 60, 0])
            stream += rng.integers(0, 256, (3 + 9 + 60) * 4, dtype=np.uint8).tobytes()
        _assert_same_delta(bytes(stream))


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



def _assert_same_hybrid(buf, width, count, pos=0):
    got, got_pos = decode_hybrid(buf, width, count, pos)
    want, want_pos = _ref_decode_hybrid(buf, width, count, pos)
    assert np.array_equal(got, want) and got_pos == want_pos
    return got


@pytest.mark.parametrize("width", range(1, 9))
def test_hybrid_one_bitpacked_run_byte_group_widths(width):
    """One bit-packed run (the dictionary-index page shape) at every width
    the byte-group unpack reads, with counts that end mid-group."""
    rng = np.random.default_rng(500 + width)
    for groups in (1, 2, 3, 127, 1024):
        payload = rng.integers(0, 256, groups * width, dtype=np.uint8).tobytes()
        buf = bytes([width]) + write_uvarint((groups << 1) | 1) + payload + b"tail"
        for count in {1, 7, 9, groups * 8 - 7, groups * 8 - 1, groups * 8} - {0}:
            if count <= groups * 8:
                _assert_same_hybrid(buf, width, count, 1)


@pytest.mark.parametrize("width", range(1, 9))
def test_hybrid_mixed_runs_byte_group_widths(width):
    """Mixed RLE / bit-packed streams (the level and low-cardinality
    dictionary shapes): hand-built, and the encoder's output for runs of
    values around short noise."""
    rng = np.random.default_rng(600 + width)
    for _ in range(8):
        buf, total = _hybrid_stream(rng, width, int(rng.integers(2, 40)))
        for count in {total, max(total - 3, 1), total // 2 or 1}:
            if count <= total:
                _assert_same_hybrid(buf + b"\x03", width, count)
    hi = 1 << width
    parts = []
    for _ in range(60):
        if rng.integers(0, 2):
            parts.append(np.full(int(rng.integers(8, 300)), rng.integers(0, hi), np.uint64))
        else:
            parts.append(rng.integers(0, hi, int(rng.integers(1, 40))).astype(np.uint64))
    v = np.concatenate(parts)
    buf = encode_hybrid(v, width)
    assert np.array_equal(_assert_same_hybrid(buf, width, len(v)), v)


@pytest.mark.parametrize("width", [1, 2, 3, 5, 8, 9, 17, 64])
def test_hybrid_rejects_truncated_bitpacked_runs(width):
    """A bit-packed run cut short raises ValueError, alone or after an RLE
    run, at the byte-group widths and at gather widths."""
    rle = write_uvarint(10 << 1) + bytes((width + 7) // 8)
    for lead in (b"", rle):
        full = lead + write_uvarint((3 << 1) | 1) + bytes(3 * width)
        count = (10 if lead else 0) + 24
        _assert_same_hybrid(full, width, count)
        for cut in range(1, 3 * width + 1):
            with pytest.raises(ValueError):
                decode_hybrid(full[:-cut], width, count)


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


# ---------------------------------------------------------------------------
# Encoder oracles: the vectorized encoders must write the reference encoders'
# bytes exactly.
# ---------------------------------------------------------------------------

ORACLE_NS = (0, 1, 7, 8, 9, 128, 129)


def _rand_width(rng, n, width):
    if width == 0:
        return np.zeros(n, dtype=np.uint64)
    return rng.integers(0, 1 << 64, n, dtype=np.uint64, endpoint=False) >> np.uint64(64 - width)


def _hybrid_inputs(width):
    """All-equal, all-distinct, random and run-structured inputs of `width`
    bits, at every length in ORACLE_NS and longer."""
    rng = np.random.default_rng(500 + width)
    top = np.uint64((1 << width) - 1)
    out = []
    for n in ORACLE_NS + (1000,):
        out += [
            np.full(n, top, dtype=np.uint64),
            np.arange(n, dtype=np.uint64) & top,
            _rand_width(rng, n, width),
        ]
    # short spans of odd length, each followed by a run of 8-15: after
    # borrowing up to 7 values to round the span up, a run may fall under 8
    # and fold into the span
    parts = []
    for _ in range(80):
        parts.append(_rand_width(rng, 2 * int(rng.integers(0, 7)) + 1, width))
        parts.append(np.full(int(rng.integers(8, 16)), _rand_width(rng, 1, width)[0]))
    out.append(np.concatenate(parts))
    # long runs, short runs and noise
    parts = []
    for _ in range(60):
        k = int(rng.integers(0, 3))
        ln = int(rng.integers(8, 100) if k == 0 else rng.integers(1, 8) if k == 1 else rng.integers(1, 40))
        val = _rand_width(rng, 1, width)[0]
        parts.append(np.full(ln, val) if k < 2 else _rand_width(rng, ln, width))
    out.append(np.concatenate(parts).astype(np.uint64))
    return out


@pytest.mark.parametrize("width", range(65))
def test_pack_bits_matches_reference(width):
    rng = np.random.default_rng(width)
    top = np.uint64((1 << width) - 1)
    for n in (0, 8, 128, 1024):
        for v in (_rand_width(rng, n, width), np.full(n, top, dtype=np.uint64)):
            assert pack_bits(v, width) == _ref_pack_bits(v, width)


@pytest.mark.parametrize("width", range(65))
def test_encode_hybrid_matches_reference(width):
    for v in _hybrid_inputs(width):
        got = encode_hybrid(v, width)
        assert got == _ref_encode_hybrid(v, width), len(v)
        if len(v):
            assert np.array_equal(decode_hybrid(got, width, len(v))[0], v)


def test_encode_hybrid_fold_branch():
    """A 3-value span borrows 5 values from the 9-run after it, leaving 4:
    the run folds into the span, which then ends at the next long run."""
    v = np.array([1, 2, 1] + [3] * 9 + [0] * 20, dtype=np.uint64)
    got = encode_hybrid(v, 2)
    assert got == _ref_encode_hybrid(v, 2)
    # one 16-value bit-packed span (12 values + 4 borrowed), then RLE 0 x 16
    assert got[0] == (2 << 1) | 1 and got[5:] == write_uvarint(16 << 1) + b"\x00"


def _delta_inputs(rng, n):
    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    return [
        np.full(n, -7, dtype=np.int64),
        np.arange(n, dtype=np.int64) * 3 - 100,
        rng.integers(-(1 << 40), 1 << 40, n),
        rng.integers(lo, hi, n, dtype=np.int64, endpoint=True),
        np.resize(np.array([hi, lo, 0, -1], dtype=np.int64), n),
        np.sort(rng.integers(0, 1 << 20, n)),
    ]


@pytest.mark.parametrize("n", ORACLE_NS + (2, 127, 255, 256, 257, 1000))
def test_delta_bp_encode_matches_reference(n):
    rng = np.random.default_rng(n)
    for v in _delta_inputs(rng, n):
        assert delta_bp_encode_np(v) == _ref_delta_bp_encode(v)
    # INT32 columns: deltas wrap at 32 bits
    i32 = np.iinfo(np.int32)
    for v in (
        rng.integers(i32.min, i32.max, n, endpoint=True).astype(np.int32),
        np.resize(np.array([i32.max, i32.min, 0, -1], dtype=np.int32), n),
    ):
        assert delta_bp_encode_np(v, bits=32) == _ref_delta_bp_encode(v, bits=32)


@pytest.mark.parametrize("width", range(65))
def test_delta_bp_encode_matches_reference_every_width(width):
    """Miniblocks whose normalized deltas are `width` bits wide, next to
    miniblocks of other widths."""
    rng = np.random.default_rng(700 + width)
    d = _rand_width(rng, 600, width)
    d[::32] = np.uint64((1 << width) - 1)
    d[200:264] = _rand_width(rng, 64, min(width, 5))
    with np.errstate(over="ignore"):
        v = np.cumsum(d.view(np.int64) + np.int64(-(1 << 40)))
    for k in (len(v), 129, 130, 161):
        assert delta_bp_encode_np(v[:k]) == _ref_delta_bp_encode(v[:k])


# sha256 of the three files _digest_writes() makes, as the per-run /
# per-block loop encoders wrote them
WRITE_PAR1_DIGEST = "1aabdc5b9ae6b520ae6ff234974abfe7f8370becead3eef9a1f6fa191f669b65"


def _digest_table() -> pa.Table:
    """Seeded table touching every write-path kernel: dict, delta_bp,
    byte_stream_split and plain values, optional columns with nulls and NaN,
    floats holding both signs of zero, a column whose first page is all
    null, and a list column."""
    rng = np.random.default_rng(2026)
    n = 700
    i32 = np.iinfo(np.int32)
    f = rng.normal(size=n)
    f[rng.random(n) < 0.1] = np.nan
    first_null = rng.integers(0, 50, n)
    lists = [None if rng.random() < 0.1 else rng.integers(0, 9, int(rng.integers(0, 4))).tolist()
             for _ in range(n)]
    return pa.table(
        {
            "k": pa.array(np.sort(rng.integers(0, 1 << 40, n)), pa.int64()),
            "i32": pa.array(rng.integers(i32.min, i32.max, n, endpoint=True), pa.int32()),
            "code": pa.array(rng.integers(0, 5, n), pa.int32()),
            "cat": pa.array(np.array(["a", "bb", "ccc"])[rng.integers(0, 3, n)], mask=rng.random(n) < 0.2),
            "f": pa.array(f, mask=rng.random(n) < 0.1),
            "g": pa.array(rng.normal(size=n).astype(np.float32)),
            "z": pa.array(np.array([0.0, -0.0, 2.5])[rng.integers(0, 3, n)]),
            "first_null": pa.array(first_null, pa.int64(), mask=np.arange(n) < 80),
            "flag": pa.array(rng.random(n) < 0.3),
            "s": pa.array([f"v{x}" for x in rng.integers(0, 10_000, n)]),
            "ts": pa.array(np.sort(rng.integers(0, 10**15, n)), pa.timestamp("us")),
            "lst": pa.array(lists, pa.list_(pa.int64())),
        }
    )


def _digest_files(tmp_path) -> list:
    """The three files whose bytes WRITE_PAR1_DIGEST pins."""
    from parquet_go_ray.formats.par1 import write_par1

    tbl = _digest_table()
    enc = {
        "k": "delta_bp", "i32": "delta_bp", "code": "dict", "cat": "dict", "f": "byte_stream_split",
        "g": "plain", "first_null": "delta_bp", "flag": "plain", "s": "plain", "ts": "delta_bp",
    }
    writes = [
        dict(codec="snappy", bloom=["k", "cat"], row_group_rows=400),
        dict(codec="zstd", data_page_version=2),
        dict(codec="none", level_encoding="bit_packed"),
    ]
    paths = []
    for i, kw in enumerate(writes):
        paths.append(tmp_path / f"{i}.parquet")
        write_par1(tbl, str(paths[-1]), encodings=enc, page_rows=64, **kw)
    return paths


def _digest_writes(tmp_path):
    import hashlib

    h = hashlib.sha256()
    for path in _digest_files(tmp_path):
        h.update(path.read_bytes())
    return h.hexdigest()


def test_write_par1_bytes_pinned(tmp_path):
    assert _digest_writes(tmp_path) == WRITE_PAR1_DIGEST


# sha256 of the Arrow IPC of what read_par1 and read_par1_pruned (whole, and
# under a page-pruning DNF) return for the three _digest_files, as the
# per-page level decoders read them
READ_PAR1_DIGEST = "7ccc5f3bf8db5f4443a8f53f6750239f0f1bc948ccf4015cb9d8c8e371a13727"


def _ipc(tbl: pa.Table) -> bytes:
    tbl = tbl.combine_chunks()
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, tbl.schema) as w:
        w.write_table(tbl)
    return sink.getvalue().to_pybytes()


def test_read_par1_values_pinned(tmp_path):
    import hashlib

    from parquet_go_ray.formats.par1 import read_par1, read_par1_pruned

    tbl = _digest_table()
    flat = [c for c in tbl.column_names if c != "lst"]
    k = tbl["k"].to_pylist()
    dnf = [[("k", ">=", k[200]), ("k", "<", k[260])], [("k", ">=", k[500]), ("k", "<", k[530]), ("cat", "==", "bb")]]
    h = hashlib.sha256()
    for path in _digest_files(tmp_path):
        h.update(_ipc(read_par1(str(path))))
        h.update(_ipc(read_par1_pruned(str(path), flat)[0]))
        got, st = read_par1_pruned(str(path), flat, dnf)
        assert 0 < st["pages_decoded"] < st["pages_total"]
        h.update(_ipc(got))
    assert h.hexdigest() == READ_PAR1_DIGEST


def _ref_decode_bss(payload: bytes, meta: dict, typ: pa.DataType) -> pa.Array:
    """BYTE_STREAM_SPLIT decode as one transpose copy of the byte planes."""
    n, k = meta["rows"], meta["k"]
    planes = np.frombuffer(payload, dtype=np.uint8).reshape(k, n)
    v = np.ascontiguousarray(planes.T).reshape(-1).view(typ.to_pandas_dtype())
    return pa.array(v, type=typ)


@pytest.mark.parametrize("typ", [pa.float32(), pa.int32(), pa.float64(), pa.int64()])
@pytest.mark.parametrize("n", [0, 1, 7, 8192])
def test_decode_bss_matches_reference(typ, n):
    from parquet_go_ray.codecs.bss import decode_bss

    k = typ.bit_width // 8
    payload = np.random.default_rng(n * k).integers(0, 256, n * k, dtype=np.uint8).tobytes()
    got = decode_bss(payload, {"rows": n, "k": k}, typ)
    want = _ref_decode_bss(payload, {"rows": n, "k": k}, typ)
    assert got.type == want.type and len(got) == n
    assert got.buffers()[1].to_pybytes()[: n * k] == want.buffers()[1].to_pybytes()[: n * k]



def _ref_decode_plain(payload: bytes, n: int, typ: pa.DataType) -> pa.Array:
    """PLAIN BYTE_ARRAY decode as a per-value slice of each value's bytes,
    joined once."""
    from parquet_go_ray.codecs.base import build_binary

    lengths = np.empty(n, dtype=np.int64)
    mv = memoryview(payload)
    pieces = []
    pos = 0
    for i in range(n):
        ln = int.from_bytes(mv[pos : pos + 4], "little")
        lengths[i] = ln
        pieces.append(mv[pos + 4 : pos + 4 + ln])
        pos += 4 + ln
    return build_binary(lengths, np.frombuffer(b"".join(pieces), dtype=np.uint8), typ)


_PLAIN_CASES = {
    "no-values": [],
    "empty-values": [b"", b"", b"x", b"", b"yz", b""],
    "one-value": [b"only"],
    "one-empty-value": [b""],
    "non-ascii": ["żółw".encode(), "日本語テキスト".encode(), "\x00ÿ\x80".encode(), "é".encode() * 9],
    "over-64k": [b"a" * 70_000, b"", b"b" * 65_536, b"c" * 65_537, b"tail"],
    "random": [bytes(np.random.default_rng(9).integers(0, 256, k, dtype=np.uint8)) for k in range(300)],
}


@pytest.mark.parametrize(
    "case,typ",
    [(c, t) for c in _PLAIN_CASES for t in (pa.binary(), pa.string(), pa.large_binary())
     if not (c == "random" and t == pa.string())],  # random bytes are not UTF-8
)
def test_decode_plain_byte_array_matches_reference(case, typ):
    from parquet_go_ray.codecs.plain import decode_plain

    vals = _PLAIN_CASES[case]
    payload = b"".join(len(v).to_bytes(4, "little") + v for v in vals) + b"trailing"
    got = decode_plain(payload, {"rows": len(vals)}, typ)
    want = _ref_decode_plain(payload, len(vals), typ)
    assert got.type == want.type and got.equals(want)
    assert got.to_pylist() == [v.decode() if pa.types.is_string(typ) else v for v in vals]
    if vals:  # cut into the last value, or into its length prefix
        for cut in (1, len(vals[-1]) + 1):
            with pytest.raises(ValueError):
                decode_plain(payload[: len(payload) - len(b"trailing") - cut], {"rows": len(vals)}, typ)


@pytest.mark.parametrize("page_size", [1 << 10, 1 << 20])
def test_read_pyarrow_plain_string_column(tmp_path, page_size):
    """A pyarrow-written PLAIN (no dictionary) string column, with nulls,
    empty and non-ASCII values, reads back equal to pq.read_table."""
    from parquet_go_ray.formats.par1 import read_par1, read_par1_pruned

    rng = np.random.default_rng(12)
    words = ["", "a", "żółw", "comment text " * 3, "x" * 200]
    s = [None if i % 11 == 0 else words[i % 5] + str(rng.integers(0, 1000)) for i in range(5000)]
    t = pa.table({"k": pa.array(np.arange(5000), pa.int64()), "s": pa.array(s)})
    path = str(tmp_path / "plain.parquet")
    pq.write_table(t, path, use_dictionary=False, data_page_size=page_size, write_page_index=True)
    want = pq.read_table(path)
    assert read_par1(path).equals(want)
    assert read_par1_pruned(path)[0].equals(want)
    got, _ = read_par1_pruned(path, None, ("k", ">=", 4000))
    assert got.equals(want.filter(pa.compute.greater_equal(want["k"], 4000)))


def _level_edge_table() -> pa.Table:
    """64-row pages whose definition levels sit next to the full-run skip:
    a leading run of max_def shorter than the page, then nulls; a page that
    is all null; a null-free optional column; scattered nulls."""
    rng = np.random.default_rng(11)
    n = 256
    vals = rng.integers(0, 1000, n)
    return pa.table(
        {
            "partial": pa.array(vals, mask=np.arange(n) % 64 >= 40),
            "null_page": pa.array(vals, mask=np.arange(n) < 64),
            "dense": pa.array(vals),
            "f": pa.array(rng.normal(size=n), mask=rng.random(n) < 0.3),
            "s": pa.array([f"s{x}" for x in vals], mask=rng.random(n) < 0.3),
        }
    )


@pytest.mark.parametrize(
    "kw", [{}, {"data_page_version": 2}, {"level_encoding": "bit_packed"}], ids=["v1", "v2", "bit_packed"]
)
def test_level_edge_pages(tmp_path, kw):
    from parquet_go_ray.formats.par1 import read_par1, read_par1_pruned, write_par1

    tbl = _level_edge_table()
    path = str(tmp_path / "levels.parquet")
    enc = {"partial": "delta_bp", "null_page": "plain", "dense": "plain", "f": "byte_stream_split"}
    write_par1(tbl, path, encodings=enc, page_rows=64, **kw)
    assert read_par1(path).equals(tbl)
    assert read_par1_pruned(path)[0].equals(tbl)
    got, _st = read_par1_pruned(path, None, ("partial", ">=", 0))
    assert got.equals(tbl.filter(tbl["partial"].is_valid()))


@pytest.mark.parametrize("version", ["1.0", "2.0"])
def test_level_edge_pages_pyarrow_written(tmp_path, version):
    from parquet_go_ray.formats.par1 import read_par1, read_par1_pruned

    tbl = _level_edge_table()
    path = str(tmp_path / "levels.parquet")
    pq.write_table(tbl, path, data_page_size=256, write_page_index=True, data_page_version=version)
    want = pq.read_table(path)
    assert read_par1(path).equals(want)
    assert read_par1_pruned(path)[0].equals(want)


@pytest.mark.parametrize("version", [1, 2])
def test_null_free_pages_decode_no_levels(tmp_path, monkeypatch, version):
    from parquet_go_ray.formats import par1

    tbl = _level_edge_table()
    path = str(tmp_path / "dense.parquet")
    par1.write_par1(tbl, path, encodings={"dense": "plain"}, page_rows=64, data_page_version=version)
    calls = []

    def counting(fn):
        return lambda *a, **k: calls.append(fn.__name__) or fn(*a, **k)

    for name in ("decode_levels", "decode_hybrid", "decode_levels_bitpacked"):
        monkeypatch.setattr(par1, name, counting(getattr(par1, name)))
    assert par1.read_par1(path, columns=["dense"]).equals(tbl.select(["dense"]))
    assert calls == []
    assert par1.read_par1(path, columns=["partial"]).equals(tbl.select(["partial"]))
    assert calls  # a page with nulls decodes its levels


# ---------------------------------------------------------------------------
# FSST oracles: the searchsorted lookup, lockstep/pointer-doubling walk and
# dict-based training the codec used before its direct-table lookup and
# piece walk.  Token streams, symbol tables and payloads must match exactly.
# ---------------------------------------------------------------------------

_REF_MAX_LEN = 8


class _RefSymbolTable:
    def __init__(self, symbols):
        self.symbols = symbols[:255]
        self.keys_by_len, self.codes_by_len, by_len = {}, {}, {}
        self.sym1_code = np.full(256, -1, dtype=np.int32)
        self.pmax2 = np.zeros(65536, dtype=np.uint8)
        self.code2 = np.full(65536, -1, dtype=np.int32)
        self.lens_mask2 = np.zeros(65536, dtype=np.uint8)
        for code, s in enumerate(self.symbols):
            key = int.from_bytes(s.ljust(8, b"\x00"), "little") & ((1 << (8 * len(s))) - 1)
            by_len.setdefault(len(s), []).append((key, code))
            if len(s) == 1:
                self.sym1_code[s[0]] = code
            elif len(s) == 2:
                self.code2[s[0] | (s[1] << 8)] = code
            else:
                p = s[0] | (s[1] << 8)
                self.pmax2[p] = max(self.pmax2[p], len(s))
                self.lens_mask2[p] |= 1 << (len(s) - 3)
        for ln, pairs in by_len.items():
            pairs.sort()
            self.keys_by_len[ln] = np.array([k for k, _ in pairs], dtype=np.uint64)
            self.codes_by_len[ln] = np.array([c for _, c in pairs], dtype=np.int32)


def _ref_greedy_parse(buf, value_lens, table):
    n = len(buf)
    value_ends = np.cumsum(value_lens)
    value_starts = (value_ends - value_lens).astype(np.int64)
    maxlen = np.full(n, _REF_MAX_LEN, dtype=np.uint8)
    if len(value_ends):
        for d in range(1, _REF_MAX_LEN):
            pos_d = value_ends - d
            ok = (pos_d >= value_starts) & (pos_d >= 0) & (pos_d < n)
            pd_ = pos_d[ok]
            maxlen[pd_] = np.minimum(maxlen[pd_], np.uint8(d))
    padded = np.zeros((n + _REF_MAX_LEN + 8) & ~7, dtype=np.uint8)
    padded[:n] = buf
    k2 = np.lib.stride_tricks.as_strided(padded.view(np.uint16), shape=(n,), strides=(1,))
    best_len = np.ones(n, dtype=np.int32)
    best_code = table.sym1_code[buf]
    pmax = table.pmax2[k2]
    cand = np.flatnonzero((np.minimum(pmax, maxlen)) >= 3)
    if len(cand):
        u64 = np.lib.stride_tricks.as_strided(padded.view(np.uint64), shape=(len(padded) - 7,), strides=(1,))
        keyc = u64[cand]
        lim_c = np.minimum(pmax[cand], maxlen[cand])
        lm_c = table.lens_mask2[(keyc & np.uint64(0xFFFF)).astype(np.uint32)]
        unmatched = np.ones(len(cand), dtype=bool)
        for ln in sorted((l for l in table.keys_by_len if l >= 3), reverse=True):
            keys = table.keys_by_len[ln]
            idx = np.flatnonzero(unmatched & (lim_c >= ln) & ((lm_c & np.uint8(1 << (ln - 3))) > 0))
            if not len(idx):
                continue
            sub = keyc[idx] & np.uint64((1 << (8 * ln)) - 1)
            pos_in = np.searchsorted(keys, sub)
            pos_in[pos_in == len(keys)] = 0
            hit = keys[pos_in] == sub
            hi = idx[hit]
            best_len[cand[hi]] = ln
            best_code[cand[hi]] = table.codes_by_len[ln][pos_in[hit]]
            unmatched[hi] = False
    c2 = table.code2[k2]
    hit2 = (best_len == 1) & (c2 >= 0) & (maxlen >= 2)
    best_len[hit2] = 2
    best_code[hit2] = c2[hit2]
    max_vlen = int(value_lens.max()) if len(value_lens) else 0
    if max_vlen <= 1 << 16 and len(value_lens) > 1:
        frontier, limit = value_starts.copy(), value_ends.astype(np.int64)
        alive = frontier < limit
        frontier, limit = frontier[alive], limit[alive]
        chunks = []
        while len(frontier):
            chunks.append(frontier.copy())
            frontier = frontier + best_len[frontier]
            alive = frontier < limit
            frontier, limit = frontier[alive], limit[alive]
        starts = np.sort(np.concatenate(chunks)) if chunks else np.empty(0, dtype=np.int64)
    else:
        jk = np.empty(n + 1, dtype=np.int64)
        jk[:n] = np.minimum(np.arange(n, dtype=np.int64) + best_len, n)
        jk[n] = n
        visited = np.zeros(n + 1, dtype=bool)
        visited[value_starts] = True
        visited[0] = True
        prev = 0
        for _ in range(max(int(np.ceil(np.log2(max(max_vlen, 2)))) + 1, 1)):
            visited[jk[visited[:-1].nonzero()[0]]] = True
            count = int(visited.sum())
            if count == prev:
                break
            prev = count
            jk = jk[jk]
        starts = np.flatnonzero(visited[:n])
    return starts, best_len[starts], best_code[starts]


def _ref_train(buf, value_lens):
    n = len(buf)
    if n == 0:
        return []
    if n > 1 << 16:
        sl = (1 << 16) // 64
        starts = np.linspace(0, n - sl, 64).astype(np.int64)
        sample = np.concatenate([buf[s : s + sl] for s in starts])
        s_lens = np.full(64, sl, dtype=np.int64)
    else:
        sample, s_lens = buf, value_lens
    counts = np.bincount(sample, minlength=256)
    order = np.argsort(counts)[::-1]
    table = _RefSymbolTable([bytes([b]) for b in order if counts[b] > 0][:255])
    for _ in range(5):
        starts, lens, codes = _ref_greedy_parse(sample, s_lens, table)
        ids = np.where(codes >= 0, codes, 256 + sample[starts].astype(np.int64))

        def id_bytes(i):
            return table.symbols[i] if i < 256 else bytes([i - 256])

        gains = {}
        cnt = np.bincount(ids, minlength=512)
        for i in np.flatnonzero(cnt):
            b = id_bytes(int(i))
            gains[b] = gains.get(b, 0) + int(cnt[i]) * ((len(b) - 1) * 8 + 7)
        if len(ids) > 1:
            vid = np.searchsorted(np.cumsum(s_lens), starts, side="right")
            same_val = vid[:-1] == vid[1:]
            pid = ids[:-1][same_val] * 512 + ids[1:][same_val]
            upair, pcnt = np.unique(pid, return_counts=True)
            id_len = np.array(
                [len(s) for s in table.symbols] + [0] * (256 - len(table.symbols)) + [1] * 256,
                dtype=np.int64,
            )
            la, lb = id_len[upair // 512], id_len[upair % 512]
            ok = (la + lb) <= _REF_MAX_LEN
            upair, pcnt, plen = upair[ok], pcnt[ok], (la + lb)[ok]
            for j in np.argsort(pcnt * plen)[::-1][: 4 * 255]:
                u = int(upair[j])
                cat = id_bytes(u // 512) + id_bytes(u % 512)
                gains[cat] = gains.get(cat, 0) + int(pcnt[j]) * len(cat) * 8
        best = sorted(gains.items(), key=lambda kv: (-kv[1], kv[0]))[:255]
        table = _RefSymbolTable([s for s, _ in best])
    return table.symbols


def _ref_encode_fsst(arr, monkeypatch):
    """The payload with the oracle training and parse in the codec's own
    segmenting and serialization."""
    from parquet_go_ray.codecs import fsst

    monkeypatch.setattr(fsst, "train", lambda buf, lens: fsst.SymbolTable(_ref_train(buf, lens)))
    monkeypatch.setattr(
        fsst, "_greedy_parse", lambda buf, lens, table: _ref_greedy_parse(buf, lens, _RefSymbolTable(table.symbols))
    )
    try:
        return fsst.encode_fsst(arr)[0]
    finally:
        monkeypatch.undo()


def _fsst_inputs():
    rng = np.random.default_rng(17)
    dirs = ["src", "lib", "tests", "docs", "pkg/util", "internal/api"]
    names = ["main", "utils", "handler", "config", "test_io", "README"]
    exts = [".py", ".go", ".rs", ".md", ".ts"]
    paths = [
        f"{rng.choice(dirs)}/{rng.choice(names)}_{rng.integers(0, 50)}{rng.choice(exts)}".encode()
        for _ in range(3000)
    ]
    escapes = [bytes(rng.integers(248, 256, rng.integers(0, 40), dtype=np.uint8)) for _ in range(400)]
    code = b"    def handler(self, request):\n        return self.config.get(request)\n"
    big = (code * 1200)[: 70 << 10]  # one value over 64 KB: sliced training
    return {
        "paths": paths,
        "escapes": escapes,
        "empties": [b"", b"", b"x", b"", b"yy", b""],
        "all_empty": [b"", b""],
        "single": [b"src/parquet_go_ray/codecs/fsst.py"],
        "over_64k": [big, b"tail", big[:1000]],
        "mixed": paths[:500] + escapes[:100] + [big],
    }


@pytest.mark.parametrize("name", sorted(_fsst_inputs()))
def test_fsst_matches_reference(name, monkeypatch):
    from parquet_go_ray.codecs import fsst
    from parquet_go_ray.codecs.base import binary_parts

    arr = pa.array(_fsst_inputs()[name], type=pa.binary())
    lens, data = binary_parts(arr)
    syms = _ref_train(data, lens)
    assert fsst.train(data, lens).symbols == syms
    if len(data):
        got = fsst._greedy_parse(data, lens, fsst.SymbolTable(syms))
        want = _ref_greedy_parse(data, lens, _RefSymbolTable(syms))
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
    assert fsst.encode_fsst(arr)[0] == _ref_encode_fsst(arr, monkeypatch)


@pytest.mark.parametrize("seed", range(8))
def test_fsst_parse_matches_reference_on_straddling_symbols(seed):
    """Values cut near the walk's piece boundaries, over an alphabet whose
    long symbols overlap and straddle them, and a table with duplicated
    symbols (a duplicated 1- or 2-byte symbol takes its last code, a
    longer one its first)."""
    from parquet_go_ray.codecs import fsst

    rng = np.random.default_rng(seed)
    alpha = np.frombuffer(b"abcab" if seed % 2 else b"ab", dtype=np.uint8)
    sizes = [0, 1, 7, 8, 31, 32, 33, 39, 63, 64, 65, 97, 300, 2000]
    vals = [bytes(rng.choice(alpha, int(rng.choice(sizes)))) for _ in range(60)]
    lens = np.array([len(v) for v in vals], dtype=np.int64)
    data = np.frombuffer(b"".join(vals) or b"a", dtype=np.uint8)
    lens = lens if lens.sum() else np.array([1], dtype=np.int64)
    syms = [b"aaa", b"abcab", b"ab", b"bca", b"cabab", b"a", b"b", b"abcabcab", b"bcabca", b"ab", b"aaa", b"ba", b"ba", b"a"]
    got = fsst._greedy_parse(data, lens, fsst.SymbolTable(syms))
    want = _ref_greedy_parse(data, lens, _RefSymbolTable(syms))
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("prefix", [[], [b"x" * 300, b"", b"y" * 10], [b"", b""]])
def test_fsst_giant_segments_match_reference(prefix, monkeypatch):
    """The giant-value segment cuts of test_fsst.py, SEGMENT_BYTES scaled
    down: the same payload as the oracle's."""
    from parquet_go_ray.codecs import fsst

    rng = np.random.default_rng(5)
    monkeypatch.setattr(fsst, "SEGMENT_BYTES", 1 << 12)
    big = bytes(rng.integers(97, 105, size=3 << 12).astype(np.uint8))
    arr = pa.array(prefix + [big, b"small", b"", big + b"!", b"tail" * 50], type=pa.binary())
    got = fsst.encode_fsst(arr)[0]
    with monkeypatch.context() as m:
        m.setattr(fsst, "SEGMENT_BYTES", 1 << 12)
        want = _ref_encode_fsst(arr, m)
    assert got == want


@pytest.mark.parametrize("syms", [[b"aaa", b"a"], [b"aaaaa", b"aa", b"a"], [b"aaaaaaa", b"aaa"]])
def test_fsst_parse_matches_reference_on_runs(syms):
    """Runs of one byte under symbols whose lengths do not divide the piece
    length: a piece's walks from different entries never meet, so every
    piece's entry comes from composing the maps of all pieces before it."""
    from parquet_go_ray.codecs import fsst

    vals = [b"a" * n for n in (65, 97, 1000, 2000, 4097)]
    lens = np.array([len(v) for v in vals], dtype=np.int64)
    data = np.frombuffer(b"".join(vals), dtype=np.uint8)
    got = fsst._greedy_parse(data, lens, fsst.SymbolTable(syms))
    want = _ref_greedy_parse(data, lens, _RefSymbolTable(syms))
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
