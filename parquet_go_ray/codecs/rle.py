"""RLE / bit-packed hybrid (Parquet spec).

The reference writes RLE runs only (reference: encoding/encodingwrite.go:149-172
— its WriteRLE never emits bit-packed groups) but decodes both run kinds
(encoding/encodingread.go:231-268).  Per SURVEY §2.2 we implement the TRUE
hybrid on the write path: long runs -> RLE run ``varint(count<<1) + value in
ceil(w/8) LE bytes``; everything else -> bit-packed groups of 8 with header
``varint(groups<<1 | 1)``.  Mid-stream bit-packed spans always hold full
8-value groups (we borrow leading values from the following long run to round
up); only the final span may carry zero padding, which the decoder drops via
the known total count.

Vectorization: encode finds run boundaries with numpy and loops in Python
only over the runs of at least _MIN_RLE_RUN values; the short runs between
them are never visited one by one, since a pending bit-packed span is just
the values from the end of the last RLE run to the start of the next long
one, packed by one `pack_bits` call.  Decode makes one Python pass over the
run headers, then one vectorized pass reads the 8-value groups of every
bit-packed run: up to 8 bits wide from one array of the runs' bytes, each
group read as one little-endian u64 and split by shifts; wider through
`unpack_bits` at each group's start.

Also exposes the u32-length-prefixed framing used for definition levels
(reference: encoding/encodingwrite.go:174-181, layout/page.go:219-232) and the
dict-index form with a leading bit-width byte (layout/dictpage.go:155-225).

As a registered chunk codec ("rle_bp") it encodes integer columns via
frame-of-reference: values - min -> unsigned, then hybrid-packed.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..bits import bit_width, pack_bits, read_uvarint, unpack_bits, write_uvarint
from .base import arr_values_np, register

_MIN_RLE_RUN = 8  # shortest run worth an RLE encoding after group-borrowing


def encode_hybrid(values: np.ndarray, width: int) -> bytes:
    """values: non-negative ints fitting in `width` bits -> hybrid byte stream.
    The loop visits only runs of at least _MIN_RLE_RUN values (see the
    module docstring)."""
    n = len(values)
    if n == 0:
        return b""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    vbytes = (width + 7) // 8

    bounds = np.concatenate(([0], np.flatnonzero(v[1:] != v[:-1]) + 1, [n]))
    # mostly-unique fast path: single bit-packed span
    if len(bounds) - 1 > n - (n >> 2):
        return _bitpacked_span(v, 0, n, width, final=True)
    lens = np.diff(bounds)
    long = np.flatnonzero(lens >= _MIN_RLE_RUN)

    out = bytearray()
    done = 0  # values emitted so far; v[done:start] is the pending span
    for start, end, value in zip(
        bounds[long].tolist(), bounds[long + 1].tolist(), v[bounds[long]].tolist()
    ):
        pending = start - done
        if pending:
            # round the span up to a full group by borrowing from this run
            pending += -pending % 8
            if end - done - pending < _MIN_RLE_RUN:
                continue  # run too short after borrowing: fold it into the span
            out += _bitpacked_span(v, done, pending, width, final=False)
        out += _rle_run(value, end - done - pending, vbytes)
        done = end
    if done < n:
        out += _bitpacked_span(v, done, n - done, width, final=True)
    return bytes(out)


def _rle_run(value: int, count: int, vbytes: int) -> bytes:
    return write_uvarint(count << 1) + int(value).to_bytes(vbytes, "little")


def _bitpacked_span(v: np.ndarray, start: int, count: int, width: int, final: bool) -> bytes:
    if count == 0:
        return b""
    groups = (count + 7) // 8
    if not final:
        assert count % 8 == 0, "mid-stream bit-packed span must be full groups"
    vals = v[start : start + count]
    if count % 8:
        vals = np.concatenate((vals, np.zeros((-count) % 8, dtype=np.uint64)))
    return write_uvarint((groups << 1) | 1) + pack_bits(vals, width)


def decode_hybrid(buf: bytes, width: int, count: int, pos: int = 0) -> tuple[np.ndarray, int]:
    """Decode `count` values; returns (values uint64, end_pos).

    One Python pass reads the run headers; then one vectorized pass unpacks
    the 8-value groups of every bit-packed run (a stream has one width) and
    np.repeat expands the RLE runs.  The last run may overshoot `count`."""
    vbytes = (width + 7) // 8
    n = len(buf)
    lens, values, packed = [], [], []  # per run: values taken, RLE value, is bit-packed
    bp_pos, bp_groups = [], []  # per bit-packed run: payload start, groups taken
    filled = 0
    while filled < count and pos < n:
        header, pos = read_uvarint(buf, pos)
        if header & 1:  # bit-packed: (header>>1) groups of 8
            groups = header >> 1
            take = min(groups * 8, count - filled)
            bp_pos.append(pos)
            bp_groups.append(-(-take // 8))
            pos += groups * width
            if pos > n:
                raise ValueError(f"hybrid stream: bit-packed run ends past byte {n}")
            values.append(0)
        else:  # RLE run
            take = min(header >> 1, count - filled)
            values.append(int.from_bytes(buf[pos : pos + vbytes], "little") if vbytes else 0)
            pos += vbytes
        lens.append(take)
        packed.append(header & 1)
        filled += take
    if filled < count:
        raise ValueError(f"hybrid stream exhausted: {filled}/{count}")
    if not bp_pos or not width:
        return np.repeat(np.array(values, dtype=np.uint64), lens), pos
    bp = _unpack_groups(buf, width, bp_pos, bp_groups)
    if len(bp_pos) == len(lens):  # only bit-packed runs: only the last can be partial
        return bp[:count], pos
    out = np.repeat(np.array(values, dtype=np.uint64), lens)
    mask = np.repeat(np.array(packed, dtype=bool), lens)
    out[mask] = bp[: np.count_nonzero(mask)]
    return out, pos


# shift of each value of an 8-value group, for widths 0..8
_GROUP_SHIFTS = np.arange(9, dtype=np.uint64)[:, None] * np.arange(8, dtype=np.uint64)


def _unpack_groups(buf, width: int, run_pos: list, run_groups: list) -> np.ndarray:
    """The values of `run_groups[i]` 8-value groups at byte `run_pos[i]` of
    buf for every bit-packed run i, concatenated.

    A group of 8 values takes exactly `width` bytes.  Up to 8 bits, the
    bytes of every run are gathered into one (groups, width) array, each
    group read as one little-endian u64 (zero-padded from `width` bytes),
    then shifted by `arange(8) * width` and masked (one bit wide, a group is
    `np.unpackbits` of its byte); wider groups go through `unpack_bits` at
    each group's start."""
    raw = np.frombuffer(buf, dtype=np.uint8)
    total = sum(run_groups)
    if len(run_pos) == 1 and width <= 8:  # one run: its groups are contiguous
        data = raw[run_pos[0] : run_pos[0] + total * width].reshape(total, width)
    else:
        groups = np.array(run_groups, dtype=np.int64)
        first = np.cumsum(groups) - groups  # index of each run's first group
        starts = np.repeat(np.array(run_pos, dtype=np.int64) - first * width, groups)
        starts += np.arange(total, dtype=np.int64) * width
        if width > 8:
            return unpack_bits(buf, width, 8, starts=starts)
        data = np.take(raw, starts[:, None] + np.arange(width))
    if width == 1:  # a group is one byte of 8 LSB-first bits
        return np.unpackbits(data.reshape(-1), bitorder="little").astype(np.uint64)
    words = np.zeros((total, 8), dtype=np.uint8)
    words[:, :width] = data
    vals = words.view("<u8") >> _GROUP_SHIFTS[width]
    vals &= np.uint64((1 << width) - 1)
    return vals.reshape(-1)


# -- framings ----------------------------------------------------------------


def encode_levels(levels: np.ndarray, max_level: int) -> bytes:
    """u32-length-prefixed hybrid (v1 data-page level stream)."""
    payload = encode_hybrid(levels, bit_width(max_level))
    return len(payload).to_bytes(4, "little") + payload


def decode_levels(buf: bytes, max_level: int, count: int, pos: int = 0) -> tuple[np.ndarray, int]:
    ln = int.from_bytes(buf[pos : pos + 4], "little")
    vals, _ = decode_hybrid(buf, bit_width(max_level), count, pos + 4)
    return vals, pos + 4 + ln


def encode_levels_bitpacked(levels: np.ndarray, max_level: int) -> bytes:
    """Deprecated BIT_PACKED level stream (parquet-format Encodings.md):
    each level as a big-endian ``bit_width(max_level)``-bit group, groups
    concatenated MSB-first into one continuous bitstream, NO length prefix
    (the byte count is implied by num_values).  Write analog of the
    reference's deprecated encoder (encoding/encodingwrite.go:420-466);
    the reference cannot READ what it encodes (layout/page.go:669-671) —
    this engine writes AND reads the encoding."""
    w = bit_width(max_level)
    n = len(levels)
    if w == 0 or n == 0:
        return b""
    v = levels.astype(np.uint64, copy=False)
    shifts = np.arange(w - 1, -1, -1, dtype=np.uint64)
    bits = ((v[:, None] >> shifts) & 1).astype(np.uint8).ravel()
    return np.packbits(bits).tobytes()  # packbits default = MSB-first


def decode_levels_bitpacked(
    buf: bytes, max_level: int, count: int, pos: int = 0
) -> tuple[np.ndarray, int]:
    """Inverse of encode_levels_bitpacked; consumes ceil(count*width/8)
    bytes at `pos` and returns (levels, new_pos)."""
    w = bit_width(max_level)
    if w == 0 or count == 0:
        return np.zeros(count, np.uint64), pos
    nbytes = (count * w + 7) // 8
    bits = np.unpackbits(np.frombuffer(buf, np.uint8, nbytes, pos))[: count * w]
    shifts = np.arange(w - 1, -1, -1, dtype=np.uint64)
    vals = (bits.reshape(count, w).astype(np.uint64) << shifts).sum(
        axis=1, dtype=np.uint64
    )
    return vals, pos + nbytes


# -- registered column codec: frame-of-reference + hybrid --------------------


def encode_rle_bp(arr: pa.Array) -> tuple[bytes, dict]:
    v = arr_values_np(arr)
    if pa.types.is_boolean(arr.type):
        v = v.astype(np.uint64)
        ref = 0
    else:
        v = v.astype(np.int64, copy=False)
        ref = int(v.min()) if len(v) else 0
        with np.errstate(over="ignore"):
            v = (v - ref).astype(np.uint64)
    w = bit_width(int(v.max())) if len(v) else 0
    return encode_hybrid(v, w), {"w": w, "ref": ref}


def decode_rle_bp(payload: bytes, meta: dict, typ: pa.DataType) -> pa.Array:
    n = meta["rows"]
    vals, _ = decode_hybrid(payload, meta["w"], n) if n else (np.empty(0, np.uint64), 0)
    if pa.types.is_boolean(typ):
        return pa.array(vals.astype(bool), type=typ)
    with np.errstate(over="ignore"):
        out = (vals.astype(np.int64) + np.int64(meta["ref"]))
    return pa.array(out.astype(typ.to_pandas_dtype()), type=typ)


register("rle_bp", encode_rle_bp, decode_rle_bp)
