"""DELTA_BINARY_PACKED / DELTA_LENGTH_BYTE_ARRAY / DELTA_BYTE_ARRAY.

Byte format matches the Parquet spec and the reference's golden vectors
(reference: encoding/encodingwrite.go:287-502; golden bytes in
encoding/encodingwrite_test.go:216-286 — e.g. int32 {1..5} ->
[128,1,4,5,2,2,0,0,0,0]).  Block geometry: blocks of 128 deltas = 4
miniblocks x 32; per-block min-delta (frame of reference) zigzag-varint; 4
per-miniblock bit-width bytes; LSB-first bit-packed normalized deltas; short
final block padded with min-delta (so pad packs as 0); empty trailing
miniblocks get width 0 and no payload.

Vectorization: np.diff for deltas (wraparound int64 semantics, same as Go),
per-block/per-miniblock reductions via reshape, and no Python loop per
block on either side.  Encode writes every block's min-delta varint with
one `bits.uvarints` call, takes each block's and miniblock's byte offset
from cumsums of the varint lengths and the width matrix, and scatters the
varints, the width bytes and the payloads into one output array; every
miniblock of one width is packed by one `pack_bits` call.  Decode has the
mirror shape, except for one Python pass over the block headers (a block's
offset depends on the varint before it; the pass reads each min-delta
varint inline): the miniblock offsets come from a cumsum of the width
matrix, one `unpack_region` pass unpacks every miniblock at its own width,
each block's min delta is added by broadcasting, and one cumsum rebuilds
the values.

DELTA_BYTE_ARRAY prefix lengths are computed vectorized on a byte matrix of
the first `PREFIX_CAP` bytes of each value (any prefix <= the true common
prefix is format-valid, so capping trades ratio, never correctness — the
sequential per-pair scan in the reference, encoding/encodingwrite.go:479-493,
is the shape we deliberately avoid).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..bits import (
    pack_bits,
    read_uvarint,
    unpack_region,
    uvarints,
    write_uvarint,
    zigzag_decode_scalar,
    zigzag_encode,
    zigzag_encode_scalar,
)
from .base import arr_values_np, binary_parts, build_binary, register

BLOCK = 128
MINIBLOCKS = 4
MB_VALUES = BLOCK // MINIBLOCKS  # 32
PREFIX_CAP = 256


# ---------------------------------------------------------------------------
# DELTA_BINARY_PACKED core: int64 ndarray -> bytes
# ---------------------------------------------------------------------------


def delta_bp_encode_np(v: np.ndarray, bits: int = 64) -> bytes:
    """DELTA_BINARY_PACKED stream of `v`.  Deltas wrap around at `bits`
    (32 for an INT32 column, as the spec requires: its miniblock widths
    then stay within 32 bits)."""
    v = v.astype(np.int64, copy=False)
    n = len(v)
    head = write_uvarint(BLOCK) + write_uvarint(MINIBLOCKS) + write_uvarint(n)
    if n == 0:
        return head
    head += write_uvarint(zigzag_encode_scalar(int(v[0])))
    if n == 1:
        return head

    with np.errstate(over="ignore"):
        deltas = np.subtract(v[1:], v[:-1])  # wraparound int64, like Go
    if bits == 32:
        deltas = deltas.astype(np.int32).astype(np.int64)  # wraparound int32
    nd = len(deltas)
    nblocks = (nd + BLOCK - 1) // BLOCK

    # pad deltas to whole blocks; pad value = that block's min so it packs as
    # 0, and a miniblock holding only padding gets width 0 and no payload
    padded = np.empty(nblocks * BLOCK, dtype=np.int64)
    padded[:nd] = deltas
    blocks = padded.reshape(nblocks, BLOCK)
    # per-block min over REAL values only
    last_real = nd - (nblocks - 1) * BLOCK  # valid count in final block
    mins = blocks.min(axis=1)
    if last_real < BLOCK:
        mins[-1] = blocks[-1, :last_real].min()
        blocks[-1, last_real:] = mins[-1]
    with np.errstate(over="ignore"):
        norm = (blocks - mins[:, None]).view(np.uint64)

    # per-miniblock widths: bits.Len64(max).  frexp's exponent is the exact
    # bit length of an exactly representable float, so it runs on the two
    # 32-bit halves: a float64 log2 of the whole word rounds up near 2^k.
    mb = norm.reshape(nblocks, MINIBLOCKS, MB_VALUES)
    mb_max = mb.max(axis=2)
    _, hi_len = np.frexp((mb_max >> np.uint64(32)).astype(np.float64))
    _, lo_len = np.frexp((mb_max & np.uint64(0xFFFFFFFF)).astype(np.float64))
    widths = np.where(hi_len > 0, hi_len + 32, lo_len).astype(np.int64)


    # a block is varint(zigzag(min delta)), its width bytes, then the
    # payloads of its miniblocks (width * MB_VALUES / 8 bytes each): the
    # offsets of all three come from the lengths, and each part is
    # scattered into one output array
    min_vi, min_len = uvarints(zigzag_encode(mins))
    mb_bytes = widths * (MB_VALUES // 8)
    block_len = min_len + MINIBLOCKS + mb_bytes.sum(axis=1)
    block_off = len(head) + np.cumsum(block_len) - block_len
    out = np.empty(len(head) + int(block_len.sum()), dtype=np.uint8)
    out[: len(head)] = np.frombuffer(head, dtype=np.uint8)
    # byte j of the concatenated varints belongs at its block's offset plus
    # j minus the bytes of the varints before it
    out[np.repeat(block_off - np.cumsum(min_len) + min_len, min_len) + np.arange(len(min_vi))] = min_vi
    width_off = block_off + min_len
    out[width_off[:, None] + np.arange(MINIBLOCKS)] = widths
    mb_off = (width_off + MINIBLOCKS)[:, None] + np.cumsum(mb_bytes, axis=1) - mb_bytes
    flat_w, flat_off = widths.reshape(-1), mb_off.reshape(-1)
    flat_mb = mb.reshape(-1, MB_VALUES)
    for w in np.unique(flat_w[flat_w > 0]).tolist():
        sel = np.flatnonzero(flat_w == w)
        packed = np.frombuffer(pack_bits(flat_mb[sel].reshape(-1), w), dtype=np.uint8)
        step = w * MB_VALUES // 8
        out[flat_off[sel][:, None] + np.arange(step)] = packed.reshape(-1, step)
    return out.tobytes()


def delta_bp_decode_np(buf: bytes, pos: int = 0) -> tuple[np.ndarray, int]:
    """Decode one DELTA_BINARY_PACKED stream at buf[pos:] -> (int64 values, end pos).

    Malformed geometry, a bit width above 64 and a truncated stream raise
    ValueError."""
    try:
        block, pos = read_uvarint(buf, pos)
        mbs, pos = read_uvarint(buf, pos)
        n, pos = read_uvarint(buf, pos)
        if block <= 0 or block % 128 or mbs <= 0 or block % mbs or (block // mbs) % 32:
            raise ValueError(
                f"DELTA_BINARY_PACKED: block of {block} in {mbs} miniblocks is not"
                " a multiple of 128 split into multiples of 32"
            )
        if n == 0:
            return np.empty(0, dtype=np.int64), pos
        zz, pos = read_uvarint(buf, pos)
        mb_vals = block // mbs
        nd = n - 1
        nblocks = -(-nd // block)
        if nblocks * (1 + mbs) > len(buf) - pos:  # each block header is >= 1 + mbs bytes
            raise ValueError("DELTA_BINARY_PACKED: truncated stream")
        last_used = -(-(nd - (nblocks - 1) * block) // mb_vals)
        # header pass: per block its min delta (the zigzag varint read
        # inline, one byte in the common case) and where its widths sit
        mins, heads = [], []
        for b in range(nblocks):
            z = buf[pos]
            pos += 1
            if z & 0x80:
                z &= 0x7F
                shift = 7
                while True:
                    c = buf[pos]
                    pos += 1
                    z |= (c & 0x7F) << shift
                    if c < 0x80:
                        break
                    shift += 7
            mins.append((z >> 1) ^ -(z & 1))
            heads.append(pos)
            pos += mbs + sum(buf[pos : pos + (mbs if b + 1 < nblocks else last_used)]) * mb_vals // 8
    except IndexError:
        raise ValueError("DELTA_BINARY_PACKED: truncated stream") from None
    if pos > len(buf):
        raise ValueError("DELTA_BINARY_PACKED: truncated stream")
    first = zigzag_decode_scalar(zz)
    out = np.empty(n, dtype=np.int64)
    out[0] = first
    if nd == 0:
        return out, pos
    try:
        mins = np.array(mins, dtype=np.int64).view(np.uint64)
    except OverflowError:
        raise ValueError("DELTA_BINARY_PACKED: min delta wider than 64 bits") from None
    heads = np.array(heads, dtype=np.int64)
    raw = np.frombuffer(buf, dtype=np.uint8)
    widths = raw[heads[:, None] + np.arange(mbs)].astype(np.int64)
    widths[-1, last_used:] = 0  # widths of unneeded miniblocks may be arbitrary
    if widths.max() > 64:
        raise ValueError(f"DELTA_BINARY_PACKED: bit width {widths.max()} above 64")
    # miniblock payloads follow their block's widths back to back, from
    # the first block's payload to pos; one pass unpacks every miniblock at
    # its own width
    lo = int(heads[0]) + mbs
    mb_bytes = widths * (mb_vals // 8)
    mb_start = np.cumsum(mb_bytes, axis=1)
    mb_start -= mb_bytes
    mb_start += (heads - (lo - mbs))[:, None]
    deltas = unpack_region(raw[lo:pos], widths.reshape(-1), mb_vals, mb_start.reshape(-1))
    deltas.reshape(nblocks, block)[:] += mins[:, None]  # uint64 add: wraps like Go's int64
    # first rides in the first delta, so one cumsum yields every value
    deltas[:1] += np.uint64(first & 0xFFFFFFFFFFFFFFFF)  # negative first: mask before uint64 cast
    np.cumsum(deltas[:nd], out=out[1:].view(np.uint64))
    return out, pos


# ---------------------------------------------------------------------------
# registered codecs
# ---------------------------------------------------------------------------


def encode_delta_bp(arr: pa.Array) -> tuple[bytes, dict]:
    v = arr_values_np(arr).astype(np.int64, copy=False)
    return delta_bp_encode_np(v), {}


def decode_delta_bp(payload: bytes, meta: dict, typ: pa.DataType) -> pa.Array:
    v, _ = delta_bp_decode_np(payload)
    return pa.array(v.astype(typ.to_pandas_dtype(), copy=False), type=typ)


def encode_delta_length_ba(arr: pa.Array) -> tuple[bytes, dict]:
    lengths, data = binary_parts(arr)
    return delta_bp_encode_np(lengths) + data.tobytes(), {}


def decode_delta_length_ba(payload: bytes, meta: dict, typ: pa.DataType) -> pa.Array:
    lengths, pos = delta_bp_decode_np(payload)
    data = np.frombuffer(payload, dtype=np.uint8, offset=pos)
    return build_binary(lengths, data, typ)


def _common_prefix_lens(lengths: np.ndarray, data: np.ndarray) -> np.ndarray:
    """prefix_len[i] = shared prefix of value i with value i-1, capped at PREFIX_CAP."""
    n = len(lengths)
    pref = np.zeros(n, dtype=np.int64)
    if n <= 1:
        return pref
    cap = min(PREFIX_CAP, int(lengths.max()) if n else 0)
    if cap == 0:
        return pref
    # (n, cap) byte matrix of each value's first `cap` bytes, zero-padded
    mat = np.zeros((n, cap), dtype=np.uint8)
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    take = np.minimum(lengths, cap)
    total = int(take.sum())
    if total:
        row = np.repeat(np.arange(n, dtype=np.int64), take)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.concatenate(([0], np.cumsum(take[:-1]))), take
        )
        src = np.repeat(starts, take) + within
        mat[row, within] = data[src]
    eq = mat[1:] == mat[:-1]
    # prefix length = position of first mismatch
    mismatch = ~eq
    any_mm = mismatch.any(axis=1)
    first_mm = np.where(any_mm, mismatch.argmax(axis=1), cap)
    bound = np.minimum(np.minimum(lengths[1:], lengths[:-1]), cap)
    pref[1:] = np.minimum(first_mm, bound)
    return pref


def encode_delta_ba(arr: pa.Array) -> tuple[bytes, dict]:
    lengths, data = binary_parts(arr)
    n = len(lengths)
    pref = _common_prefix_lens(lengths, data)
    suf_lens = lengths - pref
    # gather suffix bytes
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    total = int(suf_lens.sum())
    if total:
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.concatenate(([0], np.cumsum(suf_lens[:-1]))), suf_lens
        )
        src = np.repeat(starts + pref, suf_lens) + within
        suffix_data = data[src]
    else:
        suffix_data = np.empty(0, dtype=np.uint8)
    payload = delta_bp_encode_np(pref) + delta_bp_encode_np(suf_lens) + suffix_data.tobytes()
    return payload, {}


def decode_delta_ba(payload: bytes, meta: dict, typ: pa.DataType) -> pa.Array:
    pref, pos = delta_bp_decode_np(payload)
    suf_lens, pos = delta_bp_decode_np(payload, pos)
    suffixes = np.frombuffer(payload, dtype=np.uint8, offset=pos)
    n = len(pref)
    lengths = pref + suf_lens
    out = np.empty(int(lengths.sum()), dtype=np.uint8)
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    suf_starts = np.zeros(n, dtype=np.int64)
    np.cumsum(suf_lens[:-1], out=suf_starts[1:])
    # suffix scatter is vectorizable; prefix copy references the PREVIOUS
    # reconstructed value -> inherently sequential, but only across values with
    # pref>0 and only for `pref` bytes (cheap: path-like columns).
    total_suf = int(suf_lens.sum())
    if total_suf:
        within = np.arange(total_suf, dtype=np.int64) - np.repeat(suf_starts, suf_lens)
        dest = np.repeat(starts + pref, suf_lens) + within
        out[dest] = suffixes
    for i in range(n):
        p = pref[i]
        if p:
            out[starts[i] : starts[i] + p] = out[starts[i - 1] : starts[i - 1] + p]
    return build_binary(lengths, out, typ)


register("delta_bp", encode_delta_bp, decode_delta_bp)
register("delta_length_ba", encode_delta_length_ba, decode_delta_length_ba)
register("delta_ba", encode_delta_ba, decode_delta_ba)
