"""Low-level bit/byte primitives shared by every codec.

Semantics follow the Parquet encoding spec, pinned by the reference's golden
byte vectors (reference: encoding/encodingwrite.go:132-270 for
varint / RLE / LSB-first bit-packing; encoding/encodingwrite_test.go:33-102).
All hot paths are vectorized numpy.  `uvarints` writes a whole array of
ULEB128 headers at once, `pack_bits` packs a whole span of values, and
`unpack_region` reads every byte-aligned bit-packed run of a page in one
pass whatever the mix of widths (`unpack_bits` is its one-width form); a
codec's remaining Python loops visit only what it must emit one at a time
(the decoders' run and block headers, the hybrid encoder's RLE runs).
"""

from __future__ import annotations

import functools

import numpy as np

# ---------------------------------------------------------------------------
# ULEB128 varint (reference: encoding/encodingwrite.go:132-147)
# ---------------------------------------------------------------------------


def write_uvarint(x: int) -> bytes:
    """Unsigned LEB128: 7 bits per byte, high bit = continuation."""
    x = int(x)
    if x < 0:
        raise ValueError("uvarint requires non-negative input")
    out = bytearray()
    while True:
        b = x & 0x7F
        x >>= 7
        if x:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def read_uvarint(buf, pos: int) -> tuple[int, int]:
    """Return (value, new_pos)."""
    x = 0
    shift = 0
    while True:
        b = buf[pos]
        pos += 1
        x |= (b & 0x7F) << shift
        if not (b & 0x80):
            return x, pos
        shift += 7


def zigzag_encode(v: np.ndarray) -> np.ndarray:
    """int64 -> uint64 zigzag, wraparound-safe (matches Go's bit arithmetic)."""
    v = v.astype(np.int64, copy=False)
    with np.errstate(over="ignore"):
        return ((v.astype(np.uint64) << np.uint64(1)) ^ (v >> np.int64(63)).astype(np.uint64))


def zigzag_decode(u: np.ndarray) -> np.ndarray:
    u = u.astype(np.uint64, copy=False)
    return ((u >> np.uint64(1)) ^ (-(u & np.uint64(1))).astype(np.uint64)).astype(np.int64)


def zigzag_encode_scalar(v: int) -> int:
    return ((v << 1) ^ (v >> 63)) & 0xFFFFFFFFFFFFFFFF


def zigzag_decode_scalar(u: int) -> int:
    v = (u >> 1) ^ -(u & 1)
    # wrap to int64
    v &= 0xFFFFFFFFFFFFFFFF
    if v >= 1 << 63:
        v -= 1 << 64
    return v


# ---------------------------------------------------------------------------
# LSB-first bit packing (reference: encoding/encodingwrite.go:216-270,
# golden: [0..7]@3bits -> 88 C6 FA)
# ---------------------------------------------------------------------------


def bit_width(x: int) -> int:
    """Number of bits to represent x (0 -> 0), Go's bits.Len64."""
    return int(x).bit_length()


def pack_bits(vals: np.ndarray, width: int) -> bytes:
    """Pack len(vals) unsigned ints LSB-first at `width` bits each.

    len(vals)*width must be a multiple of 8 (callers pad to 8-value groups).
    Up to 8 bits, a value's bits come from a shift matrix; above that, the
    low ceil(width / 8) little-endian bytes of each uint64 are unpacked to
    bits, of which the low `width` are kept.
    """
    if width == 0 or len(vals) == 0:
        return b""
    v = np.ascontiguousarray(vals, dtype="<u8")
    if width <= 8:
        shifts = np.arange(width, dtype=np.uint64)
        bits = ((v[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)
    else:
        low = v.view(np.uint8).reshape(-1, 8)[:, : (width + 7) // 8]
        bits = np.unpackbits(low, axis=1, bitorder="little")[:, :width]
    return np.packbits(bits.reshape(-1), bitorder="little").tobytes()


def unpack_bits(
    buf, width: int, count: int, offset: int = 0, starts: np.ndarray | None = None
) -> np.ndarray:
    """Inverse of pack_bits: read `count` values of `width` bits from buf[offset:].

    With `starts` (byte offsets into buf), read `count` values at each offset
    instead and return the runs concatenated (`unpack_region` over the bytes
    the runs cover).  A run reaching past the end of buf raises ValueError."""
    if not 0 <= width <= 64:
        raise ValueError(f"bit width {width} outside 0..64")
    starts = np.array([offset], np.int64) if starts is None else np.asarray(starts, np.int64)
    if width == 0 or count == 0 or len(starts) == 0:
        return np.zeros(count * len(starts), dtype=np.uint64)
    raw = np.frombuffer(buf, dtype=np.uint8)
    lo = int(starts.min())
    hi = int(starts.max()) + (count * width + 7) // 8
    if lo < 0 or hi > len(raw):
        raise ValueError(f"bit-packed run [{lo}, {hi}) outside a {len(raw)}-byte buffer")
    return unpack_region(raw[lo:hi], np.full(len(starts), width, np.int64), count, starts - lo)


# (1 << w) - 1 for every width 0..64
_MASKS = np.array([(1 << w) - 1 for w in range(65)], dtype=np.uint64)


@functools.lru_cache(maxsize=8)
def _run_layout(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Value j of a byte-aligned run of width w starts j * w bits in: its
    byte offset and its shift within that byte, as (65, count) tables
    indexed by width.  Runs come in few lengths (a delta miniblock, a
    hybrid group of 8), so the tables are cached per length."""
    bits = np.arange(65, dtype=np.int64)[:, None] * np.arange(count, dtype=np.int64)
    return bits >> 3, (bits & 7).astype(np.uint64)


def unpack_region(region: np.ndarray, widths: np.ndarray, count: int, starts: np.ndarray) -> np.ndarray:
    """Read `count` values of `widths[i]` bits at byte `starts[i]` of the
    uint8 `region` for every run i, in one pass whatever the mix of widths;
    return the runs concatenated.  The callers check that every run lies in
    the region and that every width is in 0..64 (int64 arrays).

    Gather-shift-mask: each value is the little-endian 64-bit word at its
    run's start plus its byte offset, shifted right and masked to the run's
    width (offsets and shifts are rows of `_run_layout`).  A value of a run
    wider than 57 bits can straddle a ninth byte, whose bits are or-ed in.
    Words are read (`np.take`) from a zero-padded copy of the region, so
    every index is in range."""
    padded = np.zeros(len(region) + 16, dtype=np.uint8)
    padded[: len(region)] = region
    words = np.ndarray(len(padded) - 7, dtype="<u8", buffer=padded, strides=(1,))
    offsets, shifts = _run_layout(count)
    byte = offsets[widths]
    byte += starts[:, None]
    shift = shifts[widths]
    vals = np.take(words, byte, mode="clip")  # in range by construction; clip skips the check
    vals >>= shift
    wide = np.flatnonzero(widths > 57)
    if len(wide):
        ninth = np.take(padded, byte[wide] + 8).astype(np.uint64) << np.uint64(1)
        vals[wide] |= ninth << (np.uint64(63) - shift[wide])
    vals &= _MASKS[widths][:, None]
    return vals.reshape(-1)


_VARINT_SHIFTS = np.arange(0, 64, 7, dtype=np.uint64)  # 10 bytes cover 64 bits


def uvarints(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ULEB128 of every value at once: (the varints back to back as uint8,
    the byte length of each).  Byte k of a varint holds bits 7k..7k+6 and
    is present when k is 0 or bits remain at or above 7k; every byte but
    the last sets the continuation bit."""
    u = np.asarray(vals, dtype=np.uint64)[:, None]
    lens = 1 + np.count_nonzero(u >> _VARINT_SHIFTS[1:], axis=1)
    k = np.arange(len(_VARINT_SHIFTS))
    out = ((u >> _VARINT_SHIFTS) & np.uint64(0x7F)).astype(np.uint8)
    out[k < lens[:, None] - 1] |= 0x80
    return out[k < lens[:, None]], lens
