"""Split-block Bloom filters (SBBF) for native PAR1 files.

Implements the public parquet-format BloomFilter spec: XXH64 (seed 0) over
the plain-encoded value, split-block filter of 256-bit blocks (8 x 32-bit
words), block chosen by multiply-shift on the high 32 hash bits, per-word
bit chosen by the published salt constants.  The reference engine
(xitongsys/parquet-go) has no bloom support at all — its pruning stops at
min/max statistics — so this is a beyond-reference feature.  One filter
serves both containers: the wire-spec filter embedded in real .parquet
files, and the per-chunk filters in RCC1 chunk headers
(chunk.py::_bloom_build, integers hashed as INT64).

XXH64 is hand-implemented from the public xxHash specification; the scalar
path is golden-vector tested and the vectorized fixed-width paths (the hot
ones: int32/int64/float/double columns) are equivalence-tested against it.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

_M = (1 << 64) - 1
_P1 = 0x9E3779B185EBCA87
_P2 = 0xC2B2AE3D27D4EB4F
_P3 = 0x165667B19E3779F9
_P4 = 0x85EBCA77C2B2AE63
_P5 = 0x27D4EB2F165667C5


def _rotl(x: int, r: int) -> int:
    return ((x << r) | (x >> (64 - r))) & _M


def _round(acc: int, lane: int) -> int:
    acc = (acc + lane * _P2) & _M
    return (_rotl(acc, 31) * _P1) & _M


def xxh64(data: bytes, seed: int = 0) -> int:
    """Scalar XXH64 (public xxHash spec), used for byte-array values and as
    the reference for the vectorized fixed-width paths."""
    n = len(data)
    pos = 0
    if n >= 32:
        v1 = (seed + _P1 + _P2) & _M
        v2 = (seed + _P2) & _M
        v3 = seed & _M
        v4 = (seed - _P1) & _M
        lim = n - 32
        while pos <= lim:
            l1, l2, l3, l4 = struct.unpack_from("<QQQQ", data, pos)
            v1 = _round(v1, l1)
            v2 = _round(v2, l2)
            v3 = _round(v3, l3)
            v4 = _round(v4, l4)
            pos += 32
        h = (_rotl(v1, 1) + _rotl(v2, 7) + _rotl(v3, 12) + _rotl(v4, 18)) & _M
        for v in (v1, v2, v3, v4):
            h = ((h ^ _round(0, v)) * _P1 + _P4) & _M
    else:
        h = (seed + _P5) & _M
    h = (h + n) & _M
    while pos + 8 <= n:
        (lane,) = struct.unpack_from("<Q", data, pos)
        h = ((_rotl(h ^ _round(0, lane), 27)) * _P1 + _P4) & _M
        pos += 8
    if pos + 4 <= n:
        (lane,) = struct.unpack_from("<I", data, pos)
        h = ((_rotl(h ^ (lane * _P1 & _M), 23)) * _P2 + _P3) & _M
        pos += 4
    while pos < n:
        h = ((_rotl(h ^ (data[pos] * _P5 & _M), 11)) * _P1) & _M
        pos += 1
    h ^= h >> 33
    h = (h * _P2) & _M
    h ^= h >> 29
    h = (h * _P3) & _M
    h ^= h >> 32
    return h


def _u64(x: int) -> np.uint64:
    return np.uint64(x)


def _vrotl(x: np.ndarray, r: int) -> np.ndarray:
    return (x << _u64(r)) | (x >> _u64(64 - r))


def xxh64_u64(vals: np.ndarray) -> np.ndarray:
    """Vectorized XXH64 of 8-byte little-endian inputs (seed 0): int64 /
    double / timestamp columns reinterpreted as uint64."""
    with np.errstate(over="ignore"):
        x = np.ascontiguousarray(vals).view(np.uint64) if vals.dtype != np.uint64 else vals
        k1 = _vrotl(x * _u64(_P2), 31) * _u64(_P1)
        h = np.full(x.shape, _u64((_P5 + 8) & _M), dtype=np.uint64)
        h = (_vrotl(h ^ k1, 27)) * _u64(_P1) + _u64(_P4)
        h ^= h >> _u64(33)
        h *= _u64(_P2)
        h ^= h >> _u64(29)
        h *= _u64(_P3)
        h ^= h >> _u64(32)
        return h


def _vround(acc: np.ndarray, lane: np.ndarray) -> np.ndarray:
    return _vrotl(acc + lane * _u64(_P2), 31) * _u64(_P1)


def _xxh64_var(data: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Vectorized XXH64 (seed 0) of the byte strings
    data[starts[i] : starts[i] + lengths[i]], vectorized ACROSS values: one
    step per 32-byte stripe of the longest value, then at most seven tail
    steps (8, 8, 8, 4, 1, 1, 1 bytes), each over the values it applies to.
    Bit-identical to the scalar reference (property-tested)."""
    n = len(lengths)
    lengths = lengths.astype(np.int64)

    def words(pos: np.ndarray, width: int) -> np.ndarray:  # (k, width) bytes
        return np.ascontiguousarray(data[pos[:, None] + np.arange(width)])

    with np.errstate(over="ignore"):
        h = np.full(n, _u64(_P5), np.uint64)
        stripes = lengths // 32
        big = np.flatnonzero(stripes)
        if len(big):
            seeds = [(_P1 + _P2) & _M, _P2, 0, (-_P1) & _M]
            acc = np.repeat(np.array(seeds, np.uint64)[:, None], len(big), axis=1)
            for st in range(int(stripes[big].max())):
                act = np.flatnonzero(stripes[big] > st)
                lanes = words(starts[big[act]] + 32 * st, 32).view("<u8").T
                acc[:, act] = _vround(acc[:, act], lanes)
            hb = _vrotl(acc[0], 1) + _vrotl(acc[1], 7) + _vrotl(acc[2], 12) + _vrotl(acc[3], 18)
            for v in acc:
                hb = (hb ^ _vround(np.zeros(len(big), np.uint64), v)) * _u64(_P1) + _u64(_P4)
            h[big] = hb
        h += lengths.astype(np.uint64)
        pos = starts + 32 * stripes
        rem = lengths - 32 * stripes
        for width in (8, 8, 8, 4, 1, 1, 1):
            act = np.flatnonzero(rem >= width)
            if not len(act):
                continue
            w = words(pos[act], width)
            x = h[act]
            if width == 8:
                lane = _vround(np.zeros(len(act), np.uint64), w.view("<u8")[:, 0])
                x = _vrotl(x ^ lane, 27) * _u64(_P1) + _u64(_P4)
            elif width == 4:
                x = _vrotl(x ^ (w.view("<u4")[:, 0].astype(np.uint64) * _u64(_P1)), 23) * _u64(_P2) + _u64(_P3)
            else:
                x = _vrotl(x ^ (w[:, 0].astype(np.uint64) * _u64(_P5)), 11) * _u64(_P1)
            h[act] = x
            pos[act] += width
            rem[act] -= width
        h ^= h >> _u64(33)
        h *= _u64(_P2)
        h ^= h >> _u64(29)
        h *= _u64(_P3)
        h ^= h >> _u64(32)
        return h


def xxh64_bytes(arr) -> np.ndarray:
    """Vectorized XXH64 over a null-free variable-length binary/string Arrow
    array."""
    from ..codecs.base import binary_parts

    lengths, data = binary_parts(arr)
    return _xxh64_var(data, np.cumsum(lengths) - lengths, lengths)


def xxh64_u32(vals: np.ndarray) -> np.ndarray:
    """Vectorized XXH64 of 4-byte little-endian inputs (seed 0): int32 /
    float columns reinterpreted as uint32."""
    with np.errstate(over="ignore"):
        x = np.ascontiguousarray(vals).view(np.uint32) if vals.dtype != np.uint32 else vals
        h = np.full(x.shape, _u64((_P5 + 4) & _M), dtype=np.uint64)
        h ^= x.astype(np.uint64) * _u64(_P1)
        h = (_vrotl(h, 23)) * _u64(_P2) + _u64(_P3)
        h ^= h >> _u64(33)
        h *= _u64(_P2)
        h ^= h >> _u64(29)
        h *= _u64(_P3)
        h ^= h >> _u64(32)
        return h


# SBBF salt constants from the parquet-format BloomFilter spec
_SALT = np.array(
    [0x47B6137B, 0x44974D91, 0x8824AD5B, 0xA2B7289D,
     0x705495C7, 0x2DF1424B, 0x9EFC4947, 0x5C6BFB31],
    dtype=np.uint32,
)


class SplitBlockBloom:
    """parquet-format split-block Bloom filter: 256-bit blocks, one bit per
    32-bit word per value, block index by multiply-shift on the high hash
    half, in-block mask from the low half x salts."""

    def __init__(self, num_bytes: int):
        assert num_bytes >= 32 and num_bytes % 32 == 0, num_bytes
        self.blocks = np.zeros((num_bytes // 32, 8), dtype=np.uint32)

    @classmethod
    def for_ndv(cls, ndv: int, fpp: float = 0.01) -> "SplitBlockBloom":
        """Size for an expected distinct count: bits/value for a blocked
        filter at the target fpp (c = 1.08 * standard bloom bits is a decent
        published approximation for 8-word blocks), rounded up to a
        power-of-two byte count in [32 B, 128 MB]."""
        bits = max(ndv, 1) * 1.08 * 1.44 * np.log2(1.0 / max(fpp, 1e-9))
        nb = 32
        while nb * 8 < bits and nb < (128 << 20):
            nb <<= 1
        return cls(nb)

    @property
    def num_bytes(self) -> int:
        return self.blocks.size * 4

    def _block_and_mask(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        h = np.asarray(h, dtype=np.uint64)
        with np.errstate(over="ignore"):
            block = ((h >> np.uint64(32)) * np.uint64(len(self.blocks))) >> np.uint64(32)
            key = (h & np.uint64(0xFFFFFFFF)).astype(np.uint32)
            y = key[:, None] * _SALT[None, :]  # uint32 wrap per spec
            mask = np.left_shift(np.uint32(1), (y >> np.uint32(27)).astype(np.uint32))
        return block.astype(np.int64), mask

    def insert(self, h: np.ndarray) -> None:
        block, mask = self._block_and_mask(h)
        np.bitwise_or.at(self.blocks, block, mask)

    def check(self, h: np.ndarray) -> np.ndarray:
        block, mask = self._block_and_mask(h)
        return ((self.blocks[block] & mask) == mask).all(axis=1)

    def to_bytes(self) -> bytes:
        return np.ascontiguousarray(self.blocks, dtype="<u4").tobytes()

    @classmethod
    def from_bytes(cls, b: bytes) -> "SplitBlockBloom":
        f = cls.__new__(cls)
        f.blocks = np.frombuffer(b, dtype="<u4").reshape(-1, 8).copy()
        return f


def hash_arrow_values(arr: pa.Array, pt: int) -> np.ndarray | None:
    """XXH64 hashes of an arrow array's non-null values, plain-encoded per
    the spec (fixed-width: LE bytes, vectorized; BYTE_ARRAY/FLBA: raw
    bytes, scalar over what the caller passes — pass uniques).  Returns
    None for unsupported physical types (BOOLEAN, INT96)."""
    from .parquet_meta import (
        PT_BYTE_ARRAY, PT_DOUBLE, PT_FLBA, PT_FLOAT, PT_INT32, PT_INT64,
    )

    if arr.null_count:
        arr = arr.drop_null()
    if len(arr) == 0:
        return np.empty(0, dtype=np.uint64)
    if pt in (PT_INT64, PT_DOUBLE):
        np_arr = arr.to_numpy(zero_copy_only=False)
        if np_arr.dtype.kind == "f":
            np_arr = np_arr + 0.0  # -0.0 -> +0.0: see hash_plain_scalar
        return xxh64_u64(np.ascontiguousarray(np_arr))
    if pt in (PT_INT32, PT_FLOAT):
        np_arr = arr.to_numpy(zero_copy_only=False)
        if np_arr.dtype.kind == "f":
            np_arr = np_arr + 0.0
        return xxh64_u32(np.ascontiguousarray(np_arr))
    if pt in (PT_BYTE_ARRAY, PT_FLBA):
        import pyarrow as pa

        if pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type) \
                or pa.types.is_binary(arr.type) or pa.types.is_large_binary(arr.type):
            return xxh64_bytes(arr)
        if pa.types.is_fixed_size_binary(arr.type):
            w = arr.type.byte_width
            data = np.frombuffer(arr.buffers()[1], dtype=np.uint8)[
                arr.offset * w : (arr.offset + len(arr)) * w
            ]
            return _xxh64_var(data, np.arange(len(arr)) * w, np.full(len(arr), w))
        vals = arr.to_pylist()
        return np.array(
            [xxh64(v if isinstance(v, bytes) else str(v).encode()) for v in vals],
            dtype=np.uint64,
        )
    return None


def hash_plain_scalar(value, pt: int) -> int | None:
    """XXH64 of one plain-encoded probe value (the read-side counterpart of
    hash_arrow_values for predicate probes)."""
    from .parquet_meta import (
        PT_BYTE_ARRAY, PT_DOUBLE, PT_FLBA, PT_FLOAT, PT_INT32, PT_INT64,
    )

    # two's-complement bytes: an unsigned (UINT_32/UINT_64) probe hashes
    # as the same plain bytes its column stores
    if pt == PT_INT64:
        return xxh64(struct.pack("<Q", int(value) & 0xFFFFFFFFFFFFFFFF))
    if pt == PT_INT32:
        return xxh64(struct.pack("<I", int(value) & 0xFFFFFFFF))
    if pt == PT_DOUBLE:
        # normalize signed zero on BOTH insert and probe: -0.0 and +0.0 are
        # distinct bit patterns, and a bloom false NEGATIVE silently prunes
        # row groups containing matching rows (-0.0 == 0.0 in SQL)
        return xxh64(struct.pack("<d", float(value) + 0.0))
    if pt == PT_FLOAT:
        return xxh64(struct.pack("<f", float(value) + 0.0))
    if pt in (PT_BYTE_ARRAY, PT_FLBA):
        return xxh64(value if isinstance(value, bytes) else str(value).encode())
    return None
