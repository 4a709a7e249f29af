"""PLAIN encoding — raw little-endian values.

Formats match the Parquet spec / reference byte-for-byte
(reference: encoding/encodingwrite.go:34-130, golden vectors in
encoding/encodingwrite_test.go:104-214):
  * BOOLEAN  -> LSB-first bit-packed, 1 bit/value
  * INT32/INT64/FLOAT/DOUBLE -> raw LE array (zero-copy from Arrow buffer)
  * BYTE_ARRAY -> per-value ``u32 LE length + bytes`` (vectorized scatter;
    decode walks the prefixes in one scalar pass, then gathers the bytes once)
  * FIXED_LEN_BYTE_ARRAY -> concatenated raw bytes
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .base import arr_values_np, binary_parts, build_binary, register

_U32 = struct.Struct("<I").unpack_from


def encode_plain(arr: pa.Array) -> tuple[bytes, dict]:
    t = arr.type
    if pa.types.is_boolean(t):
        v = arr.to_numpy(zero_copy_only=False).astype(np.uint8)
        return np.packbits(v, bitorder="little").tobytes(), {}
    if pa.types.is_string(t) or pa.types.is_binary(t) or pa.types.is_large_string(t) or pa.types.is_large_binary(t):
        # interleave u32-LE length prefixes with value bytes entirely in
        # Arrow: element-wise concat of a fixed_size_binary(4) prefix array
        # with the values — the result's data buffer IS the PLAIN stream.
        # No per-value Python slicing (29x on many-small-values arrays) and
        # no per-byte int64 gather-index scratch.
        if arr.null_count:
            # callers strip nulls upstream; if one slips through, keep the
            # historical zero-length-prefix bytes (binary_join_element_wise
            # would otherwise DROP the null element's prefix and silently
            # truncate the stream)
            arr = arr.fill_null(b"" if pa.types.is_binary(t) or pa.types.is_large_binary(t) else "")
        lengths, data = binary_parts(arr)
        n = len(lengths)
        total = 4 * n + len(data)
        lb = pa.FixedSizeBinaryArray.from_buffers(
            pa.binary(4), n, [None, pa.py_buffer(lengths.astype("<u4").tobytes())]
        )
        vals = arr
        if pa.types.is_string(t):
            vals = vals.cast(pa.binary())
        elif pa.types.is_large_string(t):
            vals = vals.cast(pa.large_binary())
        if pa.types.is_binary(vals.type) and total > (1 << 31) - 16:
            vals = vals.cast(pa.large_binary())  # joined offsets would overflow
        joined = pc.binary_join_element_wise(
            lb.cast(vals.type), vals, pa.scalar(b"", type=vals.type)
        )
        if isinstance(joined, pa.ChunkedArray):
            joined = joined.combine_chunks()
        off_t = np.int64 if pa.types.is_large_binary(joined.type) else np.int32
        start = int(
            np.frombuffer(
                joined.buffers()[1],
                dtype=off_t,
                count=1,
                offset=joined.offset * np.dtype(off_t).itemsize,
            )[0]
        )
        return bytes(memoryview(joined.buffers()[2])[start : start + total]), {}
    if pa.types.is_fixed_size_binary(t):
        buffers = arr.buffers()
        w = t.byte_width
        data = np.frombuffer(buffers[1], dtype=np.uint8, count=len(arr) * w, offset=arr.offset * w)
        return data.tobytes(), {"width": w}
    # numeric: raw LE buffer
    v = arr_values_np(arr)
    return np.ascontiguousarray(v).tobytes(), {}


def decode_plain(payload: bytes, meta: dict, typ: pa.DataType) -> pa.Array:
    n = meta["rows"]
    if pa.types.is_boolean(typ):
        bits = np.unpackbits(np.frombuffer(payload, np.uint8), bitorder="little")[:n]
        return pa.array(bits.astype(bool), type=pa.bool_())
    if pa.types.is_string(typ) or pa.types.is_binary(typ) or pa.types.is_large_string(typ) or pa.types.is_large_binary(typ):
        # the length-prefix chain is sequential (pos_{i+1} = pos_i + 4 +
        # len_i): one scalar pass collects where each prefix sits, then one
        # boolean-mask gather keeps every byte but the prefixes
        starts = []
        ap = starts.append
        pos = 0
        try:
            for _ in range(n):
                ap(pos)
                pos += 4 + _U32(payload, pos)[0]
        except struct.error:
            raise ValueError(f"PLAIN BYTE_ARRAY: prefix past byte {len(payload)}") from None
        starts = np.array(starts, dtype=np.int64)
        lengths = np.diff(starts, append=pos) - 4
        keep = np.ones(pos, dtype=bool)
        for k in range(4):
            keep[starts + k] = False
        data = np.frombuffer(payload, dtype=np.uint8, count=pos)[keep]  # ValueError past the end
        return build_binary(lengths, data, typ)
    if pa.types.is_fixed_size_binary(typ):
        return pa.FixedSizeBinaryArray.from_buffers(typ, n, [None, pa.py_buffer(payload)])
    np_t = typ.to_pandas_dtype()
    v = np.frombuffer(payload, dtype=np_t, count=n)
    return pa.array(v, type=typ)


register("plain", encode_plain, decode_plain)
