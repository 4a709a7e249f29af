"""BYTE_STREAM_SPLIT — byte-plane transpose for FLOAT/DOUBLE (and ints).

Reference: encoding/encodingwrite.go:504-554 / encodingread.go:437-485.
Pure numpy: encode views values as a (n, k) byte matrix and copies its
transpose; decode fills the (n, k) matrix one byte plane at a time.  Improves
downstream block compression of floats with shared exponent structure; the
encoding itself is size-neutral.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .base import arr_values_np, register


def encode_bss(arr: pa.Array) -> tuple[bytes, dict]:
    v = np.ascontiguousarray(arr_values_np(arr))
    k = v.dtype.itemsize
    planes = v.view(np.uint8).reshape(-1, k).T
    return np.ascontiguousarray(planes).tobytes(), {"k": k}


def decode_bss(payload: bytes, meta: dict, typ: pa.DataType) -> pa.Array:
    """One strided copy per byte plane: numpy's transpose copy of the
    (k, n) planes is several times slower than k column assignments."""
    n, k = meta["rows"], meta["k"]
    planes = np.frombuffer(payload, dtype=np.uint8).reshape(k, n)
    out = np.empty((n, k), dtype=np.uint8)
    for j in range(k):
        out[:, j] = planes[j]
    return pa.array(out.reshape(-1).view(typ.to_pandas_dtype()), type=typ)


register("byte_stream_split", encode_bss, decode_bss)
