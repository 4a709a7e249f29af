"""Per-codec kernel microbench for traced runs.

Encodes and decodes a bounded sample of each of the workload's own columns
with every applicable codec through ``codecs.encode`` / ``codecs.decode``,
checks the round trip, and compares the measured encode-cost order of the
codecs with the order the selector's static cost table predicts.
"""

from __future__ import annotations

import statistics
import time

import pyarrow as pa
import pyarrow.parquet as pq

KERNELS = (
    "plain", "rle_bp", "dict_rle", "delta_bp", "delta_length_ba", "delta_ba",
    "byte_stream_split", "fsst",
)
_BINARY = ("plain", "dict_rle", "delta_length_ba", "delta_ba", "fsst")
_INTEGER = ("plain", "rle_bp", "dict_rle", "delta_bp", "byte_stream_split")
_FLOAT = ("plain", "dict_rle", "byte_stream_split")
SAMPLE_BYTES = 256 << 10
REPEATS = 3


def _kernels_for(typ: pa.DataType) -> tuple:
    if pa.types.is_string(typ) or pa.types.is_binary(typ) or pa.types.is_large_string(typ):
        return _BINARY
    if pa.types.is_integer(typ):
        return _INTEGER
    if pa.types.is_floating(typ):
        return _FLOAT
    return ()


def _sample(col: pa.Array) -> pa.Array:
    """Physical, null-free leading slice of at most SAMPLE_BYTES."""
    if pa.types.is_timestamp(col.type) or pa.types.is_date64(col.type):
        col = col.cast(pa.int64())
    col = col.drop_null()
    rows = max(1, min(len(col), int(len(col) * SAMPLE_BYTES / max(col.nbytes, 1))))
    return col.slice(0, rows)


def _median_time(fn) -> tuple[float, object]:
    times, out = [], None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def run(paths) -> tuple[dict, bool]:
    """Return ({metric: value}, all round trips exact)."""
    from parquet_go_ray import codecs
    from parquet_go_ray.selector import _static_slowdown

    table = pq.read_table(paths)
    acc = {k: [0, 0.0, 0.0] for k in KERNELS}  # bytes, encode s, decode s
    ok = True
    agree = pairs = 0
    for name in table.column_names:
        col = _sample(table[name].combine_chunks())
        kernels = _kernels_for(col.type)
        if not kernels or not len(col):
            continue
        nbytes = col.nbytes
        stats = {"avg_len": nbytes / len(col)}
        cost = {}
        for k in kernels:
            enc_s, (payload, meta) = _median_time(lambda: codecs.encode(k, col))
            dec_s, back = _median_time(lambda: codecs.decode(payload, meta, col.type))
            ok = ok and back.equals(col)
            acc[k][0] += nbytes
            acc[k][1] += enc_s
            acc[k][2] += dec_s
            cost[k] = enc_s / nbytes
        for i, a in enumerate(kernels):
            for b in kernels[i + 1:]:
                predicted = _static_slowdown(a, "none", col.type, stats) - _static_slowdown(b, "none", col.type, stats)
                if predicted == 0:
                    continue
                pairs += 1
                agree += (predicted > 0) == (cost[a] > cost[b])
    out = {}
    for k, (nbytes, enc_s, dec_s) in acc.items():
        out[f"kernel.{k}.encode_mb_s"] = nbytes / enc_s / 1e6 if enc_s else 0.0
        out[f"kernel.{k}.decode_mb_s"] = nbytes / dec_s / 1e6 if dec_s else 0.0
    out["selector.static_cost_rank_agreement"] = agree / pairs if pairs else 0.0
    return out, ok
