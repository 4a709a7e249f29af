"""Sampling-based per-column-chunk codec auto-selector.

Replaces the reference's static per-column tag dispatch
(reference: layout/page.go:167-191, tag grammar common/common.go:221-275) with
measurement: take a deterministic strided row sample of the chunk, compute
cheap stats (cardinality ratio, run count, sortedness, avg string length) to
prune the candidate set, TRIAL-ENCODE the sample with each surviving
(codec, outer-compressor) pair, and pick the smallest estimated size.

The reference's default policy — PLAIN or PLAIN_DICTIONARY + SNAPPY
(writer/writer.go:65) — is always in the candidate set, and
``EngineConfig.enforce_reference_floor`` additionally computes the ACTUAL
reference-policy size on the full chunk (snappy is ~GB/s, this is cheap) and
falls back to it if the sampled choice came out larger, making
"output <= reference compressed size" hold per chunk by construction
(SURVEY §7.4).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import codecs
from .chunk import ZSTD_LEVEL, _outer_compress
from .config import DEFAULT, EngineConfig

REFERENCE_POLICY = (("plain", "snappy"), ("dict_rle", "snappy"))


def logical_nbytes(arr: pa.Array) -> int:
    """Slice-aware logical byte size (Arrow .buffers() reports PARENT buffer
    sizes for slices, which silently inflates ratio denominators)."""
    n = len(arr)
    t = arr.type
    if n == 0:
        return 0
    if (
        pa.types.is_string(t)
        or pa.types.is_binary(t)
        or pa.types.is_large_string(t)
        or pa.types.is_large_binary(t)
    ):
        data = int(pc.sum(pc.binary_length(arr)).as_py() or 0)
        return data + 4 * n
    if pa.types.is_boolean(t):
        return (n + 7) // 8
    try:
        return n * t.bit_width // 8
    except (ValueError, AttributeError):
        return n * 8


def _sample(values: pa.Array, k: int, max_bytes: int | None = None) -> pa.Array:
    n = len(values)
    if n > k:
        # ceil-divide: floor made step==1 for k < n < 2k, degrading the
        # "strided sample" to a prefix slice of a possibly-clustered chunk
        step = -(n // -k)
        idx = np.arange(0, n, step, dtype=np.int64)[:k]
        values = values.take(pa.array(idx))
    if max_bytes is not None and len(values) > 8:
        nb = logical_nbytes(values)
        if nb > max_bytes:
            # re-stride (NOT a prefix slice) so the subsample stays
            # representative of the whole chunk
            rows = max(int(len(values) * (max_bytes / nb)), 8)
            values = _sample(values, rows)
    return values


def column_stats(values: pa.Array) -> dict:
    """Cheap sampled stats driving candidate pruning (generalizes the
    reference's min/max/null accounting, layout/page.go:83-123)."""
    n = len(values)
    t = values.type
    st = {"n": n, "type": str(t)}
    if n == 0:
        return st
    st["card_ratio"] = pc.count_distinct(values).as_py() / n
    if pa.types.is_integer(t) or pa.types.is_floating(t) or pa.types.is_boolean(t):
        v = values.to_numpy(zero_copy_only=False)
        if n > 1:
            neq = v[1:] != v[:-1]
            st["run_ratio"] = float(np.count_nonzero(neq) + 1) / n
            if not pa.types.is_boolean(t):
                st["sortedness"] = float(np.count_nonzero(v[1:] >= v[:-1])) / (n - 1)
        else:
            st["run_ratio"] = 1.0
    elif pa.types.is_string(t) or pa.types.is_binary(t) or pa.types.is_large_string(t) or pa.types.is_large_binary(t):
        from .codecs.base import binary_parts

        lengths, data = binary_parts(values)
        st["avg_len"] = float(lengths.mean()) if n else 0.0
        if n > 1:
            neq = lengths[1:] != lengths[:-1]
            st["run_ratio"] = float(np.count_nonzero(neq) + 1) / n
    return st


def candidates_for(values: pa.Array, stats: dict, cfg: EngineConfig) -> list[tuple[str, str]]:
    t = values.type
    card = stats.get("card_ratio", 1.0)
    cands: list[tuple[str, str]] = []
    outers = cfg.outer_codecs

    def add(codec, outer_list=outers):
        for o in outer_list:
            if o in outers:
                cands.append((codec, o))

    if pa.types.is_boolean(t):
        add("plain", ("none",))
        add("rle_bp", ("none",))
    elif pa.types.is_integer(t):
        add("plain")
        add("delta_bp", ("none", "zstd"))
        if card < 0.7:
            add("rle_bp", ("none", "zstd"))
        if card < 0.3:
            add("dict_rle", ("none", "zstd"))
        add("byte_stream_split", ("zstd",))
    elif pa.types.is_floating(t):
        add("plain")
        add("byte_stream_split", ("none", "zstd"))
        if card < 0.3:
            add("dict_rle", ("none", "zstd"))
    else:  # string / binary
        # plain+zstd duplicates delta_length_ba+zstd almost byte-for-byte
        # (same data stream modulo length framing) — don't trial it twice
        if card < 0.6:
            add("dict_rle")
        add("delta_length_ba", ("none", "zstd", "zstd7", "zstd9"))
        add("delta_ba", ("zstd", "zstd7", "zstd9"))
        # FSST's niche is short-to-medium strings (ids, paths, titles) where
        # per-value random access matters; on long text zstd dominates at a
        # fraction of the encode cost, so don't even trial fsst there
        if 4 <= stats.get("avg_len", 0) <= 512 and card > 0.05:
            add("fsst", ("zstd",))
    for ref in REFERENCE_POLICY:
        if ref not in cands and (ref[0] != "dict_rle" or card < 0.9):
            cands.append(ref)
    # schema-level override wins outright (reference tag `encoding=` analog)
    return cands


# --- static codec-cost table ------------------------------------------------
# Slowdown vs memcpy of the same bytes (1.0 = memcpy speed), best-of-N over
# multi-MB representative arrays — re-derive with tools/calibrate_cost.py.
# Short strings pay per-VALUE overhead (length framing / hashing), so binary
# codecs get two regimes keyed on the sampled avg value length.  Constants
# feed the cost-weighted score only (ratio + _SPEED_WEIGHT * slowdown); the
# size_tolerance guard and the per-chunk reference floor bound the size no
# matter what the table says.
_STATIC_LONG_BINARY = {  # avg_len >= 64 (documents, source files)
    "plain": 12.0,
    "dict_rle": 45.0,
    "delta_length_ba": 25.0,
    "delta_ba": 300.0,
    "fsst": 4200.0,
}
_STATIC_SHORT_BINARY = {  # avg_len < 64 (ids, paths, tags)
    "plain": 1200.0,
    "dict_rle": 40.0,
    "delta_length_ba": 35.0,
    "delta_ba": 400.0,
    "fsst": 20000.0,
}
_STATIC_FIXED = {  # ints / floats / bools
    "plain": 2.0,
    "delta_bp": 200.0,
    "rle_bp": 100.0,
    "dict_rle": 250.0,
    "byte_stream_split": 8.0,
}
_STATIC_OUTER = {
    "none": 0.0,
    "snappy": 21.0,
    "zstd": 60.0,
    "zstd7": 200.0,
    "zstd9": 260.0,
}


def _static_slowdown(codec: str, outer: str, typ: pa.DataType, stats: dict) -> float:
    if (
        pa.types.is_string(typ)
        or pa.types.is_binary(typ)
        or pa.types.is_large_string(typ)
        or pa.types.is_large_binary(typ)
    ):
        table = (
            _STATIC_LONG_BINARY
            if stats.get("avg_len", 0.0) >= 64
            else _STATIC_SHORT_BINARY
        )
    else:
        table = _STATIC_FIXED
    return table.get(codec, 300.0) + _STATIC_OUTER.get(outer, 100.0)


_SAMPLE_MAX_BYTES = 1 << 20  # byte cap on the trial sample
_EXPENSIVE_CODECS = ("fsst",)
_EXPENSIVE_TRIAL_BYTES = 128 << 10  # trial subsample for slow kernels
# Cost-weighted pick among eligibles: score = ratio + _SPEED_WEIGHT *
# slowdown, where slowdown is the STATIC calibrated codec cost in
# memcpy-multiples (the _STATIC_* tables above).  One memcpy-multiple of
# encode time must save _SPEED_WEIGHT fraction of raw size.  At 0.7e-4 the
# zstd-class outers win decisively over snappy on the code corpus AND the
# zstd7->zstd9 step (+60 memcpy-multiples for ~0.5% of raw) pays on long
# text — a compression engine's default leans ratio where the cost is one
# parallelizable C kernel; truly slow kernels (fsst on long text, delta_ba's
# prefix matching) stay rejected.
_SPEED_WEIGHT = 0.7e-4


def select_codec(
    values: pa.Array, cfg: EngineConfig = DEFAULT, column: str | None = None
) -> tuple[str, str, dict]:
    """Pick (codec, outer) for a null-free value array; returns stats too."""
    if column is not None and column in cfg.per_column_codec:
        choice = cfg.per_column_codec[column]
        if isinstance(choice, str):
            return choice, "none", {}
        return choice[0], choice[1], {}
    if len(values) == 0:
        return "plain", "none", {}
    sample = _sample(values, cfg.sample_rows, _SAMPLE_MAX_BYTES)
    stats = column_stats(sample)
    cands = candidates_for(values, stats, cfg)
    ratios = {}
    payload_cache: dict[str, tuple] = {}
    sample_cache: dict[str, pa.Array] = {}
    results = []
    for codec, outer in cands:
        try:
            if codec not in payload_cache:
                # expensive kernels trial on a smaller subsample; comparison
                # is per-raw-byte ratio so mixed sample sizes stay comparable
                s = sample
                if codec in _EXPENSIVE_CODECS:
                    s = _sample(sample, len(sample), _EXPENSIVE_TRIAL_BYTES)
                sample_cache[codec] = s
                payload_cache[codec] = codecs.encode(codec, s)
            s = sample_cache[codec]
            raw = max(logical_nbytes(s), 1)
            size = len(_outer_compress(payload_cache[codec][0], outer, ZSTD_LEVEL))
        except Exception:
            continue
        ratio = size / raw
        ratios[f"{codec}+{outer}"] = round(ratio, 4)
        results.append((ratio, codec, outer))
    if not results:
        raise TypeError(
            f"select_codec: no candidate codec can encode arrow type "
            f"{values.type} (every trial raised); add a codec or cast the "
            "column upstream"
        )
    best_ratio = min(r[0] for r in results)
    # cost-weighted pick: score = ratio + _SPEED_WEIGHT * slowdown, with the
    # slowdown from the calibrated constant table above — selection is a
    # deterministic function of the data, so the output size cannot flip
    # with the host's memory-bandwidth phase.  size_tolerance remains a hard
    # guard so the cost term can never pick a grossly larger codec; the
    # per-chunk reference floor still bounds the final size from above.
    tol = best_ratio * cfg.size_tolerance
    eligible = [r for r in results if r[0] <= tol]
    eligible.sort(
        key=lambda r: (
            r[0] + _SPEED_WEIGHT * _static_slowdown(r[1], r[2], values.type, stats),
            r[0],
        )
    )
    _, codec, outer = eligible[0]
    stats["trial_ratios"] = ratios
    if len(sample_cache.get(codec, ())) == len(values):
        # sample WAS the full column: hand the encoding to the caller so the
        # chunk encoder doesn't redo the work
        stats["full_payload"] = payload_cache[codec]
    return codec, outer, stats
