"""Column-chunk container: Arrow array <-> self-describing encoded blob.

Mirrors the reference's page/chunk layering (reference: layout/page.go:194-281
— strip nulls to definition levels, encode values, compress; layout/chunk.go:
18-80 — chunk metadata with stats) collapsed to one chunk-level container
per (partition-batch, column):

    blob := MAGIC "RCC1"
          | varint(len(meta_json)) meta_json
          | body                       (outer-compressed levels+payload)

    body := varint(len(levels)) levels | payload

Nulls are carried purely as definition levels (max DL = 1 for our flat
schema), exactly the reference's null model (layout/page.go:202-213): codecs
only ever see null-free values.  Decode rebuilds the validity bitmap and the
values and is asserted bit-identical (including NaN payloads — buffers, not
values, are compared in tests).

Stats (min/max/null_count) are computed per chunk with pyarrow.compute,
mirroring layout/chunk.go:30-43, and travel in the meta dict.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import codecs
from .bits import read_uvarint, write_uvarint
from .codecs import rle as rle_mod
from .config import DEFAULT, EngineConfig
from .formats.bloom import SplitBlockBloom, hash_arrow_values, hash_plain_scalar
from .formats.parquet_meta import PT_BYTE_ARRAY, PT_INT64

MAGIC = b"RCC1"

# logical arrow types are encoded through a same-width physical integer view,
# like parquet's physical/logical split (reference: types/types.go:11-78)


def _physical(arr: pa.Array) -> tuple[pa.Array, str]:
    t = arr.type
    if pa.types.is_decimal(t):
        # DECIMAL as fixed-width bytes, like the reference's FLBA decimals
        # (types/types.go:174-200)
        width = 16 if pa.types.is_decimal128(t) else 32
        return arr.view(pa.binary(width)), str(t)
    if pa.types.is_timestamp(t) or pa.types.is_time64(t) or pa.types.is_duration(t):
        return arr.view(pa.int64()), str(t)
    if pa.types.is_date64(t):
        return arr.view(pa.int64()), str(t)
    if pa.types.is_date32(t) or pa.types.is_time32(t):
        return arr.view(pa.int32()), str(t)
    if pa.types.is_dictionary(t):
        return _physical(arr.dictionary_decode())
    return arr, None


def _parse_t(s: str) -> pa.DataType:
    # "timestamp[us]" / "decimal128(10, 2)" / "date64[ms]" / "duration[s]"
    if s.startswith("decimal"):
        base, rest = s.split("(", 1)
        p, sc = rest.rstrip(")").split(",")
        return (pa.decimal128 if base == "decimal128" else pa.decimal256)(int(p), int(sc))
    base, rest = s.split("[", 1)
    rest = rest.rstrip("]")
    if base == "timestamp":
        if "tz=" in rest:
            unit, tz = rest.split(", tz=")
            return pa.timestamp(unit, tz)
        return pa.timestamp(rest)
    if base == "duration":
        return pa.duration(rest)
    if base == "time32":
        return pa.time32(rest)
    if base == "time64":
        return pa.time64(rest)
    if base == "date32":
        return pa.date32()
    if base == "date64":
        return pa.date64()
    raise ValueError(f"unknown logical type {s}")


# Per-chunk Bloom filters are the parquet-format split-block filter over
# XXH64 (formats/bloom.py) — the same filter and hash PAR1 files carry.
# Blooms live in durable chunk blobs (resumable checkpoints), so the spec is
# versioned: probing a bloom whose ``hv`` tag mismatches (e.g. a v1/v2 bloom
# of an older build's hash) degrades to "may contain" (no pruning) rather
# than risking false negatives.
_BLOOM_HV = 3


def _bloom_physical(t: pa.DataType) -> int | None:
    """Physical type a chunk bloom hashes values as: every integer width as
    INT64 (uint64 >= 2^63 wraps, on build and probe alike), strings and
    binary as BYTE_ARRAY; None = no bloom for this type."""
    if pa.types.is_integer(t):
        return PT_INT64
    if (
        pa.types.is_string(t)
        or pa.types.is_binary(t)
        or pa.types.is_large_string(t)
        or pa.types.is_large_binary(t)
    ):
        return PT_BYTE_ARRAY
    return None


def _bloom_build(values: pa.Array, bits_per_value: int, max_bytes: int = 1 << 20) -> dict:
    """Per-chunk Bloom filter over the (null-free) values — the parquet
    column-bloom idea (not in the reference; its pruning stops at min/max
    stats, layout/page.go:83-123).  Lives base64 in the chunk's JSON header,
    so the metadata pass consults it without decompressing anything.  Sized
    at ``bits_per_value`` bits per distinct value, rounded up to a
    power-of-two byte count in [32 B, max_bytes]."""
    import base64

    if isinstance(values, pa.ChunkedArray):
        values = values.combine_chunks()
    pt = _bloom_physical(values.type)
    if pt == PT_INT64:
        values = values.cast(pa.int64(), safe=False)
    h = np.unique(hash_arrow_values(values, pt))
    nb = 32
    while nb * 8 < len(h) * bits_per_value and nb < max_bytes:
        nb <<= 1
    sb = SplitBlockBloom(nb)
    sb.insert(h)
    return {"hv": _BLOOM_HV, "b64": base64.b64encode(sb.to_bytes()).decode()}


def bloom_may_contain(bloom: dict, value, typ: pa.DataType) -> bool:
    """Probe a chunk's Bloom filter for an equality-predicate value (str
    probes hash as their UTF-8 bytes).  True = may contain."""
    import base64

    if bloom.get("hv") != _BLOOM_HV:
        # bloom written under a different spec (e.g. a checkpoint from an
        # older build): pruning could silently drop matching chunks, so don't
        return True
    pt = _bloom_physical(typ)
    if isinstance(value, str):
        value = value.encode()
    if pt == PT_INT64 and isinstance(value, (int, np.integer)):
        value = (int(value) + (1 << 63)) % (1 << 64) - (1 << 63)  # the build's wrap
    elif pt != PT_BYTE_ARRAY or not isinstance(value, bytes):
        return True  # a probe the filter cannot hash: no pruning
    sb = SplitBlockBloom.from_bytes(base64.b64decode(bloom["b64"]))
    return bool(sb.check(np.array([hash_plain_scalar(value, pt)], np.uint64))[0])


def _stats(values: pa.Array) -> dict:
    out = {}
    try:
        if len(values):
            mm = pc.min_max(values)
            mn, mx = mm["min"].as_py(), mm["max"].as_py()
            if isinstance(mn, (int, float)) and not isinstance(mn, bool):
                # native JSON numbers: ints stay exact (a str()->float round
                # trip loses >53-bit ints and could wrongly prune chunks)
                out["min"], out["max"] = mn, mx
            else:
                mn, mx = str(mn), str(mx)
                # a truncated MIN is <= the true min: safe for pruning.  A
                # truncated MAX would be < the true max and could wrongly prune,
                # so flag it and let the scanner disable max-based pruning.
                out["min"] = mn[:64]
                out["max"] = mx[:64]
                if len(mx) > 64:
                    out["max_trunc"] = True
    except (pa.ArrowNotImplementedError, TypeError):
        pass
    return out


# outer block compressors mirror the reference's registry
# (compress/compress.go:8-30): none/snappy/gzip/zstd/lz4 (+zstd9 alias);
# plus BROTLI beyond it (the reference can't, README.md:172-173 — any
# pa.Codec name works here); LZO stays unsupported (pyarrow has no LZO)
_OUTER_ALIASES = {
    "zstd7": ("zstd", 7),
    "zstd9": ("zstd", 9),
    "lz4": ("lz4_raw", None),
    "gzip": ("gzip", None),
}
ZSTD_LEVEL = 3  # level of the plain "zstd" outer; the aliases carry their own


_CODEC_CACHE: dict[tuple[str, int | None], pa.Codec] = {}


def _codec(name: str, level: int | None) -> pa.Codec:
    # one Codec per (name, level) per worker process: avoids re-creating the
    # compressor context (and its internal buffers) on every chunk
    c = _CODEC_CACHE.get((name, level))
    if c is None:
        c = _CODEC_CACHE[(name, level)] = pa.Codec(name, compression_level=level)
    return c


_SLICE_TARGET = 4 << 20  # per-frame slice for threaded zstd/gzip compression
_COMPRESS_POOLS: dict[int, object] = {}


def _compress_workers() -> int:
    """Thread count for slicing large outer compressions = the calling
    task's Ray CPU reservation — so the threads exactly fill the CPUs the
    encode slot already reserved (see encode_pipeline._task_cpus) without
    adding concurrent allocation-heavy encoder tasks to the memory bus.
    Outside a Ray task (driver-side tools/tests) fall back to
    OMP_NUM_THREADS, then 4."""
    workers = 0
    try:
        import ray

        if ray.is_initialized():
            res = ray.get_runtime_context().get_assigned_resources()
            workers = int(res.get("CPU", 0))
    except Exception:
        workers = 0
    if not workers:
        import os

        try:
            workers = int(float(os.environ.get("OMP_NUM_THREADS", "") or 0))
        except ValueError:
            workers = 0
    return max(1, min(8, workers or 4))


def _compress_pool(workers: int):
    pool = _COMPRESS_POOLS.get(workers)
    if pool is None:
        from concurrent.futures import ThreadPoolExecutor

        pool = _COMPRESS_POOLS[workers] = ThreadPoolExecutor(
            workers, thread_name_prefix=f"pgr-compress-{workers}"
        )
    return pool


def _outer_compress(body: bytes, name: str, level: int) -> bytes:
    if name == "none":
        return body
    if name in _OUTER_ALIASES:
        name, lvl = _OUTER_ALIASES[name]
        level = lvl if lvl is not None else level
    codec = _codec(name, level if name == "zstd" else None)
    # Large zstd/gzip payloads: compress fixed-size slices on the slot's
    # reserved-but-idle CPUs and concatenate.  Concatenated zstd frames
    # (RFC 8878 §3.1) / gzip members (RFC 1952 §2.2) are ONE standard
    # stream, so _outer_decompress and external readers are unchanged.
    # Slice boundaries depend only on len(body) — output is deterministic
    # regardless of pool size.  Measured on the headline's 9.3 MB
    # partition-sized content payload: zstd9 0.150 s -> 0.054 s at
    # 3 slices/4 threads for +0.5% size on that one column (and 29 MB:
    # 0.47 s -> 0.12 s, +0.4%); snappy/lz4_raw have no frame concatenation
    # and stay single-shot (they are >500 MB/s anyway).
    if name in ("zstd", "gzip") and len(body) >= 2 * _SLICE_TARGET:
        n = len(body)
        n_slices = -(-n // _SLICE_TARGET)
        step = -(-n // n_slices)
        view = memoryview(body)
        workers = _compress_workers()
        if workers > 1:
            parts = _compress_pool(workers).map(
                lambda lo: codec.compress(view[lo : lo + step], asbytes=True),
                range(0, n, step),
            )
        else:
            # same slice boundaries serially: output must not depend on the
            # caller's thread budget
            parts = (
                codec.compress(view[lo : lo + step], asbytes=True)
                for lo in range(0, n, step)
            )
        return b"".join(parts)
    return codec.compress(body, asbytes=True)


def _outer_decompress(body: bytes, name: str, raw_len: int) -> bytes:
    if name == "none":
        return body
    if name in _OUTER_ALIASES:
        name = _OUTER_ALIASES[name][0]
    return _codec(name, None).decompress(body, raw_len, asbytes=True)


def raw_nbytes(arr: pa.Array) -> int:
    """Uncompressed logical size (values + offsets + validity), like the
    reference's page-size accounting."""
    return sum(b.size for b in arr.buffers() if b is not None)


def encode_list_chunk(arr, cfg: EngineConfig = DEFAULT, outer: str = "none") -> dict:
    """Nested (one-level list) chunk: the Arrow-native Dremel equivalent.

    The reference carries nesting as repetition/definition level streams
    (SURVEY §1.2, schema/schemahandler.go:297-334; marshal/marshal.go:153-184);
    in Arrow the identical information is (validity bitmap, offsets, child
    values) — SURVEY §1.4.  We encode: outer validity as levels, per-row
    lengths as an auto-selected int chunk (RL analog), and the flattened child
    values recursively as their own chunk (with their own codec selection).

    Payload: varint(len(lengths_blob)) lengths_blob | child_blob.
    """
    from .selector import select_codec

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    t = arr.type
    assert pa.types.is_list(t) or pa.types.is_large_list(t), t
    n = len(arr)
    null_count = arr.null_count
    if null_count:
        validity = np.asarray(arr.is_valid()).astype(np.uint64)
        levels = rle_mod.encode_levels(validity, 1)
        dense = arr.drop_null()
    else:
        levels = rle_mod.encode_levels(np.empty(0, dtype=np.uint64), 1)
        dense = arr
    off_t = np.int64 if pa.types.is_large_list(t) else np.int32
    offsets = np.frombuffer(
        dense.buffers()[1], dtype=off_t, count=len(dense) + 1,
        offset=dense.offset * np.dtype(off_t).itemsize,
    )
    lengths = pa.array(np.diff(offsets).astype(np.int64), type=pa.int64())
    child = dense.flatten()
    lcodec, louter, _ = select_codec(lengths, cfg)
    lengths_row = encode_column_chunk(lengths, lcodec, louter, cfg)
    if _is_nested(child.type):
        child_row = encode_any_chunk(child, cfg, outer)
    else:
        cvals = child.drop_null() if child.null_count else child
        ccodec, couter, cstats = select_codec(cvals, cfg)
        child_row = encode_column_chunk(
            child, ccodec, couter, cfg, precomputed=cstats.get("full_payload")
        )
    meta = {
        "codec": "list",
        "outer": "none",
        "n": n,
        "nulls": null_count,
        "type": str(t),
        "logical": None,
        "child_type": str(child.type),
        "large": bool(pa.types.is_large_list(t)),
        "raw_body": 0,
    }
    meta_json = json.dumps(meta, separators=(",", ":")).encode()
    body = (
        write_uvarint(len(levels))
        + levels
        + write_uvarint(len(lengths_row["blob"]))
        + lengths_row["blob"]
        + child_row["blob"]
    )
    blob = MAGIC + write_uvarint(len(meta_json)) + meta_json + body
    return {
        "codec": f"list<{child_row['codec']}>",
        "outer": child_row["outer"],
        "rows": n,
        "nulls": null_count,
        "raw_bytes": raw_nbytes(arr),
        "enc_bytes": len(blob),
        "blob": blob,
        "sha256": column_sha256(arr) if cfg.verify_sha256 else "",
    }


def _decode_list_chunk(meta: dict, blob: bytes, pos: int) -> pa.Array:
    body = blob[pos:]
    llen, p = read_uvarint(body, 0)
    levels_buf = body[p : p + llen]
    p += llen
    blen, p = read_uvarint(body, p)
    lengths_arr = decode_column_chunk(body[p : p + blen])
    p += blen
    child = decode_column_chunk(body[p:])
    n, nulls = meta["n"], meta["nulls"]
    lengths = lengths_arr.to_numpy(zero_copy_only=False).astype(np.int64)
    if meta.get("large"):
        offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        dense = pa.LargeListArray.from_arrays(pa.array(offsets, pa.int64()), child)
    else:
        offsets = np.zeros(len(lengths) + 1, dtype=np.int32)
        np.cumsum(lengths, out=offsets[1:])
        dense = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), child)
    if nulls == 0:
        return dense
    dl, _ = rle_mod.decode_levels(levels_buf, 1, n)
    validity = dl.astype(bool)
    # rebuild with nulls as zero-length slots + validity bitmap — works for
    # ANY child type (pc.if_else does not support nested children)
    off_t2 = np.int64 if meta.get("large") else np.int32
    full_lengths = np.zeros(n, dtype=off_t2)
    full_lengths[validity] = lengths.astype(off_t2)
    full_offsets = np.zeros(n + 1, dtype=off_t2)
    np.cumsum(full_lengths, out=full_offsets[1:])
    vbuf = pa.array(validity).buffers()[1]
    return pa.Array.from_buffers(
        dense.type, n, [vbuf, pa.py_buffer(full_offsets.tobytes())],
        null_count=nulls, children=[child],
    )


def _expand_with_nulls(dense: pa.Array, validity: np.ndarray) -> pa.Array:
    """Stretch a null-free dense array to full length with nulls where
    validity is False.  take() with a null index yields null for EVERY arrow
    type (incl. nested), unlike pc.if_else."""
    idx = np.maximum(np.cumsum(validity) - 1, 0)
    idx_arr = pa.array(np.where(validity, idx, 0), mask=~validity, type=pa.int64())
    return dense.take(idx_arr)


def _type_to_b64(t: pa.DataType) -> str:
    import base64

    return base64.b64encode(pa.schema([pa.field("x", t)]).serialize().to_pybytes()).decode()


def _type_from_b64(s: str) -> pa.DataType:
    import base64

    return pa.ipc.read_schema(pa.py_buffer(base64.b64decode(s))).field(0).type


def _is_nested(t: pa.DataType) -> bool:
    """List, large_list, struct or map: encoded by `encode_any_chunk` as
    child chunks, never by a scalar codec."""
    return pa.types.is_list(t) or pa.types.is_large_list(t) or pa.types.is_struct(t) or pa.types.is_map(t)


def encode_any_chunk(arr, cfg: EngineConfig = DEFAULT, outer: str = "none") -> dict:
    """Dispatch on arrow type: scalar / list / struct / map chunks.

    The reference shreds arbitrary nesting into Dremel level streams
    (marshal/marshal.go:69-224, maps expanded as list<struct<key,value>> at
    schema/schemahandler.go:343-386); here each nesting level is its own
    recursively-encoded child chunk and validity travels as levels."""
    from .selector import select_codec

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if pa.types.is_dictionary(arr.type):
        arr = arr.dictionary_decode()  # see encode_column_chunk's note
    t = arr.type
    if pa.types.is_map(t):
        return encode_map_chunk(arr, cfg, outer)
    if pa.types.is_struct(t):
        return encode_struct_chunk(arr, cfg, outer)
    if pa.types.is_list(t) or pa.types.is_large_list(t):
        return encode_list_chunk(arr, cfg, outer)
    vals = arr.drop_null() if arr.null_count else arr
    codec, couter, stats = select_codec(vals, cfg)
    return encode_column_chunk(arr, codec, couter, cfg, precomputed=stats.get("full_payload"))


def encode_struct_chunk(arr, cfg: EngineConfig = DEFAULT, outer: str = "none") -> dict:
    """Struct chunk: outer validity as levels + one independently encoded
    (and independently compressed) length-prefixed child chunk per field —
    so a subtree read (`decode_column_chunk(blob, path=...)`, the
    reader/reader.go:225-289 ReadPartial analog) skips sibling fields without
    decompressing them."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    t = arr.type
    assert pa.types.is_struct(t), t
    n, null_count = len(arr), arr.null_count
    if null_count:
        validity = np.asarray(arr.is_valid()).astype(np.uint64)
        levels = rle_mod.encode_levels(validity, 1)
        dense = arr.drop_null()
    else:
        levels = rle_mod.encode_levels(np.empty(0, dtype=np.uint64), 1)
        dense = arr
    names = [t.field(i).name for i in range(t.num_fields)]
    child_rows = [encode_any_chunk(dense.field(i), cfg, outer) for i in range(t.num_fields)]
    meta = {
        "codec": "struct",
        "outer": "none",
        "n": n,
        "nulls": null_count,
        "fields": names,
        "type_b64": _type_to_b64(t),
        "raw_body": 0,
    }
    meta_json = json.dumps(meta, separators=(",", ":")).encode()
    body = write_uvarint(len(levels)) + levels
    for row in child_rows:
        body += write_uvarint(len(row["blob"])) + row["blob"]
    blob = MAGIC + write_uvarint(len(meta_json)) + meta_json + body
    return {
        "codec": "struct<" + ",".join(r["codec"] for r in child_rows) + ">",
        "outer": outer,
        "rows": n,
        "nulls": null_count,
        "raw_bytes": raw_nbytes(arr),
        "enc_bytes": len(blob),
        "blob": blob,
        "sha256": column_sha256(arr) if cfg.verify_sha256 else "",
    }


def _decode_struct_chunk(meta: dict, blob: bytes, pos: int, path: list[str] | None = None):
    body = blob[pos:]
    llen, p = read_uvarint(body, 0)
    levels_buf = body[p : p + llen]
    p += llen
    names = meta["fields"]
    n, nulls = meta["n"], meta["nulls"]
    t = _type_from_b64(meta["type_b64"])
    if path:
        # subtree projection: skip sibling child blobs by their length prefix
        # (never decompressed), decode only the requested field
        head, rest = path[0], path[1:]
        for name in names:
            blen, p = read_uvarint(body, p)
            if name == head:
                child = decode_column_chunk(body[p : p + blen], path=rest or None)
                break
            p += blen
        else:
            raise KeyError(f"struct field {head!r} not in {names}")
        if nulls == 0:
            return child
        dl, _ = rle_mod.decode_levels(levels_buf, 1, n)
        validity = dl.astype(bool)
        return _expand_with_nulls(child, validity)
    children = []
    for _ in names:
        blen, p = read_uvarint(body, p)
        children.append(decode_column_chunk(body[p : p + blen]))
        p += blen
    dense = pa.StructArray.from_arrays(children, names=names)
    if nulls == 0:
        return dense
    dl, _ = rle_mod.decode_levels(levels_buf, 1, n)
    validity = dl.astype(bool)
    return _expand_with_nulls(dense, validity)


def encode_map_chunk(arr, cfg: EngineConfig = DEFAULT, outer: str = "none") -> dict:
    """Map chunk: parquet's MAP = repeated group(key, value)
    (schema/schemahandler.go:343-386); arrow-side we encode the
    list<struct<key, value>> view and rebuild the MapArray from buffers on
    decode."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    t = arr.type
    assert pa.types.is_map(t), t
    ls_type = pa.list_(pa.struct([t.key_field, t.item_field]))
    inner = encode_list_chunk(arr.cast(ls_type), cfg, outer)
    meta = {
        "codec": "map",
        "outer": "none",
        "n": len(arr),
        "nulls": arr.null_count,
        "type_b64": _type_to_b64(t),
        "raw_body": 0,
    }
    meta_json = json.dumps(meta, separators=(",", ":")).encode()
    blob = MAGIC + write_uvarint(len(meta_json)) + meta_json + inner["blob"]
    return {
        "codec": f"map<{inner['codec']}>",
        "outer": inner["outer"],
        "rows": len(arr),
        "nulls": arr.null_count,
        "raw_bytes": raw_nbytes(arr),
        "enc_bytes": len(blob),
        "blob": blob,
        "sha256": column_sha256(arr) if cfg.verify_sha256 else "",
    }


def _decode_map_chunk(meta: dict, blob: bytes, pos: int) -> pa.Array:
    t = _type_from_b64(meta["type_b64"])
    ls = decode_column_chunk(blob[pos:])
    if isinstance(ls, pa.ChunkedArray):
        ls = ls.combine_chunks()
    # rebuild map from the list<struct> buffers (cast map->list exists, the
    # reverse doesn't)
    return pa.Array.from_buffers(
        t,
        len(ls),
        [ls.buffers()[0], ls.buffers()[1]],
        null_count=ls.null_count,
        children=[ls.values],
    )


def encode_column_chunk(
    arr,
    codec: str,
    outer: str = "none",
    cfg: EngineConfig = DEFAULT,
    precomputed: tuple[bytes, dict] | None = None,
    sha: str | None = None,
) -> dict:
    """Encode one column chunk; returns a dict row for the chunk table.

    `precomputed` short-circuits the value encoding with a (payload, meta)
    pair already produced for the null-free values (the selector hands its
    full-column trial encoding back through this).  `sha` passes a
    column_sha256 the caller already computed (encode_table hashes every
    column for the chunk id) so it is not recomputed per row.

    With ``cfg.page_rows`` set, large chunks use the paged layout (sub-chunk
    page index — the ColumnIndex/OffsetIndex analog, reference:
    writer/writer.go:418-481) so row-range reads decode only the overlapping
    pages for EVERY codec, not just PLAIN fixed-width."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if pa.types.is_dictionary(arr.type):
        # decode BEFORE capturing orig_type: a 'dictionary<...>' meta type
        # has no _str_to_type alias, so the blob would encode fine but be
        # permanently undecodable.  The engine applies its own dictionary
        # encoding downstream when it wins.
        arr = arr.dictionary_decode()
    orig_type = str(arr.type)
    phys, logical = _physical(arr)
    n = len(phys)
    null_count = phys.null_count
    if null_count:
        validity = np.asarray(phys.is_valid()).astype(np.uint64)
        levels = rle_mod.encode_levels(validity, 1)
        values = phys.drop_null()
    else:
        levels = rle_mod.encode_levels(np.empty(0, dtype=np.uint64), 1)
        values = phys
    if cfg.page_rows and len(values) > cfg.page_rows:
        return _encode_paged_chunk(
            arr, values, levels, codec, outer, cfg,
            n=n, null_count=null_count, orig_type=orig_type, logical=logical,
            sha=sha,
        )
    if precomputed is not None:
        payload, meta = precomputed[0], dict(precomputed[1])
    else:
        payload, meta = codecs.encode(codec, values)
    meta.update(
        {
            "n": n,
            "nulls": null_count,
            "type": orig_type,
            "logical": logical,
            "outer": outer,
        }
    )
    meta.update(_stats(values))
    if cfg.bloom_bits_per_value and logical is None and _bloom_physical(values.type) is not None:
        meta["bloom"] = _bloom_build(values, cfg.bloom_bits_per_value)
    body = write_uvarint(len(levels)) + levels + payload
    meta["raw_body"] = len(body)
    comp = _outer_compress(body, outer, ZSTD_LEVEL)
    meta_json = json.dumps(meta, separators=(",", ":")).encode()
    blob = MAGIC + write_uvarint(len(meta_json)) + meta_json + comp
    return {
        "codec": codec,
        "outer": outer,
        "rows": n,
        "nulls": null_count,
        "raw_bytes": raw_nbytes(arr),
        "enc_bytes": len(blob),
        "blob": blob,
        "sha256": (
            sha
            if sha is not None
            else (column_sha256(arr) if cfg.verify_sha256 else "")
        ),
    }


def _encode_paged_chunk(
    arr, values, levels, codec, outer, cfg,
    *, n, null_count, orig_type, logical, sha=None,
) -> dict:
    """Paged chunk layout (sub-chunk page index, the OffsetIndex analog —
    reference: writer/writer.go:418-481 builds per-page row/byte offsets into
    the footer; here they live in the chunk meta):

        body := varint(len(levels)) levels            (uncompressed — tiny RLE)
              | shared                                 (outer-compressed)
              | page_0 | page_1 | ...                  (each outer-compressed)

    Pages split the NULL-FREE value stream at uniform ``cfg.page_rows``
    boundaries; ``meta["pages"]`` holds ``[comp_len, raw_len, page_meta]`` per
    page, so a row-range decode maps rows -> values via the level stream and
    touches only the overlapping pages.  ``dict_rle`` keeps ONE chunk-level
    dictionary in the shared section (like parquet's dict page) with per-page
    hybrid index streams; every other codec encodes each page independently."""
    from . import codecs as codecs_mod  # noqa: F401  (registry side effects)

    nv = len(values)
    pr = int(cfg.page_rows)
    bounds = list(range(0, nv, pr)) + [nv]
    shared_raw = b""
    page_raws: list[bytes] = []
    page_metas: list[dict] = []
    extra: dict = {}
    if codec == "dict_rle":
        from .bits import bit_width
        from .codecs.plain import encode_plain
        from .codecs.rle import encode_hybrid

        denc = pc.dictionary_encode(values)
        if isinstance(denc, pa.ChunkedArray):
            denc = denc.combine_chunks()
        dict_vals = denc.dictionary
        indices = denc.indices.to_numpy(zero_copy_only=False).astype(np.uint64)
        shared_raw, _ = encode_plain(dict_vals)
        extra["dict_rows"] = len(dict_vals)
        w = bit_width(max(len(dict_vals) - 1, 0))
        for a, b in zip(bounds[:-1], bounds[1:]):
            page_raws.append(bytes([w]) + encode_hybrid(indices[a:b], w))
            page_metas.append({})
    else:
        for a, b in zip(bounds[:-1], bounds[1:]):
            praw, pmeta = codecs.encode(codec, values.slice(a, b - a))
            pmeta.pop("codec", None)
            pmeta.pop("rows", None)
            page_raws.append(praw)
            page_metas.append(pmeta)
    shared_comp = _outer_compress(shared_raw, outer, ZSTD_LEVEL) if shared_raw else b""
    pages = []
    comp_pages = []
    for praw, pmeta in zip(page_raws, page_metas):
        pcomp = _outer_compress(praw, outer, ZSTD_LEVEL)
        comp_pages.append(pcomp)
        pages.append([len(pcomp), len(praw), pmeta])
    meta = {
        "codec": "paged",
        "inner": codec,
        "outer": outer,
        "n": n,
        "nulls": null_count,
        "type": orig_type,
        "logical": logical,
        "page_rows": pr,
        "shared": len(shared_comp),
        "shared_raw": len(shared_raw),
        "pages": pages,
        "raw_body": 0,
        **extra,
    }
    meta.update(_stats(values))
    if cfg.bloom_bits_per_value and logical is None and _bloom_physical(values.type) is not None:
        # same bloom as the unpaged path — page_rows must not silently
        # disable pruning for exactly the large chunks where it matters
        meta["bloom"] = _bloom_build(values, cfg.bloom_bits_per_value)
    meta_json = json.dumps(meta, separators=(",", ":")).encode()
    body = write_uvarint(len(levels)) + levels + shared_comp + b"".join(comp_pages)
    blob = MAGIC + write_uvarint(len(meta_json)) + meta_json + body
    return {
        "codec": codec,
        "outer": outer,
        "rows": n,
        "nulls": null_count,
        "raw_bytes": raw_nbytes(arr),
        "enc_bytes": len(blob),
        "blob": blob,
        "sha256": (
            sha
            if sha is not None
            else (column_sha256(arr) if cfg.verify_sha256 else "")
        ),
    }


def _paged_page_range(meta: dict, v0: int, v1: int) -> tuple[int, int]:
    """Indices [first, last] of pages overlapping value range [v0, v1)."""
    pr = meta["page_rows"]
    if v1 <= v0:
        return 0, -1
    return v0 // pr, (v1 - 1) // pr


def _decode_paged_chunk(meta: dict, blob: bytes, pos: int, sel) -> pa.Array:
    """Decode a paged chunk, touching only the pages overlapping the selected
    ROW range (``sel = (row_offset, row_count)`` or None for all rows)."""
    body = blob[pos:]
    llen, p = read_uvarint(body, 0)
    levels_buf = body[p : p + llen]
    p += llen
    n, nulls = meta["n"], meta["nulls"]
    nv = n - nulls
    outer = meta["outer"]
    validity = None
    if nulls:
        dl, _ = rle_mod.decode_levels(levels_buf, 1, n)
        validity = dl.astype(bool)
    if sel:
        r0, rc = sel
        if validity is not None:
            counts = np.cumsum(validity)
            v0 = int(counts[r0 - 1]) if r0 > 0 else 0
            v1 = int(counts[r0 + rc - 1]) if rc > 0 else v0
        else:
            v0, v1 = r0, r0 + rc
    else:
        r0, rc = 0, n
        v0, v1 = 0, nv
    typ = _chunk_type(meta)
    vt = _value_type(typ)
    inner = meta["inner"]
    shared_vals = None
    if meta["shared"]:
        sraw = _outer_decompress(body[p : p + meta["shared"]], outer, meta["shared_raw"])
        if inner == "dict_rle":
            from .codecs.plain import decode_plain

            shared_vals = decode_plain(sraw, {"rows": meta["dict_rows"]}, vt)
        p += meta["shared"]
    pr = meta["page_rows"]
    first, last = _paged_page_range(meta, v0, v1)
    parts = []
    off = p
    for i, (clen, rlen, pmeta) in enumerate(meta["pages"]):
        if first <= i <= last:
            pv0 = i * pr
            pcnt = min(pr, nv - pv0)
            praw = _outer_decompress(body[off : off + clen], outer, rlen)
            if inner == "dict_rle":
                from .codecs.rle import decode_hybrid

                w = praw[0]
                if pcnt == 0:
                    parts.append(shared_vals.slice(0, 0))
                else:
                    idx, _ = decode_hybrid(praw, w, pcnt, 1)
                    parts.append(
                        shared_vals.take(pa.array(idx.astype(np.int64), pa.int64()))
                    )
            else:
                pm = dict(pmeta)
                pm["codec"] = inner
                pm["rows"] = pcnt
                parts.append(codecs.decode(praw, pm, vt))
        off += clen
    if parts:
        values = (
            parts[0]
            if len(parts) == 1
            else pa.concat_arrays([x.combine_chunks() if isinstance(x, pa.ChunkedArray) else x for x in parts])
        )
        values = values.slice(v0 - first * pr, v1 - v0)
    else:
        values = pa.array([], type=vt)
    if nulls == n:
        out = pa.nulls(rc, type=values.type)
    elif nulls:
        vsel = validity[r0 : r0 + rc]
        if len(values) == 0:
            # the selected row range is entirely null (v1 == v0): there is no
            # value to take — index 0 would be out of bounds on the empty array
            out = pa.nulls(rc, type=vt)
        else:
            # null indices yield null outputs from take, so masked positions
            # (null rows) need no follow-up if_else
            idx = pa.array(
                np.maximum(np.cumsum(vsel) - 1, 0), type=pa.int64(), mask=~vsel
            )
            out = values.take(idx)
    else:
        out = values
    if meta["logical"] is not None:
        out = out.view(_parse_t(meta["logical"]))
    return out


def paged_skip_stats(blob: bytes, row_offset: int, row_count: int) -> dict:
    """Decoded-bytes accounting for a row-range read of a paged chunk —
    meta-only, nothing is decompressed.  Proves the page index skips: for a
    mid-chunk range, ``bytes_decoded`` << ``bytes_total``."""
    meta, _ = chunk_header(blob)
    assert meta["codec"] == "paged", meta["codec"]
    n, nulls = meta["n"], meta["nulls"]
    nv = n - nulls
    if nulls:
        # SOUND upper bound without decoding levels: the true value start is
        # cumsum(validity)[row_offset-1], which is AT MOST `nulls` below
        # row_offset — starting the claimed window at row_offset alone could
        # UNDER-report pages the real decode touches
        v0 = max(0, row_offset - nulls)
        v1 = min(row_offset + row_count, nv)
    else:
        v0, v1 = row_offset, row_offset + row_count
    first, last = _paged_page_range(meta, v0, min(v1, nv))
    total = sum(pl for pl, _, _ in meta["pages"])
    picked = sum(
        pl for i, (pl, _, _) in enumerate(meta["pages"]) if first <= i <= last
    )
    return {
        "pages_total": len(meta["pages"]),
        "pages_decoded": max(last - first + 1, 0),
        "bytes_total": total + meta["shared"],
        "bytes_decoded": picked + meta["shared"],
    }


def chunk_header(blob: bytes) -> tuple[dict, int]:
    """A chunk blob's meta dict and the offset of its body, from the header
    alone (nothing is decompressed)."""
    assert blob[:4] == MAGIC, "bad chunk magic"
    mlen, pos = read_uvarint(blob, 4)
    return json.loads(blob[pos : pos + mlen]), pos + mlen


_FIXED_WIDTH = {
    "int8": 1, "uint8": 1, "int16": 2, "uint16": 2, "int32": 4, "uint32": 4,
    "int64": 8, "uint64": 8, "float": 4, "double": 8, "halffloat": 2,
}


def decode_column_chunk(
    blob: bytes,
    path: list[str] | None = None,
    row_offset: int = 0,
    row_count: int | None = None,
) -> pa.Array:
    """Decode a chunk blob.  `path` selects a struct subtree (ReadPartial
    analog, reader/reader.go:225-289): sibling fields are skipped by length
    prefix without decompression.  `row_offset`/`row_count` select a row
    range (the within-chunk half of SkipRows, reader/columnbuffer.go:158-230):
    PLAIN fixed-width null-free chunks slice the payload bytes directly and
    never build the skipped values; other codecs decode and slice (delta/RLE
    streams are sequential by construction — same as the reference, which
    decodes pages it skips through)."""
    meta, pos = chunk_header(blob)
    n_rows = meta["n"]
    if row_count is None and row_offset == 0:
        sel = None
    else:
        cnt = n_rows - row_offset if row_count is None else row_count
        sel = (max(row_offset, 0), max(min(cnt, n_rows - row_offset), 0))
    if meta["codec"] == "struct":
        out = _decode_struct_chunk(meta, blob, pos, path=path)
        return out.slice(*sel) if sel else out
    if path:
        raise TypeError(f"path projection requires a struct chunk, got {meta['codec']}")
    if meta["codec"] == "map":
        out = _decode_map_chunk(meta, blob, pos)
        return out.slice(*sel) if sel else out
    if meta["codec"] == "list":
        out = _decode_list_chunk(meta, blob, pos)
        return out.slice(*sel) if sel else out
    if meta["codec"] == "paged":
        return _decode_paged_chunk(meta, blob, pos, sel)
    if (
        sel
        and meta["codec"] == "plain"
        and meta["nulls"] == 0
        and meta["outer"] == "none"
        and meta.get("logical") is None
        and meta["type"] in _FIXED_WIDTH
    ):
        # true row skip: slice payload bytes, decode only the selected range
        body = blob[pos:]
        llen, bpos = read_uvarint(body, 0)
        w = _FIXED_WIDTH[meta["type"]]
        off, cnt = sel
        payload = body[bpos + llen + off * w : bpos + llen + (off + cnt) * w]
        sub_meta = dict(meta, n=cnt, nulls=0, rows=cnt)
        typ = _chunk_type(sub_meta)
        return codecs.decode(payload, sub_meta, _value_type(typ))
    body = _outer_decompress(blob[pos:], meta["outer"], meta["raw_body"])
    llen, bpos = read_uvarint(body, 0)
    levels_buf = body[bpos : bpos + llen]
    payload = body[bpos + llen :]
    n, nulls = meta["n"], meta["nulls"]
    typ = _chunk_type(meta)
    values = codecs.decode(payload, meta, _value_type(typ))
    if nulls == n:
        out = pa.nulls(n, type=values.type)
    elif nulls:
        dl, _ = rle_mod.decode_levels(levels_buf, 1, n)
        validity = dl.astype(bool)
        idx = np.maximum(np.cumsum(validity) - 1, 0)
        taken = values.take(pa.array(idx, type=pa.int64()))
        out = pc.if_else(pa.array(validity), taken, pa.scalar(None, type=taken.type))
    else:
        out = values
    if meta["logical"] is not None:
        out = out.view(_parse_t(meta["logical"]))
    return out.slice(*sel) if sel else out


def _chunk_type(meta: dict) -> pa.DataType:
    if meta["logical"] is not None:
        return _parse_t(meta["logical"])
    return _str_to_type(meta["type"])


def chunk_arrow_type(blob: bytes) -> pa.DataType:
    """Decoded Arrow type of a chunk blob from its header alone (nothing is
    decompressed) — lets row-range readers emit TYPED empty blocks for
    batches whose chunks are all outside the range."""
    meta, _ = chunk_header(blob)
    if meta["codec"] in ("struct", "map", "list"):
        # nested chunks: cheapest correct answer is a 0-row decode
        raise TypeError(f"header-only type unavailable for {meta['codec']!r} chunks")
    return _chunk_type(meta)


def _value_type(typ: pa.DataType) -> pa.DataType:
    # physical type the codec round-trips through
    if pa.types.is_decimal(typ):
        return pa.binary(16 if pa.types.is_decimal128(typ) else 32)
    if pa.types.is_timestamp(typ) or pa.types.is_date64(typ) or pa.types.is_time64(typ) or pa.types.is_duration(typ):
        return pa.int64()
    if pa.types.is_date32(typ) or pa.types.is_time32(typ):
        return pa.int32()
    return typ


def _str_to_type(s: str) -> pa.DataType:
    if s.startswith("fixed_size_binary"):
        return pa.binary(int(s.split("[")[1].rstrip("]")))
    if "[" in s or s.startswith("decimal"):
        return _parse_t(s)
    return pa.type_for_alias(s)


def column_sha256(arr) -> str:
    """Order-sensitive canonical content hash of a column (values + validity).

    Offset/slice-invariant: hashes the logical validity sequence and the
    null-free value bytes, so an original sliced arrow array and its decoded
    offset-0 reconstruction hash identically iff bit-identical."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    h = hashlib.sha256()

    def upd(a: np.ndarray) -> None:
        # hashlib consumes the buffer protocol directly; only copy when the
        # array isn't contiguous (tobytes() always copied)
        h.update(a if a.flags.c_contiguous else np.ascontiguousarray(a))

    h.update(str(arr.type).encode())
    if arr.null_count:
        upd(np.asarray(arr.is_valid()).astype(np.uint8))
        vals = arr.drop_null()
    else:
        vals = arr
    t = vals.type
    if not _is_nested(t):
        vals, _ = _physical(vals)  # decimals/timestamps -> physical view
        t = vals.type
    if (
        pa.types.is_string(t)
        or pa.types.is_binary(t)
        or pa.types.is_large_string(t)
        or pa.types.is_large_binary(t)
    ):
        from .codecs.base import binary_parts

        lengths, data = binary_parts(vals)
        upd(lengths)
        upd(data)
    elif pa.types.is_boolean(t):
        upd(vals.to_numpy(zero_copy_only=False).astype(np.uint8))
    elif pa.types.is_fixed_size_binary(t):
        w = t.byte_width
        data = np.frombuffer(
            vals.buffers()[1], dtype=np.uint8, count=len(vals) * w, offset=vals.offset * w
        )
        upd(data)
    elif pa.types.is_list(t) or pa.types.is_large_list(t):
        off_t = np.int64 if pa.types.is_large_list(t) else np.int32
        offsets = np.frombuffer(
            vals.buffers()[1], dtype=off_t, count=len(vals) + 1,
            offset=vals.offset * np.dtype(off_t).itemsize,
        )
        upd(np.diff(offsets).astype(np.int64))
        h.update(column_sha256(vals.flatten()).encode())
    elif pa.types.is_struct(t):
        for i in range(t.num_fields):
            h.update(t.field(i).name.encode())
            h.update(column_sha256(vals.field(i)).encode())
    elif pa.types.is_map(t):
        ls = vals.cast(pa.list_(pa.struct([t.key_field, t.item_field])))
        h.update(column_sha256(ls).encode())
    else:
        phys, _ = _physical(vals)
        upd(phys.to_numpy(zero_copy_only=True))
    return h.hexdigest()
