"""Native PAR1 parquet file writer/reader over the engine's own codecs.

The interop proof the chunk container can't give: pages this engine encodes
(PLAIN, RLE_DICTIONARY, DELTA_BINARY_PACKED, DELTA_LENGTH_BYTE_ARRAY,
DELTA_BYTE_ARRAY, BYTE_STREAM_SPLIT) are written into a real parquet file —
``PAR1`` magic, thrift-compact page headers and footer — that DuckDB and
pyarrow read directly; and foreign (pyarrow-written) parquet pages are
decoded through the engine's own decoders.

File assembly mirrors the reference's writer/reader
(write: writer/writer.go:142-225 footer+magic, layout/page.go:219-281 page
framing; read: reader/reader.go:148-176 footer, layout/page.go:721-937 page
parse) re-expressed over numpy/Arrow kernels.

Scope: flat AND nested schemas — LIST/MAP via the standard 3-level groups and
STRUCT subtrees, with true Dremel repetition/definition levels (shredding/
assembly in formats/dremel.py, mirroring marshal/marshal.go:227-343 +
schema/schemahandler.go:297-386 + marshal/unmarshal.go:31-264 semantics);
leaf types bool/int8/int16/int32/int64/uint8/uint16/float/double/string/
binary/date32/timestamp, and time32/time64 on read; v1 and v2 data pages on
read, v1 on write.
Legacy 2-level lists (unannotated
repeated fields and pre-standard LIST shapes, LogicalTypes.md backward-compat
rules) decode on read as non-null lists of non-null elements, matching the
reference's generic RL/DL assembly; write_par1_legacy_list emulates those
old writers so the path stays testable.
"""

from __future__ import annotations

import datetime
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..bits import bit_width, read_uvarint
from ..codecs.bss import decode_bss, encode_bss
from ..codecs.delta import (
    decode_delta_ba,
    decode_delta_length_ba,
    delta_bp_decode_np,
    delta_bp_encode_np,
    encode_delta_ba,
    encode_delta_length_ba,
)
from ..codecs.plain import decode_plain, encode_plain
from ..codecs.rle import (
    decode_hybrid,
    decode_levels,
    decode_levels_bitpacked,
    encode_hybrid,
    encode_levels,
    encode_levels_bitpacked,
)
from .parquet_meta import (
    COMP_BROTLI,
    COMP_GZIP,
    COMP_LZ4,
    COMP_LZ4_RAW,
    COMP_SNAPPY,
    COMP_UNCOMPRESSED,
    COMP_ZSTD,
    CONV_DATE,
    CONV_LIST,
    CONV_MAP,
    CONV_MAP_KEY_VALUE,
    CONV_TIME_MICROS,
    CONV_TIME_MILLIS,
    CONV_TIMESTAMP_MICROS,
    CONV_TIMESTAMP_MILLIS,
    CONV_UTF8,
    ENC_BYTE_STREAM_SPLIT,
    ENC_DELTA_BINARY_PACKED,
    ENC_DELTA_BYTE_ARRAY,
    ENC_DELTA_LENGTH_BYTE_ARRAY,
    ENC_BIT_PACKED,
    ENC_PLAIN,
    ENC_PLAIN_DICTIONARY,
    ENC_RLE,
    ENC_RLE_DICTIONARY,
    BO_ASCENDING,
    BO_DESCENDING,
    BO_UNORDERED,
    PAGE_DATA,
    PAGE_DATA_V2,
    PAGE_DICTIONARY,
    PT_BOOLEAN,
    PT_BYTE_ARRAY,
    PT_DOUBLE,
    PT_FLBA,
    PT_FLOAT,
    PT_INT32,
    PT_INT64,
    PT_INT96,
    REP_OPTIONAL,
    REP_REPEATED,
    REP_REQUIRED,
    SPECS,
)
from .dremel import LeafStream, Node, assemble, leaf_specs, node_from_arrow, shred
from .thrift_compact import CompactReader, CompactWriter

MAGIC = b"PAR1"


def _fs_open(path: str, mode: str):
    """Open a local path or any fsspec URI (s3://, gs://, memory://, ...) —
    the reference's swappable ParquetFile backends (source/source.go:9-16)
    behind one call.  Dispatch rules live in ``uri.open_any`` (shared with
    the dataset layer's ``native_io._fs_of``)."""
    from ..uri import open_any

    return open_any(path, mode)

_COMP_NAME = {
    "none": COMP_UNCOMPRESSED,
    "snappy": COMP_SNAPPY,
    "gzip": COMP_GZIP,
    "zstd": COMP_ZSTD,
    "lz4_raw": COMP_LZ4_RAW,
    "brotli": COMP_BROTLI,  # beyond the reference (README.md:172-173)
}
_COMP_ARROW = {
    COMP_SNAPPY: "snappy",
    COMP_GZIP: "gzip",
    COMP_ZSTD: "zstd",
    COMP_LZ4_RAW: "lz4_raw",
    COMP_BROTLI: "brotli",
}


_CODEC_CACHE: dict[str, pa.Codec] = {}


def _codec(name: str) -> pa.Codec:
    c = _CODEC_CACHE.get(name)
    if c is None:
        c = _CODEC_CACHE[name] = pa.Codec(name)
    return c


def _compress(body: bytes, comp: int) -> bytes:
    if comp == COMP_UNCOMPRESSED:
        return body
    return _codec(_COMP_ARROW[comp]).compress(body, asbytes=True)


def _decompress(body: bytes, comp: int, raw_len: int) -> bytes:
    if comp == COMP_UNCOMPRESSED:
        return body
    if comp == COMP_LZ4:
        return _decompress_lz4_legacy(body, raw_len)
    return _codec(_COMP_ARROW[comp]).decompress(body, raw_len, asbytes=True)


def _decompress_lz4_legacy(body: bytes, raw_len: int) -> bytes:
    """Deprecated LZ4 codec (id 5): old Hadoop/Spark/Impala writers framed
    pages as repeated [u32be uncompressed_len][u32be compressed_len][raw
    LZ4 block]s; some writers emitted a bare raw block or an LZ4 frame
    instead (the ambiguity is why the spec deprecated it for LZ4_RAW).
    Try hadoop framing first, then the two bare forms."""
    raw = _codec("lz4_raw")
    if len(body) >= 8:
        out, pos, ok = [], 0, True
        got = 0
        while pos + 8 <= len(body):
            un = int.from_bytes(body[pos : pos + 4], "big")
            cn = int.from_bytes(body[pos + 4 : pos + 8], "big")
            if un > (1 << 31) or cn > len(body) - pos - 8 or got + un > raw_len:
                ok = False
                break
            try:
                out.append(raw.decompress(body[pos + 8 : pos + 8 + cn], un, asbytes=True))
            except (OSError, pa.ArrowInvalid, pa.ArrowIOError):
                ok = False
                break
            got += un
            pos += 8 + cn
        if ok and pos == len(body) and got == raw_len:
            return b"".join(out)
    try:
        return raw.decompress(body, raw_len, asbytes=True)
    except (OSError, pa.ArrowInvalid, pa.ArrowIOError):
        return _codec("lz4").decompress(body, raw_len, asbytes=True)


# -- type mapping -------------------------------------------------------------


# converted types INT_8 / INT_16 / UINT_8 / UINT_16 (read back by _logical_type)
_NARROW_INT_CONV = {pa.int8(): 15, pa.int16(): 16, pa.uint8(): 11, pa.uint16(): 12}


def _physical(t: pa.DataType) -> tuple[int, int | None, dict | None, pa.DataType]:
    """arrow type -> (physical, converted_type, logicalType, storage arrow type)."""
    if pa.types.is_boolean(t):
        return PT_BOOLEAN, None, None, pa.bool_()
    if pa.types.is_int32(t):
        return PT_INT32, None, None, pa.int32()
    if t in _NARROW_INT_CONV:
        # INT32 storage keeps their value order, so stats and blooms stay
        # the INT32 ones; uint32/uint64 need unsigned stat order (unsupported)
        return PT_INT32, _NARROW_INT_CONV[t], None, pa.int32()
    if pa.types.is_int64(t):
        return PT_INT64, None, None, pa.int64()
    if pa.types.is_float32(t):
        return PT_FLOAT, None, None, pa.float32()
    if pa.types.is_float64(t):
        return PT_DOUBLE, None, None, pa.float64()
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return PT_BYTE_ARRAY, CONV_UTF8, {"STRING": {}}, pa.string()
    if pa.types.is_fixed_size_binary(t):
        # FIXED_LEN_BYTE_ARRAY (reference: types/types.go:11-78 maps it to a
        # length-tagged string); plain encoding = raw concatenated bytes
        return PT_FLBA, None, None, t
    if pa.types.is_binary(t) or pa.types.is_large_binary(t):
        return PT_BYTE_ARRAY, None, None, pa.binary()
    if pa.types.is_date32(t):
        return PT_INT32, CONV_DATE, {"DATE": {}}, pa.int32()
    if pa.types.is_timestamp(t):
        # seconds are written as MILLIS, as pyarrow writes them (their
        # values are scaled in _write_leaf_chunk); NANOS has no converted type
        conv, lt_unit = {
            "s": (CONV_TIMESTAMP_MILLIS, "MILLIS"),
            "ms": (CONV_TIMESTAMP_MILLIS, "MILLIS"),
            "us": (CONV_TIMESTAMP_MICROS, "MICROS"),
            "ns": (None, "NANOS"),
        }[t.unit]
        lt = {"TIMESTAMP": {"isAdjustedToUTC": t.tz is not None, "unit": {lt_unit: {}}}}
        return PT_INT64, conv, lt, pa.int64()
    raise NotImplementedError(f"PAR1 writer: unsupported type {t} (flat types only)")


# read side only (the writer rejects them): UINT_32 / UINT_64 leaves decode
# into their signed storage, reinterpreted by a wrapping cast; TIME leaves
# decode into their INT32 / INT64 storage
_UNSIGNED_STORAGE = {pa.uint32(): pa.int32(), pa.uint64(): pa.int64()}


def _read_storage(t: pa.DataType) -> pa.DataType:
    """Arrow storage type a leaf of logical type `t` decodes into."""
    if pa.types.is_time(t):
        return pa.int32() if pa.types.is_time32(t) else pa.int64()
    return _UNSIGNED_STORAGE.get(t) or _physical(t)[3]


def _logical_type(elem: dict) -> pa.DataType:
    """SchemaElement -> arrow type (reader side)."""
    pt = elem["type"]
    conv = elem.get("converted_type")
    lt = elem.get("logicalType") or {}
    if pt == PT_BOOLEAN:
        return pa.bool_()
    if pt == PT_INT32:
        if conv == CONV_DATE:
            return pa.date32()
        if conv == CONV_TIME_MILLIS or "TIME" in lt:
            return pa.time32("ms")
        if conv in (15, 16, 17):  # INT_8/16/32
            return {15: pa.int8(), 16: pa.int16(), 17: pa.int32()}[conv]
        if conv in (11, 12, 13):  # UINT_8/16/32
            return {11: pa.uint8(), 12: pa.uint16(), 13: pa.uint32()}[conv]
        return pa.int32()
    if pt == PT_INT64:
        ts = lt.get("TIMESTAMP")
        if ts is not None:
            unit = "ms" if "MILLIS" in ts.get("unit", {}) else (
                "ns" if "NANOS" in ts.get("unit", {}) else "us"
            )
            tz = "UTC" if ts.get("isAdjustedToUTC") else None
            return pa.timestamp(unit, tz=tz)
        if "TIME" in lt:
            return pa.time64("ns" if "NANOS" in lt["TIME"].get("unit", {}) else "us")
        if conv == CONV_TIME_MICROS:
            return pa.time64("us")
        if conv == CONV_TIMESTAMP_MILLIS:
            return pa.timestamp("ms")
        if conv == CONV_TIMESTAMP_MICROS:
            return pa.timestamp("us")
        if conv == 14:  # UINT_64
            return pa.uint64()
        return pa.int64()
    if pt == PT_FLOAT:
        return pa.float32()
    if pt == PT_DOUBLE:
        return pa.float64()
    if pt == PT_BYTE_ARRAY:
        if conv == CONV_UTF8 or "STRING" in lt:
            return pa.string()
        return pa.binary()
    if pt == PT_FLBA:
        return pa.binary(elem.get("type_length", 0))
    if pt == PT_INT96:
        # deprecated INT96 timestamps (reference reads them as ns,
        # encoding/encodingread.go): decoded as binary(12), converted after
        return pa.timestamp("ns")
    raise NotImplementedError(f"PAR1 reader: unsupported physical type {pt}")


# -- writer -------------------------------------------------------------------


def _default_encoding(arr: pa.Array, t: pa.DataType) -> str:
    if pa.types.is_boolean(t):
        return "plain"
    n = max(len(arr), 1)
    card = pc.count_distinct(arr).as_py() / n if len(arr) else 1.0
    if pa.types.is_string(t) or pa.types.is_large_string(t) or pa.types.is_binary(t):
        return "dict" if card < 0.6 else "delta_length_ba"
    if pa.types.is_integer(t) or pa.types.is_date32(t) or pa.types.is_timestamp(t):
        return "dict" if card < 0.05 else "delta_bp"
    if pa.types.is_fixed_size_binary(t):
        return "dict" if card < 0.6 else "plain"
    return "byte_stream_split"  # floats


_ENC_ID = {
    "plain": ENC_PLAIN,
    "delta_bp": ENC_DELTA_BINARY_PACKED,
    "delta_length_ba": ENC_DELTA_LENGTH_BYTE_ARRAY,
    "delta_ba": ENC_DELTA_BYTE_ARRAY,
    "byte_stream_split": ENC_BYTE_STREAM_SPLIT,
    "dict": ENC_RLE_DICTIONARY,
}


# canonical empty DELTA_BINARY_PACKED stream: block=128, 4 miniblocks,
# total_count=0, first_value=0.  parquet-cpp insists on parsing this header
# even for zero-value pages (an all-null page in a multi-page chunk), so the
# interop writer must not emit b"" there; the engine's own decoders accept
# both forms.
_EMPTY_DELTA = bytes([0x80, 0x01, 0x04, 0x00, 0x00])

# dictionary-page byte cap before falling back to PLAIN (parquet-mr's
# dictionary_page_size default): every reader holds the dict page whole
_DICT_PAGE_LIMIT = 1 << 20


def _encode_values(enc: str, arr: pa.Array) -> bytes:
    if len(arr) == 0:
        if enc == "delta_bp" or enc == "delta_length_ba":
            return _EMPTY_DELTA
        if enc == "delta_ba":
            return _EMPTY_DELTA * 2  # prefix-lengths delta + suffix-lengths delta
    if enc == "plain":
        return encode_plain(arr)[0]
    if enc == "delta_bp":
        return delta_bp_encode_np(
            np.asarray(arr).astype(np.int64, copy=False), bits=arr.type.bit_width
        )
    if enc == "delta_length_ba":
        return encode_delta_length_ba(arr)[0]
    if enc == "delta_ba":
        return encode_delta_ba(arr)[0]
    if enc == "byte_stream_split":
        return encode_bss(arr)[0]
    raise ValueError(enc)


_STAT_PACK = {PT_INT32: "<i", PT_INT64: "<q", PT_FLOAT: "<f", PT_DOUBLE: "<d"}
def _stat_bytes(v, pt: int) -> bytes | None:
    """One min/max value -> its plain-encoded stat bytes (parquet-format
    Statistics / ColumnIndex encoding: little-endian for numerics, raw bytes
    for BYTE_ARRAY/FLBA, single byte for BOOLEAN).  None = not representable
    (NaN) -> the caller omits the whole index, which the spec allows
    (reference accumulates the same per-page stats in
    writer/writer.go:418-481 before serializing the page indexes).  Long
    BYTE_ARRAY values are TRUNCATED to sound bounds by the callers
    (_trunc_min_bytes/_trunc_max_bytes) rather than dropped."""
    import math
    import struct

    if v is None:
        return None
    if pt == PT_BOOLEAN:
        return b"\x01" if v else b"\x00"
    if pt in (PT_FLOAT, PT_DOUBLE) and math.isnan(v):
        return None
    if pt in _STAT_PACK:
        return struct.pack(_STAT_PACK[pt], v)
    if isinstance(v, str):
        v = v.encode()
    return v


_STAT_TRUNCATE = 64  # parquet-mr's columnIndexTruncateLength default


def _trunc_min_bytes(b: bytes, limit: int = _STAT_TRUNCATE) -> bytes:
    """Sound lower bound for Statistics/ColumnIndex min of a long value:
    its prefix (<= the true min).  Only applied when the prefix is pure
    ASCII so a UTF8-annotated column's stats stay valid UTF-8 (multi-KB
    text values otherwise bloat every page's index entry)."""
    if len(b) <= limit or any(x >= 0x80 for x in b[:limit]):
        return b
    return b[:limit]


def _trunc_max_bytes(b: bytes, limit: int = _STAT_TRUNCATE) -> bytes:
    """Sound upper bound: the prefix with its last incrementable byte
    incremented (> every value sharing the prefix).  Guarded to bytes
    < 0x7F so the incremented result stays ASCII — a 0x7F byte would
    round up to 0x80 and break the valid-UTF-8 invariant for
    UTF8-annotated columns.  Falls back to the exact value when it can't
    round up."""
    if len(b) <= limit or any(x >= 0x7F for x in b[:limit]):
        return b
    p = bytearray(b[:limit])
    p[-1] += 1
    return bytes(p)


def _arrow_bounds(vals: pa.Array, pt: int) -> tuple[bytes | None, bytes | None]:
    """(min, max) stat bytes of `vals` from Arrow's min_max (NaN skipped;
    an all-NaN float array has no bound).  BYTE_ARRAY bounds are truncated."""
    mm = pc.min_max(vals)
    lo, hi = mm["min"].as_py(), mm["max"].as_py()
    if pt in (PT_FLOAT, PT_DOUBLE) and lo is not None and lo > hi:
        lo = hi = None  # all NaN: Arrow yields inverted +/-inf
    lo_b, hi_b = _stat_bytes(lo, pt), _stat_bytes(hi, pt)
    if pt == PT_BYTE_ARRAY and lo_b is not None and hi_b is not None:
        lo_b, hi_b = _trunc_min_bytes(lo_b), _trunc_max_bytes(hi_b)
    return lo_b, hi_b


def _leaf_stats(
    vals: pa.Array, pt: int, spans: list[tuple[int, int]]
) -> tuple[list, list, tuple[bytes, bytes] | None]:
    """Statistics of one leaf chunk whose pages hold the value ranges
    `spans`: per page its min and max stat bytes (b"" for a page without
    values, None where a bound is not representable), and the chunk's
    (min, max), or None unless every page has both bounds.

    Fixed-width numeric and boolean pages take their bounds from one
    np.fmin / np.fmax reduceat over the page starts, and the chunk bounds
    from the page bounds.  Byte arrays, whose truncated bounds do not
    combine, and float chunks holding both signs of zero take theirs from
    Arrow's min_max, which keeps the sign of the zero it meets first."""
    full = [i for i, (v0, v1) in enumerate(spans) if v1 > v0]
    mins: list = [b""] * len(spans)
    maxs: list = [b""] * len(spans)
    arr = None
    if (pt in _STAT_PACK or pt == PT_BOOLEAN) and vals.null_count == 0 and full:
        arr = vals.to_numpy(zero_copy_only=False)
        if pt in (PT_FLOAT, PT_DOUBLE):
            neg = np.signbit(arr[arr == 0])
            if neg.any() and not neg.all():
                arr = None
    if arr is not None:
        at = [spans[i][0] for i in full]
        lo = np.fmin.reduceat(arr, at).tolist()
        hi = np.fmax.reduceat(arr, at).tolist()
        for i, a, b in zip(full, lo, hi):
            mins[i], maxs[i] = _stat_bytes(a, pt), _stat_bytes(b, pt)
    else:
        for i in full:
            v0, v1 = spans[i]
            mins[i], maxs[i] = _arrow_bounds(vals.slice(v0, v1 - v0), pt)
    if not full or None in mins or None in maxs:
        return mins, maxs, None
    if arr is not None:
        return mins, maxs, (_stat_bytes(min(lo), pt), _stat_bytes(max(hi), pt))
    lo_b, hi_b = _arrow_bounds(vals, pt)
    return mins, maxs, (None if lo_b is None or hi_b is None else (lo_b, hi_b))


def _boundary_order(null_pages: list[bool], mins: list[bytes], maxs: list[bytes], pt: int) -> int:
    if any(null_pages) or len(mins) < 2:
        return BO_UNORDERED
    import struct

    if pt in _STAT_PACK:
        lo = [struct.unpack(_STAT_PACK[pt], b)[0] for b in mins]
        hi = [struct.unpack(_STAT_PACK[pt], b)[0] for b in maxs]
    else:
        lo, hi = mins, maxs  # unsigned lexicographic == UTF8 order
    if all(lo[i] >= lo[i - 1] and hi[i] >= hi[i - 1] for i in range(1, len(lo))):
        return BO_ASCENDING
    if all(lo[i] <= lo[i - 1] and hi[i] <= hi[i - 1] for i in range(1, len(lo))):
        return BO_DESCENDING
    return BO_UNORDERED


def _crc_i32(data: bytes) -> int:
    """PageHeader.crc (parquet-format PARQUET-2147): standard zlib CRC-32 of
    the page body — the compressed data for v1/dictionary pages, the
    rep-levels + def-levels + compressed-values concatenation for v2 pages —
    stored as a signed thrift i32."""
    c = zlib.crc32(data) & 0xFFFFFFFF
    return c - (1 << 32) if c >= (1 << 31) else c


def _check_crc(hdr: dict, body: bytes, where: str) -> None:
    """Verify a page body against its header CRC (no-op when absent).
    `body` is exactly the bytes between the header and the next page, which
    for every page type matches the spec's CRC coverage."""
    stored = hdr.get("crc")
    if stored is None:
        return
    actual = zlib.crc32(body) & 0xFFFFFFFF
    if actual != stored & 0xFFFFFFFF:
        raise ValueError(
            f"parquet page CRC mismatch ({where}): stored "
            f"0x{stored & 0xFFFFFFFF:08x}, computed 0x{actual:08x}"
        )


def _write_page(out, writer_specs, page_type: int, header_struct: dict, payload: bytes, comp: int):
    body = _compress(payload, comp)
    w = CompactWriter(writer_specs)
    hdr = {
        "type": page_type,
        "uncompressed_page_size": len(payload),
        "compressed_page_size": len(body),
        "crc": _crc_i32(body),
    }
    hdr.update(header_struct)
    w.write_struct("PageHeader", hdr)
    out.write(bytes(w.out))
    out.write(body)
    return len(w.out) + len(payload), len(w.out) + len(body)


def _emit_schema(node: Node, elems: list[dict]) -> None:
    """Recursive SchemaElement emission: leaves as before; LIST/MAP via the
    standard 3-level group expansion (reference builds the same shape in
    schema/schemahandler.go:297-386); STRUCT as a plain group."""
    rep_t = REP_OPTIONAL if node.opt else REP_REQUIRED
    if node.kind == "leaf":
        pt, conv, lt, storage = _physical(node.type)
        elem = {
            "type": pt,
            "repetition_type": rep_t,
            "name": node.name,
            "converted_type": conv,
            "logicalType": lt,
        }
        if pt == PT_FLBA:
            elem["type_length"] = storage.byte_width
        elems.append(elem)
        return
    if node.kind == "struct":
        elems.append(
            {"repetition_type": rep_t, "name": node.name, "num_children": len(node.children)}
        )
        for c in node.children:
            _emit_schema(c, elems)
        return
    if node.kind == "list":
        elems.append(
            {
                "repetition_type": rep_t,
                "name": node.name,
                "num_children": 1,
                "converted_type": CONV_LIST,
                "logicalType": {"LIST": {}},
            }
        )
        elems.append(
            {"repetition_type": REP_REPEATED, "name": node.mid_name or "list", "num_children": 1}
        )
        _emit_schema(node.children[0], elems)
        return
    assert node.kind == "map", node.kind
    elems.append(
        {
            "repetition_type": rep_t,
            "name": node.name,
            "num_children": 1,
            "converted_type": CONV_MAP,
            "logicalType": {"MAP": {}},
        }
    )
    elems.append(
        {
            "repetition_type": REP_REPEATED,
            "name": node.mid_name or "key_value",
            "num_children": 2,
        }
    )
    _emit_schema(node.children[0], elems)
    _emit_schema(node.children[1], elems)


def _write_leaf_chunk(
    out,
    comp: int,
    st: LeafStream,
    enc: str,
    page_rows: int,
    page_version: int = 1,
    pt_override: int | None = None,
    bloom_fpp: float | None = None,
    page_bytes: int | None = None,
    level_encoding: str = "rle",
) -> dict:
    """Write one leaf's column chunk (dict page + v1 or v2 data pages, paged
    on ROW boundaries — pages never split a record mid-list).  Returns the
    ColumnChunk dict.  pt_override=PT_INT96 marks a binary(12) stream as the
    deprecated INT96 physical (stats/indexes suppressed: INT96 ordering is
    undefined by the spec).  level_encoding="bit_packed" writes v1 pages'
    rep/def level streams with the deprecated MSB BIT_PACKED encoding
    (codecs/rle.py:encode_levels_bitpacked) instead of the RLE hybrid."""
    pt, _, _, storage = _physical(st.node.type)
    if pt_override is not None:
        pt = pt_override
    vals = st.values
    if isinstance(vals, pa.ChunkedArray):
        vals = vals.combine_chunks()
    if pa.types.is_timestamp(vals.type) and vals.type.unit == "s":
        vals = vals.cast(pa.timestamp("ms", vals.type.tz))  # stored as MILLIS
    if vals.type != storage:
        vals = vals.cast(storage)
    bloom_bytes = None
    if bloom_fpp is not None and pt_override is None:
        from .bloom import SplitBlockBloom, hash_arrow_values

        uniq = pc.unique(vals)
        hashes = hash_arrow_values(uniq, pt)
        if hashes is not None and len(hashes):
            sb = SplitBlockBloom.for_ndv(len(hashes), bloom_fpp)
            sb.insert(hashes)
            bloom_bytes = sb.to_bytes()
    enc_id = _ENC_ID[enc]
    rep, defs = st.rep, st.defs
    n_slots = len(rep)
    max_rep, max_def = st.max_rep, st.max_def
    row_starts = np.flatnonzero(rep == 0) if max_rep else np.arange(n_slots, dtype=np.int64)
    n_rows = len(row_starts)
    if page_bytes is not None and n_rows:
        # size-targeted pages (parquet-mr data_pagesize discipline): derive
        # this LEAF's rows-per-page from its own uncompressed value bytes,
        # so a 2 KB-per-row text column and an 8 B-per-row int column both
        # land near page_bytes instead of sharing one row count
        per_row = max(vals.nbytes / n_rows, 1.0)
        page_rows = max(256, int(page_bytes / per_row))
    val_cum = (
        np.cumsum(defs == max_def) if max_def else np.arange(1, n_slots + 1, dtype=np.int64)
    )
    first_off = out.tell()
    dict_off = None
    chunk_unc = chunk_comp = 0
    dict_vals = idx_np = None
    if enc == "dict":
        denc = vals.dictionary_encode()
        if isinstance(denc, pa.ChunkedArray):
            denc = denc.combine_chunks()
        if denc.dictionary.nbytes > _DICT_PAGE_LIMIT:
            # parquet-mr-style dictionary cap: the dict page is held whole in
            # every reader's memory, so a high-cardinality chunk falls back
            # to PLAIN instead of emitting a multi-MB dictionary
            enc = "plain"
            enc_id = _ENC_ID["plain"]
        else:
            dict_vals = denc.dictionary
            idx_np = denc.indices.to_numpy(zero_copy_only=False).astype(np.uint64)
            dict_off = out.tell()
            u, c = _write_page(
                out,
                SPECS,
                PAGE_DICTIONARY,
                {"dictionary_page_header": {"num_values": len(dict_vals), "encoding": ENC_PLAIN}},
                encode_plain(dict_vals)[0],
                comp,
            )
            chunk_unc += u
            chunk_comp += c
    data_off = out.tell()
    # pages as (first row, slot range, value range); a chunk without rows
    # still writes one empty page
    pages = []
    for rlo in range(0, max(n_rows, 1), page_rows):
        if n_rows:
            pos0 = int(row_starts[rlo])
            pos1 = int(row_starts[rlo + page_rows]) if rlo + page_rows < n_rows else n_slots
        else:
            pos0 = pos1 = 0
        v0 = int(val_cum[pos0 - 1]) if pos0 else 0
        v1 = int(val_cum[pos1 - 1]) if pos1 else 0
        pages.append((rlo, pos0, pos1, v0, v1))
    null_pages = [v1 == v0 for *_, v0, v1 in pages]
    null_counts = [(pos1 - pos0) - (v1 - v0) for _, pos0, pos1, v0, v1 in pages]
    if pt_override is not None:  # INT96: no defined order -> no index/stats
        mins = maxs = [None] * len(pages)
        chunk_bounds = None
    else:
        mins, maxs, chunk_bounds = _leaf_stats(vals, pt, [(v0, v1) for *_, v0, v1 in pages])
    page_locs: list[dict] = []
    for rlo, pos0, pos1, v0, v1 in pages:
        page_off = out.tell()
        if enc == "dict":
            w_bits = bit_width(max(len(dict_vals) - 1, 0))
            values_b = bytes([w_bits]) + encode_hybrid(idx_np[v0:v1], w_bits)
        else:
            values_b = _encode_values(enc, vals.slice(v0, v1 - v0))
        if page_version == 2:
            # v2 framing (reference: layout/page.go:297-323): rep/def level
            # streams are RAW hybrid (no u32 prefix) and stay UNCOMPRESSED;
            # only the value bytes compress
            rep_b = (
                encode_hybrid(rep[pos0:pos1].astype(np.uint64), bit_width(max_rep))
                if max_rep
                else b""
            )
            def_b = (
                encode_hybrid(defs[pos0:pos1].astype(np.uint64), bit_width(max_def))
                if max_def
                else b""
            )
            body = _compress(values_b, comp)
            w = CompactWriter(SPECS)
            w.write_struct(
                "PageHeader",
                {
                    "type": PAGE_DATA_V2,
                    "uncompressed_page_size": len(rep_b) + len(def_b) + len(values_b),
                    "compressed_page_size": len(rep_b) + len(def_b) + len(body),
                    "crc": _crc_i32(rep_b + def_b + body),
                    "data_page_header_v2": {
                        "num_values": pos1 - pos0,
                        "num_nulls": (pos1 - pos0) - (v1 - v0),
                        "num_rows": min(page_rows, n_rows - rlo) if n_rows else 0,
                        "encoding": enc_id,
                        "definition_levels_byte_length": len(def_b),
                        "repetition_levels_byte_length": len(rep_b),
                        "is_compressed": comp != COMP_UNCOMPRESSED,
                    },
                },
            )
            out.write(bytes(w.out))
            out.write(rep_b)
            out.write(def_b)
            out.write(body)
            u = len(w.out) + len(rep_b) + len(def_b) + len(values_b)
            c = len(w.out) + len(rep_b) + len(def_b) + len(body)
        else:
            bp = level_encoding == "bit_packed"
            payload = b""
            if max_rep:
                payload += (
                    encode_levels_bitpacked(rep[pos0:pos1], max_rep)
                    if bp
                    else encode_levels(rep[pos0:pos1].astype(np.uint64), max_rep)
                )
            if max_def:
                payload += (
                    encode_levels_bitpacked(defs[pos0:pos1], max_def)
                    if bp
                    else encode_levels(defs[pos0:pos1].astype(np.uint64), max_def)
                )
            payload += values_b
            u, c = _write_page(
                out,
                SPECS,
                PAGE_DATA,
                {
                    "data_page_header": {
                        "num_values": pos1 - pos0,
                        "encoding": enc_id,
                        "definition_level_encoding": ENC_BIT_PACKED if bp else ENC_RLE,
                        "repetition_level_encoding": ENC_BIT_PACKED if bp else ENC_RLE,
                    }
                },
                payload,
                comp,
            )
        chunk_unc += u
        chunk_comp += c
        page_locs.append(
            {"offset": page_off, "compressed_page_size": c, "first_row_index": rlo}
        )
    lvl_enc = (
        ENC_BIT_PACKED
        if level_encoding == "bit_packed" and page_version == 1
        else ENC_RLE
    )
    enc_list = sorted({lvl_enc, enc_id} | ({ENC_PLAIN} if enc == "dict" else set()))
    enc_stats = []
    if dict_off is not None:
        enc_stats.append(
            {"page_type": PAGE_DICTIONARY, "encoding": ENC_PLAIN, "count": 1}
        )
    enc_stats.append(
        {
            "page_type": PAGE_DATA_V2 if page_version == 2 else PAGE_DATA,
            "encoding": enc_id,
            "count": len(page_locs),
        }
    )
    meta = {
        "type": pt,
        "encodings": enc_list,
        "path_in_schema": st.path,
        "codec": comp,
        "num_values": n_slots,
        "total_uncompressed_size": chunk_unc,
        "total_compressed_size": chunk_comp,
        "data_page_offset": data_off,
        "dictionary_page_offset": dict_off,
        "encoding_stats": enc_stats,
    }
    column_index = None
    if all(m is not None for m in mins) and all(m is not None for m in maxs):
        column_index = {
            "null_pages": null_pages,
            "min_values": mins,
            "max_values": maxs,
            "boundary_order": _boundary_order(null_pages, mins, maxs, pt),
            "null_counts": null_counts,
        }
        if chunk_bounds is not None:
            meta["statistics"] = {
                "min_value": chunk_bounds[0],
                "max_value": chunk_bounds[1],
                "null_count": sum(null_counts),
            }
    return {
        "file_offset": first_off,
        "meta_data": meta,
        "_column_index": column_index,
        "_offset_index": {"page_locations": page_locs},
        "_bloom": bloom_bytes,
    }


def write_par1(
    table: pa.Table,
    path: str,
    codec: str | dict[str, str] = "snappy",
    encodings: dict[str, str] | None = None,
    row_group_rows: int | None = None,
    page_rows: int = 65536,
    page_bytes: int | None = None,
    row_group_bytes: int | None = None,
    data_page_version: int = 1,
    int96_timestamps: bool = False,
    key_value_metadata: dict[str, str] | None = None,
    column_key_value_metadata: dict[str, dict[str, str]] | None = None,
    sorting_columns: list[tuple[str, bool, bool]] | None = None,
    bloom: dict[str, float] | list[str] | None = None,
    level_encoding: str = "rle",
) -> dict:
    """Write `table` as a real parquet file through the engine's encoders.

    `level_encoding="bit_packed"` writes v1 data pages' repetition/
    definition level streams with the DEPRECATED MSB-first BIT_PACKED
    encoding (parquet-format Encodings.md; the reference's write-only
    analog is encoding/encodingwrite.go:420-466 — its reader rejects the
    encoding at layout/page.go:669-671, while this engine reads it back).
    v1 pages only: the v2 page format mandates RLE levels.  Interop note:
    Arrow C++ (pyarrow) decodes BIT_PACKED levels with its LSB-first
    BitReader — the OPPOSITE bit order from the spec's MSB definition —
    and DuckDB rejects the encoding outright; files written with this flag
    are readable by this engine and by spec-faithful readers (parquet-mr
    lineage), which is exactly why the encoding is deprecated.

    `codec`: one name for every column, or {column/leaf-path: codec} with a
    ""/"default" fallback key — parquet compression is per column chunk, so
    e.g. text columns can take zstd while int columns take snappy.

    `encodings`: column name (or dotted leaf path for nested columns) -> one
    of plain/delta_bp/delta_length_ba/delta_ba/byte_stream_split/dict;
    unspecified leaves get a light auto policy.  Nested columns (list/
    struct/map) are shredded into Dremel rep/def level streams per leaf
    (formats/dremel.py).  `data_page_version=2` writes DataPageV2 framing
    (reference v2 path: layout/page.go:297-323).  `int96_timestamps` writes
    top-level timestamp columns as the deprecated INT96 physical
    (encoding/encodingwrite.go:85-91 analog: 8-byte nanos-of-day + 4-byte
    Julian day, PLAIN only, stats suppressed).  Every page header carries a
    CRC-32 of its page body (PageHeader.crc, PARQUET-2147 coverage rules);
    readers opt in via read_par1(verify_crc=True) or pyarrow's
    page_checksum_verification.

    `key_value_metadata` lands in FileMetaData.key_value_metadata and
    `column_key_value_metadata` (column name -> {k: v}) in each chunk's
    ColumnMetaData.key_value_metadata — the reference exposes both through
    Footer/MetaData mutation (example/keyvalue_metadata.go:56-82).
    `sorting_columns` = [(column, descending, nulls_first), ...] declares the
    row-group sort order (RowGroup.sorting_columns; readable back via
    pyarrow metadata) — it is a declaration, the caller sorts.

    `row_group_bytes`: size-targeted row groups — rows per group derived
    from the table's uncompressed bytes per row (used when row_group_rows
    is not given; floor 1024 rows).

    `page_bytes`: size-targeted paging — each leaf derives its own
    rows-per-page from its uncompressed value bytes so every column's pages
    land near this many bytes (parquet-mr data_pagesize discipline);
    overrides `page_rows` per leaf, floor 256 rows.

    `bloom`: columns (or leaf paths) to attach spec split-block Bloom
    filters to — a list (fpp 0.01) or {column: fpp}.  Per-chunk SBBF over
    the chunk's distinct values, XXH64-hashed per the parquet-format
    BloomFilter spec (formats/bloom.py), serialized after the page indexes
    with ColumnMetaData.bloom_filter_offset/length pointing at the header.
    The reference has no bloom support (its pruning stops at min/max);
    read_par1_pruned probes these on == predicates to drop row groups whose
    statistics cannot.

    Returns the footer dict."""
    assert data_page_version in (1, 2), data_page_version
    if level_encoding not in ("rle", "bit_packed"):
        raise ValueError(f"level_encoding {level_encoding!r}")
    if level_encoding == "bit_packed" and data_page_version == 2:
        raise ValueError("bit_packed levels are v1-only (v2 mandates RLE)")
    # per-column compression (parquet codecs are per column chunk; the
    # chunk container's per_column_codec analog, §2.8): dict = column (or
    # dotted leaf path) -> codec name, "" or "default" key = fallback
    if isinstance(codec, dict):
        comp_default = _COMP_NAME[codec.get("", codec.get("default", "snappy"))]
        comp_by_col = {
            k: _COMP_NAME[v] for k, v in codec.items() if k not in ("", "default")
        }
    else:
        comp_default = _COMP_NAME[codec]
        comp_by_col = {}
    encodings = dict(encodings or {})
    int96_cols: set[str] = set()
    if int96_timestamps:
        from ..functions.converters import timestamp_to_int96

        for i, name in enumerate(table.column_names):
            f = table.schema.field(name)
            if pa.types.is_timestamp(f.type):
                col = table[name]
                if isinstance(col, pa.ChunkedArray):
                    col = col.combine_chunks()
                table = table.set_column(
                    i, pa.field(name, pa.binary(12)), timestamp_to_int96(col)
                )
                int96_cols.add(name)
                encodings[name] = "plain"  # INT96 pages are PLAIN in practice
    names = table.column_names
    nodes = {n: node_from_arrow(n, table.schema.field(n).type) for n in names}
    schema_elems: list[dict] = [{"name": "schema", "num_children": len(names)}]
    for name in names:
        _emit_schema(nodes[name], schema_elems)
        for _path, leaf, _mr, _md in leaf_specs(nodes[name]):
            _physical(leaf.type)  # validate leaf types up front
    for el in schema_elems:
        if el.get("name") in int96_cols and el.get("type") == PT_FLBA:
            el["type"] = PT_INT96
            el.pop("type_length", None)
            el.pop("converted_type", None)
            el.pop("logicalType", None)

    leaf_order = [
        ".".join(lp) for name in names for lp, _, _, _ in leaf_specs(nodes[name])
    ]
    sc_list = None
    if sorting_columns:
        sc_list = [
            {
                "column_idx": leaf_order.index(col),
                "descending": bool(desc),
                "nulls_first": bool(nf),
            }
            for col, desc, nf in sorting_columns
        ]
    col_kv = column_key_value_metadata or {}
    bloom_fpp: dict[str, float] = (
        {c: 0.01 for c in bloom} if isinstance(bloom, list) else dict(bloom or {})
    )
    rg_rows = row_group_rows or table.num_rows or 1
    if row_group_rows is None and row_group_bytes is not None and table.num_rows:
        # size-targeted row groups (parquet-mr row-group-size discipline):
        # rows per group from the table's own uncompressed bytes per row
        per_row = max(table.nbytes / table.num_rows, 1.0)
        rg_rows = max(1024, min(int(row_group_bytes / per_row), table.num_rows))
    row_groups = []
    with _fs_open(path, "wb") as out:
        out.write(MAGIC)
        for lo in range(0, table.num_rows, rg_rows) if table.num_rows else []:
            rg = table.slice(lo, rg_rows)
            chunks_meta = []
            rg_unc = rg_comp = 0
            for name in names:
                col = rg[name]
                if isinstance(col, pa.ChunkedArray):
                    col = col.combine_chunks()
                for st in shred(nodes[name], col):
                    enc = (
                        encodings.get(".".join(st.path))
                        or encodings.get(name)
                        or _default_encoding(st.values, st.node.type)
                    )
                    comp_c = comp_by_col.get(
                        ".".join(st.path), comp_by_col.get(name, comp_default)
                    )
                    cm = _write_leaf_chunk(
                        out, comp_c, st, enc, page_rows,
                        page_version=data_page_version,
                        pt_override=PT_INT96 if name in int96_cols else None,
                        bloom_fpp=bloom_fpp.get(".".join(st.path), bloom_fpp.get(name)),
                        page_bytes=page_bytes,
                        level_encoding=level_encoding,
                    )
                    kv = col_kv.get(".".join(st.path)) or col_kv.get(name)
                    if kv:
                        cm["meta_data"]["key_value_metadata"] = [
                            {"key": k, "value": v} for k, v in kv.items()
                        ]
                    chunks_meta.append(cm)
                    rg_unc += cm["meta_data"]["total_uncompressed_size"]
                    rg_comp += cm["meta_data"]["total_compressed_size"]
            rg_meta = {
                "columns": chunks_meta,
                "total_byte_size": rg_unc,
                "num_rows": rg.num_rows,
                "file_offset": chunks_meta[0]["file_offset"],
                "total_compressed_size": rg_comp,
            }
            if sc_list is not None:
                rg_meta["sorting_columns"] = sc_list
            row_groups.append(rg_meta)
        # Page indexes (parquet-format PageIndex layout: all ColumnIndex
        # structs, then all OffsetIndex structs, after the data and before
        # the footer; reference serializes the same pair in
        # writer/writer.go:157-204).  Each ColumnChunk records where its
        # structs landed so readers can page-prune without touching data.
        for rg in row_groups:
            for ch in rg["columns"]:
                ci = ch.pop("_column_index", None)
                if ci is not None:
                    w = CompactWriter(SPECS)
                    w.write_struct("ColumnIndex", ci)
                    ch["column_index_offset"] = out.tell()
                    ch["column_index_length"] = len(w.out)
                    out.write(bytes(w.out))
        for rg in row_groups:
            for ch in rg["columns"]:
                oi = ch.pop("_offset_index", None)
                if oi is not None:
                    w = CompactWriter(SPECS)
                    w.write_struct("OffsetIndex", oi)
                    ch["offset_index_offset"] = out.tell()
                    ch["offset_index_length"] = len(w.out)
                    out.write(bytes(w.out))
        # Bloom filter sections (parquet-format BloomFilter layout: header +
        # bitset, located by ColumnMetaData.bloom_filter_offset/length)
        for rg in row_groups:
            for ch in rg["columns"]:
                bb = ch.pop("_bloom", None)
                if bb is not None:
                    off = out.tell()
                    w = CompactWriter(SPECS)
                    w.write_struct(
                        "BloomFilterHeader",
                        {
                            "numBytes": len(bb),
                            "algorithm": {"BLOCK": {}},
                            "hash": {"XXHASH": {}},
                            "compression": {"UNCOMPRESSED": {}},
                        },
                    )
                    out.write(bytes(w.out))
                    out.write(bb)
                    ch["meta_data"]["bloom_filter_offset"] = off
                    ch["meta_data"]["bloom_filter_length"] = len(w.out) + len(bb)
        n_leaves = sum(len(leaf_specs(nodes[n])) for n in names)
        fmd = {
            "version": data_page_version,
            "schema": schema_elems,
            "num_rows": table.num_rows,
            "row_groups": row_groups,
            "created_by": "parquet_go_ray",
            "column_orders": [{"TYPE_ORDER": {}}] * n_leaves,
        }
        if key_value_metadata:
            fmd["key_value_metadata"] = [
                {"key": k, "value": v} for k, v in key_value_metadata.items()
            ]
        w = CompactWriter(SPECS)
        w.write_struct("FileMetaData", fmd)
        out.write(bytes(w.out))
        out.write(len(w.out).to_bytes(4, "little"))
        out.write(MAGIC)
    return fmd


def _legacy_list_streams(
    name: str, col: pa.Array, style: str
) -> tuple[list[dict], list[LeafStream]]:
    """Shred one list column into legacy 2-level leaf streams + schema elems.

    style "repeated": bare unannotated `repeated T name` (or `repeated group
    name {..}` for list<struct>) — null lists are unrepresentable and raise.
    style "array": `optional group name (LIST) { repeated T array }` — null
    lists allowed.  Elements must be non-null in both styles."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    valid = col.is_valid().to_numpy(zero_copy_only=False)
    if style == "repeated" and not valid.all():
        raise ValueError("legacy unannotated repeated fields cannot hold null lists")
    n = len(col)
    lens = np.zeros(n, np.int64)
    lens[valid] = pc.list_value_length(col.drop_null()).to_numpy(zero_copy_only=False)
    counts = np.maximum(lens, 1)
    slot_def = np.where(lens > 0, 2 if style == "array" else 1, 0)
    if style == "array":
        slot_def[valid & (lens == 0)] = 1  # empty (non-null) list
    max_def = 2 if style == "array" else 1
    total = int(counts.sum())
    defs = np.repeat(slot_def, counts).astype(np.int32)
    rep = np.ones(total, np.int32)
    starts = np.zeros(n, np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    rep[starts] = 0
    flat = col.drop_null().flatten()
    if flat.null_count:
        raise ValueError("legacy 2-level lists cannot hold null elements")
    et = col.type.value_type
    if pa.types.is_struct(et):
        if style == "array":
            raise ValueError("style 'array' supports primitive elements only")
        kids = [
            Node("leaf", et.field(i).name, et.field(i).type, et.field(i).nullable)
            for i in range(et.num_fields)
        ]
        elems: list[dict] = [
            {"repetition_type": REP_REPEATED, "name": name, "num_children": len(kids)}
        ]
        streams: list[LeafStream] = []
        for i, k in enumerate(kids):
            _emit_schema(k, elems)
            f = flat.field(i)
            d = defs.copy()
            md = max_def
            vals = f
            if k.opt:
                md = max_def + 1
                fv = np.zeros(total, bool)
                fv[defs == max_def] = f.is_valid().to_numpy(zero_copy_only=False)
                d = np.where(fv, max_def + 1, d).astype(np.int32)
                vals = f.drop_null()
            streams.append(
                LeafStream([name, k.name], Node("leaf", "", k.type, False), 1, md, rep, d, vals)
            )
        return elems, streams
    pt, conv, lt, _storage = _physical(et)
    leaf_elem = {
        "type": pt,
        "repetition_type": REP_REPEATED,
        "name": name if style == "repeated" else "array",
        "converted_type": conv,
        "logicalType": lt,
    }
    if pt == PT_FLBA:
        leaf_elem["type_length"] = _storage.byte_width
    if style == "array":
        elems = [
            {
                "repetition_type": REP_OPTIONAL,
                "name": name,
                "num_children": 1,
                "converted_type": CONV_LIST,
                "logicalType": {"LIST": {}},
            },
            leaf_elem,
        ]
        path = [name, "array"]
    else:
        elems = [leaf_elem]
        path = [name]
    return elems, [
        LeafStream(path, Node("leaf", "", et, False), 1, max_def, rep, defs, flat)
    ]


def write_par1_legacy_list(
    table: pa.Table,
    path: str,
    codec: str = "none",
    style: str | dict[str, str] = "repeated",
    page_rows: int = 65536,
) -> dict:
    """Write `table`'s list columns in the PRE-STANDARD 2-level layout —
    interop/test scaffolding emulating old Hive/Avro writers so read_par1's
    backward-compat path (LogicalTypes.md rules; reference reads any footer
    generically, marshal/unmarshal.go:31-264) has real files to decode.  The
    engine's own write_par1 always emits the standard 3-level shape.

    `style`: "repeated" (bare unannotated repeated field) or "array"
    (`optional group (LIST) { repeated T array }`), one name for all list
    columns or {column: style}.  Non-list columns write flat as usual.
    Returns the footer dict."""
    comp = _COMP_NAME[codec]
    styles = style if isinstance(style, dict) else {n: style for n in table.column_names}
    schema_elems: list[dict] = [{"name": "schema", "num_children": table.num_columns}]
    per_col: list[list[LeafStream]] = []
    for name in table.column_names:
        col = table[name]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if pa.types.is_list(col.type) or pa.types.is_large_list(col.type):
            elems, streams = _legacy_list_streams(name, col, styles.get(name, "repeated"))
            schema_elems += elems
            per_col.append(streams)
        else:
            node = node_from_arrow(name, col.type)
            _emit_schema(node, schema_elems)
            per_col.append(shred(node, col))
    chunks_meta = []
    rg_unc = rg_comp = 0
    with _fs_open(path, "wb") as out:
        out.write(MAGIC)
        for streams in per_col:
            for st in streams:
                cm = _write_leaf_chunk(out, comp, st, "plain", page_rows)
                # legacy-era writers carried no page indexes or blooms
                cm.pop("_column_index", None)
                cm.pop("_offset_index", None)
                cm.pop("_bloom", None)
                chunks_meta.append(cm)
                rg_unc += cm["meta_data"]["total_uncompressed_size"]
                rg_comp += cm["meta_data"]["total_compressed_size"]
        fmd = {
            "version": 1,
            "schema": schema_elems,
            "num_rows": table.num_rows,
            "row_groups": [
                {
                    "columns": chunks_meta,
                    "total_byte_size": rg_unc,
                    "num_rows": table.num_rows,
                    "file_offset": chunks_meta[0]["file_offset"] if chunks_meta else 4,
                    "total_compressed_size": rg_comp,
                }
            ],
            "created_by": "parquet_go_ray legacy-emulation",
            "column_orders": [{"TYPE_ORDER": {}}] * len(chunks_meta),
        }
        w = CompactWriter(SPECS)
        w.write_struct("FileMetaData", fmd)
        out.write(bytes(w.out))
        out.write(len(w.out).to_bytes(4, "little"))
        out.write(MAGIC)
    return fmd


# -- reader -------------------------------------------------------------------


def read_par1_meta(path: str) -> dict:
    with _fs_open(path, "rb") as f:
        f.seek(0, 2)
        size = f.tell()
        f.seek(size - 8)
        tail = f.read(8)
        if tail[4:] != MAGIC:
            raise ValueError("not a parquet file (missing PAR1 magic)")
        flen = int.from_bytes(tail[:4], "little")
        f.seek(size - 8 - flen)
        footer = f.read(flen)
    fmd, _ = CompactReader(SPECS, footer).read_struct("FileMetaData")
    return fmd


def read_par1_page_index(path: str, fmd: dict | None = None) -> list[list[dict]]:
    """Read back the ColumnIndex/OffsetIndex pair for every column chunk:
    result[row_group][column] = {"column_index": dict|None, "offset_index":
    dict|None}.  Engine-side analog of the reference's index readers so tests
    can use the structures without parquet-cpp (page-pruning scans parse
    only the entries they use, through ``_read_index``).  `fmd` is the
    file's FileMetaData when the caller has parsed it already."""
    if fmd is None:
        fmd = read_par1_meta(path)
    with _fs_open(path, "rb") as f:
        return [
            [{key: _read_index(f, ch, key) for key in _INDEX_SPEC} for ch in rg.get("columns", [])]
            for rg in fmd.get("row_groups", [])
        ]


_INDEX_SPEC = {"column_index": "ColumnIndex", "offset_index": "OffsetIndex"}


def _read_index(f, ch: dict, key: str) -> dict | None:
    """One column chunk's "column_index" or "offset_index" from the open
    file `f`, or None when the chunk has none."""
    off, ln = ch.get(f"{key}_offset"), ch.get(f"{key}_length")
    if off is None or not ln:
        return None
    f.seek(off)
    return CompactReader(SPECS, f.read(ln)).read_struct(_INDEX_SPEC[key])[0]


def _decode_value_bytes(
    enc: int, buf: bytes, nn: int, pt: int, atype: pa.DataType, dict_vals
) -> pa.Array:
    if enc == ENC_PLAIN:
        meta = {"rows": nn}
        if pa.types.is_fixed_size_binary(atype):
            meta["width"] = atype.byte_width
        return decode_plain(buf, meta, atype)
    if enc in (ENC_RLE_DICTIONARY, ENC_PLAIN_DICTIONARY):
        if dict_vals is None:
            raise ValueError("dictionary-encoded page without a dictionary page")
        w = buf[0]
        idx, _ = decode_hybrid(buf, w, nn, 1) if nn else (np.empty(0, np.uint64), 0)
        return dict_vals.take(pa.array(idx))
    if enc == ENC_DELTA_BINARY_PACKED:
        v, _ = delta_bp_decode_np(buf)
        return pa.array(v.astype(atype.to_pandas_dtype(), copy=False), type=atype)
    if enc == ENC_DELTA_LENGTH_BYTE_ARRAY:
        return decode_delta_length_ba(buf, {"rows": nn}, atype)
    if enc == ENC_DELTA_BYTE_ARRAY:
        return decode_delta_ba(buf, {"rows": nn}, atype)
    if enc == ENC_BYTE_STREAM_SPLIT:
        return decode_bss(buf, {"rows": nn, "k": atype.bit_width // 8}, atype)
    if enc == ENC_RLE:  # boolean values as RLE hybrid (u32-length-prefixed)
        vals, _ = decode_levels(buf, 1, nn)
        return pa.array(vals.astype(bool))
    raise NotImplementedError(f"PAR1 reader: encoding {enc}")


def _opens_full_run(buf: bytes, pos: int, end: int, max_def: int, n: int) -> bool:
    """True when the hybrid definition-level stream at buf[pos:end] opens
    with one RLE run of at least `n` values equal to `max_def`: every slot
    of the page is defined.  This engine and pyarrow frame a page without
    nulls that way, so its levels need not be decoded."""
    if pos >= end:
        return False
    header, p = read_uvarint(buf, pos)
    vbytes = (bit_width(max_def) + 7) // 8
    return (
        not header & 1
        and header >> 1 >= n
        and int.from_bytes(buf[p : p + vbytes], "little") == max_def
    )


def _decode_data_page(
    hdr: dict, body: bytes, comp: int, storage: pa.DataType,
    max_rep: int, max_def: int, dict_vals,
) -> tuple[np.ndarray | None, np.ndarray | None, pa.Array, int]:
    """Decode ONE v1/v2 data page body -> (rep, def, dense values, slots).
    rep is None when max_rep is 0; def is None when every slot is defined
    (max_def is 0, or the levels open with a full run of max_def)."""
    repv = defv = None
    if hdr["type"] == PAGE_DATA:
        raw = _decompress(body, comp, hdr["uncompressed_page_size"])
        dph = hdr["data_page_header"]
        n = dph["num_values"]
        vpos = 0
        # v1 level order: repetition levels first, then definition levels.
        # Each stream is the u32-prefixed RLE hybrid or the deprecated MSB
        # BIT_PACKED raw bitstream, per its header field (the reference
        # rejects BIT_PACKED here, layout/page.go:669-671; we decode it).
        def _lvls(enc, max_l, pos):
            if enc == ENC_BIT_PACKED:
                return decode_levels_bitpacked(raw, max_l, n, pos)
            return decode_levels(raw, max_l, n, pos)

        if max_rep:
            repv, vpos = _lvls(
                dph.get("repetition_level_encoding", ENC_RLE), max_rep, vpos
            )
        if max_def:
            enc = dph.get("definition_level_encoding", ENC_RLE)
            end = vpos + 4 + int.from_bytes(raw[vpos : vpos + 4], "little")
            if enc != ENC_BIT_PACKED and _opens_full_run(raw, vpos + 4, end, max_def, n):
                vpos = end
            else:
                defv, vpos = _lvls(enc, max_def, vpos)
        vals_body = raw[vpos:]
    else:
        dph = hdr["data_page_header_v2"]
        n = dph["num_values"]
        dl_len = dph.get("definition_levels_byte_length", 0)
        rl_len = dph.get("repetition_levels_byte_length", 0)
        # v2 layout: rep levels, then def levels (raw hybrid, no u32 prefix,
        # never compressed), then the value bytes
        if max_rep and rl_len:
            repv, _ = decode_hybrid(body[:rl_len], bit_width(max_rep), n)
        elif max_rep:
            repv = np.zeros(n, np.uint64)
        if max_def and not _opens_full_run(body, rl_len, rl_len + dl_len, max_def, n):
            if dl_len:
                defv, _ = decode_hybrid(body[rl_len : rl_len + dl_len], bit_width(max_def), n)
            else:
                defv = np.zeros(n, np.uint64)
        vals_body = body[rl_len + dl_len :]
        if dph.get("is_compressed", True):
            vals_body = _decompress(
                vals_body, comp, hdr["uncompressed_page_size"] - dl_len - rl_len
            )
    nn = n if defv is None else int(np.count_nonzero(defv == max_def))
    values = _decode_value_bytes(
        dph["encoding"], vals_body, nn, None, storage, dict_vals
    )
    return repv, defv, values, n


def _with_validity(values: pa.Array, present: np.ndarray) -> pa.Array:
    if len(values) == len(present):
        return values
    pos = np.cumsum(present) - 1
    idx = pa.array(pos.astype(np.int64), mask=~present.astype(bool))
    return values.take(idx)


def _chunk_pages(f, md: dict, pages: list[dict] | None, verify_crc: bool):
    """Yield (PageHeader, body) for a column chunk's pages in file order:
    every page until the chunk's value count is reached, or with `pages`
    (OffsetIndex page locations) the dictionary page and those pages."""
    start = md.get("dictionary_page_offset")
    if start is None or start > md["data_page_offset"]:
        start = md["data_page_offset"]
    if pages is None:
        f.seek(start)
        buf = f.read(md["total_compressed_size"])
        rdr = CompactReader(SPECS, buf)
        pos, left = 0, md["num_values"]
        while left > 0:
            hdr, pos = rdr.read_struct("PageHeader", pos)
            body = buf[pos : pos + hdr["compressed_page_size"]]
            pos += hdr["compressed_page_size"]
            if verify_crc:
                _check_crc(hdr, body, "chunk page walk")
            if hdr["type"] in (PAGE_DATA, PAGE_DATA_V2):
                left -= (hdr.get("data_page_header") or hdr["data_page_header_v2"])["num_values"]
            yield hdr, body
        return
    spans = [(loc["offset"], loc["compressed_page_size"]) for loc in pages]
    if start < md["data_page_offset"]:
        spans.insert(0, (start, md["data_page_offset"] - start))
    for off, ln in spans:
        f.seek(off)
        buf = f.read(ln)
        hdr, pos = CompactReader(SPECS, buf).read_struct("PageHeader", 0)
        body = buf[pos : pos + hdr["compressed_page_size"]]
        if verify_crc:
            _check_crc(hdr, body, "pruned page read")
        yield hdr, body


def read_par1_chunk_streams(
    f, chunk: dict, storage: pa.DataType, max_rep: int, max_def: int,
    verify_crc: bool = False, pages: list[dict] | None = None,
) -> tuple[np.ndarray | None, np.ndarray | None, pa.Array]:
    """Decode one leaf column chunk from an open file through the engine
    decoders into raw Dremel streams (rep, defs, dense values) — page walk
    mirrors reference layout/page.go:721-937 / reader/columnbuffer.go:105-156.
    `pages` (OffsetIndex page locations) decodes only those data pages;
    without it the whole chunk is walked.  rep is None when max_rep is 0 and
    defs is None when every slot is defined; otherwise both are int32."""
    comp = chunk["meta_data"]["codec"]
    dict_vals = None
    reps: list = []
    defs: list = []
    parts: list[pa.Array] = []
    for hdr, body in _chunk_pages(f, chunk["meta_data"], pages, verify_crc):
        if hdr["type"] == PAGE_DICTIONARY:
            raw = _decompress(body, comp, hdr["uncompressed_page_size"])
            dph = hdr["dictionary_page_header"]
            if dph["encoding"] not in (ENC_PLAIN, ENC_PLAIN_DICTIONARY):
                raise NotImplementedError("non-PLAIN dictionary page")
            dict_vals = decode_plain(raw, {"rows": dph["num_values"]}, storage)
        elif hdr["type"] in (PAGE_DATA, PAGE_DATA_V2):
            repv, defv, values, n = _decode_data_page(
                hdr, body, comp, storage, max_rep, max_def, dict_vals
            )
            reps.append(repv)
            defs.append((defv, n))
            parts.append(values.combine_chunks() if isinstance(values, pa.ChunkedArray) else values)
        # index or unknown page: skip
    rep = np.concatenate(reps).astype(np.int32) if max_rep and reps else None
    dl = None
    if any(d is not None for d, _n in defs):
        dl = np.concatenate(
            [np.full(n, max_def, np.uint64) if d is None else d for d, n in defs]
        ).astype(np.int32)
    if not parts:
        vals = pa.nulls(0, storage)
    elif len(parts) == 1:
        vals = parts[0]
    else:
        vals = pa.concat_arrays(parts)
    return rep, dl, vals


def _leaf_storage(leaf: Node) -> pa.DataType:
    """Arrow type a leaf's pages decode into (INT96 as its 12 raw bytes)."""
    return pa.binary(12) if leaf.phys == PT_INT96 else _read_storage(leaf.type)


def _leaf_values(vals: pa.Array, leaf: Node) -> pa.Array:
    """Decoded storage values as the leaf's logical type: INT96 converted to
    timestamps, unsigned storage reinterpreted by a wrapping cast."""
    if leaf.phys == PT_INT96:
        from ..functions.converters import int96_to_timestamp

        return int96_to_timestamp(vals, "ns")
    if vals.type != leaf.type:
        return vals.cast(leaf.type, safe=leaf.type not in _UNSIGNED_STORAGE)
    return vals


def _read_flat_chunk(
    f, chunk: dict, leaf: Node, verify_crc: bool, pages: list[dict] | None = None
) -> pa.Array:
    """A flat leaf's chunk, or only its `pages`, as the leaf's logical type."""
    max_def = 1 if leaf.opt else 0
    _, defs, vals = read_par1_chunk_streams(
        f, chunk, _leaf_storage(leaf), 0, max_def, verify_crc, pages
    )
    vals = _leaf_values(vals, leaf)
    return vals if defs is None else _with_validity(vals, defs == max_def)


def _schema_tree(fmd: dict) -> list[Node]:
    """Parse the flat SchemaElement list into top-level column Nodes.
    LIST/MAP recognized by converted_type/logicalType on the 3-level shape;
    legacy 2-level lists (unannotated repeated fields, and LIST groups whose
    repeated child is its own element per the LogicalTypes.md backward-compat
    rules) decode as non-null lists of non-null elements."""
    schema = fmd["schema"]

    def sub(i: int) -> tuple[dict, int]:
        elem = schema[i]
        i += 1
        kids = []
        for _ in range(elem.get("num_children") or 0):
            k, i = sub(i)
            kids.append(k)
        return {"elem": elem, "kids": kids}, i

    def to_node(t: dict) -> Node:
        elem, kids = t["elem"], t["kids"]
        rep_t = elem.get("repetition_type", REP_REQUIRED)
        opt = rep_t == REP_OPTIONAL
        name = elem["name"]
        if not kids:
            if rep_t == REP_REPEATED:
                # legacy 2-level: unannotated `repeated T f` is a non-null
                # list of non-null T; the field IS its own element
                # (LogicalTypes.md backward-compat rule 1; the reference
                # reads any footer generically through RL/DL,
                # marshal/unmarshal.go:31-264).  The element node is
                # UNNAMED so the leaf path stays [.., f], and the
                # repeated field supplies the +1 rep / +1 def through the
                # list node (mid_name="" adds no level of its own in
                # leaf_specs, the child hop does).
                phys = PT_INT96 if elem.get("type") == PT_INT96 else None
                leaf = Node("leaf", "", _logical_type(elem), False, phys=phys)
                at = pa.list_(pa.field("element", leaf.type, nullable=False))
                return Node("list", name, at, False, [leaf], mid_name="")
            phys = PT_INT96 if elem.get("type") == PT_INT96 else None
            return Node("leaf", name, _logical_type(elem), opt, phys=phys)
        conv = elem.get("converted_type")
        lt = elem.get("logicalType") or {}
        mid = kids[0]["elem"]
        if (
            (conv == CONV_LIST or "LIST" in lt)
            and len(kids) == 1
            and mid.get("repetition_type") == REP_REPEATED
        ):
            mname = mid.get("name", "")
            if (
                (mid.get("num_children") or 0) == 1
                and mname != "array"
                and not mname.endswith("_tuple")
            ):
                # standard 3-level LIST expansion
                elem_node = to_node(kids[0]["kids"][0])
                at = pa.list_(pa.field(elem_node.name, elem_node.type, nullable=elem_node.opt))
                return Node("list", name, at, opt, [elem_node], mid_name=mid["name"])
            # legacy 2-level inside a LIST annotation (old Hive/Avro
            # writers; LogicalTypes.md backward-compat rules 2-4): the
            # repeated field itself is the element — primitive, or a
            # group named "array"/"*_tuple", or a multi-field group
            elem_node = to_node(
                {"elem": {**mid, "repetition_type": REP_REQUIRED}, "kids": t["kids"][0]["kids"]}
            )
            at = pa.list_(pa.field(elem_node.name or "element", elem_node.type, nullable=False))
            return Node("list", name, at, opt, [elem_node], mid_name="")
        if (
            (conv in (CONV_MAP, CONV_MAP_KEY_VALUE) or "MAP" in lt)
            and len(kids) == 1
            and mid.get("repetition_type") == REP_REPEATED
            and (mid.get("num_children") or 0) == 2
        ):
            key = to_node(kids[0]["kids"][0])
            val = to_node(kids[0]["kids"][1])
            return Node("map", name, pa.map_(key.type, val.type), opt, [key, val], mid_name=mid["name"])
        if rep_t == REP_REPEATED:
            # legacy 2-level: unannotated `repeated group f {..}` is a
            # non-null list of non-null struct; the group is its own
            # element and supplies the leaf paths' [f, child] segments
            children = [to_node(k) for k in kids]
            st = pa.struct([pa.field(c.name, c.type, nullable=c.opt) for c in children])
            inner = Node("struct", "", st, False, children)
            at = pa.list_(pa.field("element", st, nullable=False))
            return Node("list", name, at, False, [inner], mid_name="")
        children = [to_node(k) for k in kids]
        at = pa.struct([pa.field(c.name, c.type, nullable=c.opt) for c in children])
        return Node("struct", name, at, opt, children)

    out = []
    i = 1
    for _ in range(fmd["schema"][0].get("num_children") or 0):
        t, i = sub(i)
        out.append(to_node(t))
    return out


def read_par1(
    path: str,
    columns: list[str] | None = None,
    row_groups: list[int] | None = None,
    verify_crc: bool = False,
) -> pa.Table:
    """Read a parquet file (ours or a foreign writer's), flat or nested,
    entirely through the engine's page decoders + Dremel assembly.
    `verify_crc=True` checks each page body against PageHeader.crc when the
    writer recorded one (pyarrow: `write_page_checksum=True`; this engine:
    always) and raises on mismatch — mirrors pyarrow's opt-in
    `page_checksum_verification` default."""
    fmd = read_par1_meta(path)
    nodes = _schema_tree(fmd)
    want = [n for n in nodes if columns is None or n.name in columns]
    groups = fmd["row_groups"]
    if row_groups is not None:
        groups = [groups[i] for i in row_groups]
    cols: dict[str, list[pa.Array]] = {n.name: [] for n in want}
    with _fs_open(path, "rb") as f:
        for rg in groups:
            chunk_by_path = {
                tuple(c["meta_data"]["path_in_schema"]): c for c in rg["columns"]
            }
            for node in want:
                if node.kind == "leaf":  # flat: no levels to assemble
                    chunk = chunk_by_path[(node.name,)]
                    cols[node.name].append(_read_flat_chunk(f, chunk, node, verify_crc))
                    continue
                streams = []
                for lpath, leaf, mr, md in leaf_specs(node):
                    rep, defs, vals = read_par1_chunk_streams(
                        f, chunk_by_path[tuple(lpath)], _leaf_storage(leaf), mr, md,
                        verify_crc=verify_crc,
                    )
                    n = len(vals) if defs is None else len(defs)
                    streams.append(LeafStream(
                        lpath, leaf, mr, md,
                        np.zeros(n, np.int32) if rep is None else rep,
                        np.full(n, md, np.int32) if defs is None else defs,
                        _leaf_values(vals, leaf),
                    ))
                cols[node.name].append(assemble(node, streams))
    out = {}
    for node in want:
        arrs = cols[node.name]
        out[node.name] = (
            pa.chunked_array(arrs, type=node.type) if arrs else pa.chunked_array([], type=node.type)
        )
    return pa.table(out)


# -- page-pruned scan over the ColumnIndex/OffsetIndex -------------------------


# UINT_32 / UINT_64 columns (INT32 / INT64 storage) order their Statistics
# and ColumnIndex bounds as unsigned integers
_STAT_UPACK = {PT_INT32: "<I", PT_INT64: "<Q"}


def _stat_py(b: bytes, pt: int, unsigned: bool = False):
    """One plain-encoded stat value -> Python; `unsigned` (the column's
    logical type is an unsigned integer) decodes integers in unsigned
    order."""
    import struct

    if unsigned and pt in _STAT_UPACK:
        return struct.unpack(_STAT_UPACK[pt], b)[0]
    if pt in _STAT_PACK:
        return struct.unpack(_STAT_PACK[pt], b)[0]
    if pt == PT_BOOLEAN:
        return b != b"\x00"
    return b


# admit check: given a [lo, hi] zone (chunk Statistics or a ColumnIndex page
# entry), can ANY row satisfy `op v`?  Sound over-approximation — False drops
# the zone only when no row can match.
_PRED_OPS = {
    ">=": lambda lo, hi, v: hi >= v,
    ">": lambda lo, hi, v: hi > v,
    "<=": lambda lo, hi, v: lo <= v,
    "<": lambda lo, hi, v: lo < v,
    "==": lambda lo, hi, v: lo <= v <= hi,
    "!=": lambda lo, hi, v: not (lo == v and hi == v),  # only a constant zone excludes
    "in": lambda lo, hi, v: any(lo <= x <= hi for x in v),
}

_PRED_ARROW = {
    ">=": pc.greater_equal,
    ">": pc.greater,
    "<=": pc.less_equal,
    "<": pc.less,
    "==": pc.equal,
    "!=": pc.not_equal,
}

# ops whose page/chunk admission is decided by null accounting, not min/max
_NULL_OPS = ("is_null", "not_null")
# ops that probe exact membership (bloom + complete-dictionary pruning apply)
_PROBE_OPS = ("==", "in")


# microseconds per unit of a date32, timestamp or time column's stored integer
_US_PER_UNIT = {"date": 86_400_000_000, "ms": 1_000, "us": 1}
_EPOCH_DAY = datetime.date(1970, 1, 1)
# a probe strictly between stored integers q and q+1: the op on q that
# keeps the same rows (== keeps none, != every non-null one)
_INEXACT_OP = {"<": "<=", "<=": "<=", ">": ">", ">=": ">", "==": "in", "!=": "not_null"}


def _temporal_probe(x, typ: pa.DataType) -> tuple[object, bool]:
    """A date/datetime probe on a date32 or timestamp column, or a time
    probe on a time column, as (q, exact): q is the largest integer the
    column can store at or below the probe (days, timestamp units, or time
    units since midnight; naive datetimes read as UTC on tz-aware columns,
    as pyarrow does).  Other values come back unchanged."""
    if isinstance(x, datetime.datetime):
        us = pa.scalar(x, pa.timestamp("us")).value
    elif isinstance(x, datetime.date):
        us = (x - _EPOCH_DAY).days * _US_PER_UNIT["date"]
    elif isinstance(x, datetime.time) and pa.types.is_time(typ):
        us = ((x.hour * 60 + x.minute) * 60 + x.second) * 1_000_000 + x.microsecond
    else:
        return x, True
    if (pa.types.is_timestamp(typ) or pa.types.is_time(typ)) and typ.unit == "ns":
        return us * 1000, True
    q, r = divmod(us, _US_PER_UNIT["date" if pa.types.is_date32(typ) else typ.unit])
    return q, r == 0


def _normalize_predicate(
    predicate, types: dict | None = None
) -> list[list[tuple[str, str, object]]]:
    """Normalize the user predicate into DNF: a list of OR branches, each an
    AND list of (column, op, value) clauses.  Accepted shapes:
    one tuple -> single clause; list of tuples -> AND; list of lists of
    tuples -> OR of ANDs.  Values move into the column's storage domain,
    the order of Statistics/ColumnIndex bounds: strings (and elements of
    `in` lists) are encoded to bytes, and with `types` (column -> Arrow
    type) a date or datetime on a date32/timestamp column, or a time on a
    time32/time64 column, becomes its stored integer.  A probe between two
    stored integers rewrites the clause to the equivalent one on integers."""
    if predicate is None:
        return []
    if isinstance(predicate, tuple):
        branches = [[predicate]]
    elif not predicate:
        return []
    elif isinstance(predicate[0], tuple):
        branches = [list(predicate)]
    else:
        branches = [list(b) for b in predicate]
    out: list[list[tuple[str, str, object]]] = []
    for br in branches:
        clauses = []
        for c, op, v in br:
            if op not in _PRED_OPS and op not in _NULL_OPS:
                raise ValueError(f"unknown predicate op {op!r}")
            typ = (types or {}).get(c)
            temporal = typ is not None and (
                pa.types.is_date32(typ) or pa.types.is_timestamp(typ) or pa.types.is_time(typ)
            )
            if op == "in":
                v = [x.encode() if isinstance(x, str) else x for x in v]
                if temporal:
                    v = [q for q, exact in (_temporal_probe(x, typ) for x in v) if exact]
            elif isinstance(v, str):
                v = v.encode()
            elif temporal and op in _PRED_OPS:
                v, exact = _temporal_probe(v, typ)
                if not exact:
                    op = _INEXACT_OP[op]
                    v = {"in": [], "not_null": None}.get(op, v)
            clauses.append((c, op, v))
        out.append(clauses)
    return out


def _clause_mask(col, op: str, val, typ: pa.DataType):
    """Exact Arrow mask for one clause over a decoded column (the re-filter
    inside surviving pages).  Null comparisons yield null -> Table.filter
    drops them, matching SQL semantics."""
    if op == "is_null":
        return pc.is_null(col)
    if op == "not_null":
        return pc.is_valid(col)
    if op == "in":
        vs = [
            x.decode() if isinstance(x, bytes) and pa.types.is_string(typ) else x
            for x in val
        ]
        return pc.is_in(col, value_set=pa.array(vs, type=typ))
    pv = val.decode() if isinstance(val, bytes) and pa.types.is_string(typ) else val
    return _PRED_ARROW[op](col, pa.scalar(pv, typ))


def dnf_mask(tbl: pa.Table, branches, types: dict | None = None):
    """Exact Kleene-logic boolean mask for a normalized DNF predicate over a
    decoded table: OR across branches of AND across clauses, SQL null
    semantics (a null comparison is null; ``Table.filter`` then drops those
    rows).  Returns None when some branch is empty (admits every row).
    ``types`` optionally overrides per-column logical types (defaults to the
    table's own column types)."""
    or_mask = None
    for br in branches:
        m = None
        for pcol, pop, pval in br:
            typ = types[pcol] if types is not None else tbl.schema.field(pcol).type
            cm = _clause_mask(tbl[pcol], pop, pval, typ)
            if isinstance(cm, pa.ChunkedArray):
                cm = cm.combine_chunks()
            m = cm if m is None else pc.and_kleene(m, cm)
        if m is None:  # empty AND branch admits every row
            return None
        or_mask = m if or_mask is None else pc.or_kleene(or_mask, m)
    return or_mask


def _all_data_pages_dict(md: dict) -> bool:
    """True iff encoding_stats PROVES every data page of the chunk is
    dictionary-encoded — then the dict page is the chunk's complete value
    domain and an absent probe value excludes the chunk exactly (stronger
    than bloom: no false-positive rate).  Files without encoding_stats
    (or with any PLAIN-fallback data page) answer False -> no pruning."""
    es = md.get("encoding_stats")
    if not es:
        return False
    data = [e for e in es if e["page_type"] in (PAGE_DATA, PAGE_DATA_V2)]
    return bool(data) and all(
        e["encoding"] in (ENC_PLAIN_DICTIONARY, ENC_RLE_DICTIONARY) for e in data
    )


# physical type -> the storage type dictionary pages decode as, for probe
# casts in _dict_admits (BYTE_ARRAY loads as binary; probes arrive as bytes)
_PT_STORAGE = {
    PT_INT32: pa.int32(),
    PT_INT64: pa.int64(),
    PT_FLOAT: pa.float32(),
    PT_DOUBLE: pa.float64(),
    PT_BYTE_ARRAY: pa.binary(),
}


def _dict_admits(f, md: dict, probes: list) -> bool:
    """Exact membership probe against a complete dictionary page.  True =
    some probe value IS in the dictionary (chunk survives); fails open
    (True) on any decode/cast mismatch."""
    storage = _PT_STORAGE.get(md["type"])
    if storage is None:
        return True
    try:
        dv = _load_dict_page(f, md, storage, False)
        if dv is None:
            return True
        vs = pa.array(list(probes), type=storage)
        return bool(pc.any(pc.is_in(dv, value_set=vs)).as_py())
    except (pa.ArrowInvalid, pa.ArrowTypeError, ValueError, OverflowError):
        return True


def _chunk_admits_clause(f, md: dict, op: str, val, unsigned: bool = False) -> bool:
    """Row-group-level admission for one clause from the chunk's footer
    metadata alone (Statistics zone + null accounting + bloom/dictionary
    probes).  False = no row in the chunk can match -> the whole row group
    is skipped without reading a page.  `unsigned`: the column is an
    unsigned integer (see ``_stat_py``)."""
    pt = md["type"]
    st_meta = md.get("statistics")
    if op == "is_null":
        return not (st_meta is not None and st_meta.get("null_count") == 0)
    if op == "not_null":
        return not (
            st_meta is not None
            and st_meta.get("null_count") == md["num_values"]
        )
    mm = _stat_min_max(st_meta, pt, unsigned)
    if mm is not None and not _PRED_OPS[op](
        _stat_py(mm[0], pt, unsigned), _stat_py(mm[1], pt, unsigned), val
    ):
        return False
    if op in _PROBE_OPS:
        probes = list(val) if op == "in" else [val]
        if md.get("bloom_filter_offset") is not None:
            from .bloom import hash_plain_scalar

            sb = _load_bloom_md(f, md)
            if sb is not None:
                hvs = [hash_plain_scalar(p, pt) for p in probes]
                if all(h is not None for h in hvs):
                    hits = sb.check(np.array(hvs, dtype=np.uint64))
                    if not hits.any():
                        return False  # bloom: every probe value absent
        if _all_data_pages_dict(md) and not _dict_admits(f, md, probes):
            return False  # complete dictionary: probes definitively absent
    return True


def _page_admits_clause(
    ci: dict, i: int, pt: int, op: str, val, unsigned: bool = False
) -> bool:
    """Page-level admission for one clause from the ColumnIndex entry."""
    if op == "is_null":
        if ci["null_pages"][i]:
            return True
        ncs = ci.get("null_counts")
        return ncs is None or ncs[i] > 0
    if op == "not_null":
        return not ci["null_pages"][i]
    if ci["null_pages"][i]:
        return False  # value predicate never matches an all-null page
    return _PRED_OPS[op](
        _stat_py(ci["min_values"][i], pt, unsigned),
        _stat_py(ci["max_values"][i], pt, unsigned),
        val,
    )


def _union_ranges(
    r1: list[tuple[int, int]], r2: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    for a, b in sorted(r1 + r2):
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def _load_dict_page(f, md: dict, storage: pa.DataType, verify_crc: bool):
    """Load a chunk's dictionary page (None when the chunk has none)."""
    d_off = md.get("dictionary_page_offset")
    if d_off is None or d_off >= md["data_page_offset"]:
        return None
    f.seek(d_off)
    head = f.read(md["data_page_offset"] - d_off)
    hdr, pos = CompactReader(SPECS, head).read_struct("PageHeader", 0)
    body = head[pos : pos + hdr["compressed_page_size"]]
    if verify_crc:
        _check_crc(hdr, body, "dict page")
    raw = _decompress(body, md["codec"], hdr["uncompressed_page_size"])
    return decode_plain(raw, {"rows": hdr["dictionary_page_header"]["num_values"]}, storage)


def _load_bloom_md(f, md: dict):
    """Load a chunk's split-block Bloom filter from its ColumnMetaData
    pointer; None when absent or written with an algorithm/hash/compression
    this engine does not speak (then pruning falls back to statistics)."""
    from .bloom import SplitBlockBloom

    off = md.get("bloom_filter_offset")
    if off is None:
        return None
    f.seek(off)
    ln = md.get("bloom_filter_length")
    buf = f.read(ln) if ln else f.read(1 << 16)
    hdr, pos = CompactReader(SPECS, buf).read_struct("BloomFilterHeader", 0)
    if "BLOCK" not in (hdr.get("algorithm") or {}):
        return None
    if "XXHASH" not in (hdr.get("hash") or {}):
        return None
    comp = hdr.get("compression")
    if comp is not None and "UNCOMPRESSED" not in comp:
        return None
    nb = hdr["numBytes"]
    if pos + nb > len(buf):
        buf += f.read(pos + nb - len(buf))
    return SplitBlockBloom.from_bytes(buf[pos : pos + nb])


def read_par1_bloom(path: str, rg_index: int, column: str):
    """Standalone probe API: the (rg, column) chunk's SBBF, or None."""
    fmd = read_par1_meta(path)
    for ch in fmd["row_groups"][rg_index]["columns"]:
        md = ch["meta_data"]
        if ".".join(md["path_in_schema"]) == column:
            with _fs_open(path, "rb") as f:
                return _load_bloom_md(f, md)
    return None


def _stat_min_max(
    st_meta: dict | None, pt: int, unsigned: bool = False
) -> tuple[bytes, bytes] | None:
    """Chunk Statistics (min, max) for pruning: modern min_value/max_value
    first; legacy writers only fill the deprecated min/max pair, whose
    SIGNED ordering is trustworthy for signed numeric columns but undefined
    for byte arrays (PARQUET-686) and wrong for unsigned integers — so the
    fallback is signed-numeric-only."""
    if st_meta is None:
        return None
    lo, hi = st_meta.get("min_value"), st_meta.get("max_value")
    if lo is not None and hi is not None:
        return lo, hi
    if pt in (PT_INT32, PT_INT64, PT_FLOAT, PT_DOUBLE) and not unsigned:
        lo, hi = st_meta.get("min"), st_meta.get("max")
        if lo is not None and hi is not None:
            return lo, hi
    return None


def _flat_chunk_bounds(fmd: dict):
    """Yield (row group index, column name, chunk meta_data, (lo, hi) or
    None) for every flat column chunk of a footer: the chunk Statistics
    bounds as Python values, UINT_32/UINT_64 in unsigned order."""
    unsigned = {
        n.name for n in _schema_tree(fmd) if pa.types.is_unsigned_integer(n.type)
    }
    for rg_i, rg in enumerate(fmd["row_groups"]):
        for ch in rg["columns"]:
            m = ch["meta_data"]
            if len(m["path_in_schema"]) != 1:
                continue
            name, pt = m["path_in_schema"][0], m["type"]
            uns = name in unsigned
            mm = _stat_min_max(m.get("statistics"), pt, uns)
            bounds = None if mm is None else (_stat_py(mm[0], pt, uns), _stat_py(mm[1], pt, uns))
            yield rg_i, name, m, bounds


def _intersect_ranges(
    r1: list[tuple[int, int]], r2: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    i = j = 0
    while i < len(r1) and j < len(r2):
        a, b = max(r1[i][0], r2[j][0]), min(r1[i][1], r2[j][1])
        if a < b:
            out.append((a, b))
        if r1[i][1] < r2[j][1]:
            i += 1
        else:
            j += 1
    return out


def read_par1_pruned(
    path: str,
    columns: list[str] | None = None,
    predicate: tuple[str, str, object] | list[tuple[str, str, object]] | None = None,
    verify_crc: bool = False,
    row_groups: list[int] | None = None,
) -> tuple[pa.Table, dict]:
    """Projection + predicate read of one parquet file using BOTH pruning
    levels the format provides: row groups whose chunk Statistics exclude
    the predicate are skipped footer-only, and inside surviving row groups
    the predicate column's ColumnIndex selects surviving pages whose
    OffsetIndex row ranges then bound which pages of EVERY projected column
    are read + decoded (the PageIndex design intent: the reference writes
    these structures in writer/writer.go:157-204; this engine also reads
    them back).  `predicate` = (column, op, value) with op in
    >= > <= < == != in is_null not_null (`in` takes a value list; the null
    ops ignore value), a LIST of such clauses ANDed together, or a LIST OF
    LISTS — OR of AND branches (DNF).  Each clause prunes row groups via
    its chunk Statistics + null accounting (+ bloom and complete-dictionary
    probes on ==/in); an AND branch's surviving page row-ranges are the
    INTERSECTION across its clauses, and the row group reads the UNION of
    ranges across admitting OR branches.  Flat leaf columns only; rows are
    exact (surviving pages re-filter with the same DNF).
    `row_groups` restricts the read to those row-group indices (the unit a
    distributed scan splits one huge file by).  Returns (table, stats) with
    stats = {row_groups_total, row_groups_read, pages_total,
    pages_decoded}."""
    fmd = read_par1_meta(path)
    node_list = _schema_tree(fmd)
    nodes = {n.name: n for n in node_list}
    names = list(columns) if columns is not None else [n.name for n in node_list]
    branches = _normalize_predicate(predicate, {n.name: n.type for n in node_list})
    need = list(names)
    for br in branches:
        for c, _op, _v in br:
            if c not in need:
                need.append(c)
    for nm in need:
        if nm not in nodes:
            raise KeyError(f"column {nm!r} not in {path}")
        if nodes[nm].kind != "leaf":
            raise NotImplementedError("read_par1_pruned: flat leaf columns only")
    rg_sel = None if row_groups is None else set(row_groups)
    stats = {
        "row_groups_total": (
            len(fmd["row_groups"]) if rg_sel is None else len(rg_sel)
        ),
        "row_groups_read": 0,
        "pages_total": 0,
        "pages_decoded": 0,
    }
    out_tables: list[pa.Table] = []
    with _fs_open(path, "rb") as f:
        for rg_i, rg in enumerate(fmd["row_groups"]):
            if rg_sel is not None and rg_i not in rg_sel:
                continue
            chunks = {
                c["meta_data"]["path_in_schema"][0]: c
                for c in rg["columns"]
                if len(c["meta_data"]["path_in_schema"]) == 1
            }
            # the page index is parsed only where it is used: the OffsetIndex
            # of the read columns, the ColumnIndex of a predicate column once
            # its chunk Statistics admit the row group
            offsets = {nm: _read_index(f, chunks[nm], "offset_index") for nm in need}
            col_idx: dict[str, dict | None] = {}
            stats["pages_total"] += sum(
                len(oi["page_locations"]) if oi else 1 for oi in offsets.values()
            )
            rg_rows = rg["num_rows"]
            # Each OR branch prunes independently (chunk metadata, then page
            # ranges); the row group survives if ANY branch admits it, and
            # the rows read are the UNION of the branches' page row-ranges.
            ranges: list[tuple[int, int]] | None = None
            any_branch = False
            for br in branches or [[]]:
                admit = True
                for pcol, pop, pval in br:
                    md_p = chunks[pcol]["meta_data"]
                    uns = pa.types.is_unsigned_integer(nodes[pcol].type)
                    if not _chunk_admits_clause(f, md_p, pop, pval, uns):
                        admit = False  # whole row group excluded for this branch
                        break
                if not admit:
                    continue
                br_ranges: list[tuple[int, int]] | None = None
                for pcol, pop, pval in br:
                    pt_p = chunks[pcol]["meta_data"]["type"]
                    uns = pa.types.is_unsigned_integer(nodes[pcol].type)
                    if pcol not in col_idx:
                        col_idx[pcol] = _read_index(f, chunks[pcol], "column_index")
                    ci, oi = col_idx[pcol], offsets[pcol]
                    if ci is None or oi is None:
                        continue
                    locs = oi["page_locations"]
                    firsts = [loc["first_row_index"] for loc in locs] + [rg_rows]
                    merged: list[list[int]] = []
                    for i in range(len(locs)):
                        if not _page_admits_clause(ci, i, pt_p, pop, pval, uns):
                            continue
                        a, b = firsts[i], firsts[i + 1]
                        if merged and a <= merged[-1][1]:
                            merged[-1][1] = max(b, merged[-1][1])
                        else:
                            merged.append([a, b])
                    clause = [(a, b) for a, b in merged]
                    br_ranges = (
                        clause
                        if br_ranges is None
                        else _intersect_ranges(br_ranges, clause)
                    )
                    if not br_ranges:
                        admit = False  # no page row-range survives the AND
                        break
                if not admit:
                    continue
                any_branch = True
                if br_ranges is None:
                    ranges = None  # this branch needs the full row group
                    break
                ranges = br_ranges if ranges is None else _union_ranges(ranges, br_ranges)
            if not any_branch:
                continue
            stats["row_groups_read"] += 1
            cols: dict[str, pa.ChunkedArray] = {}
            for nm in need:
                node = nodes[nm]
                ch = chunks[nm]
                oi_c = offsets[nm]
                if ranges is None or oi_c is None:
                    pages, spans = None, ranges or [(0, rg_rows)]
                    stats["pages_decoded"] += len(oi_c["page_locations"]) if oi_c else 1
                else:
                    # the pages that hold a range, and the ranges' offsets
                    # in those pages' decoded values
                    locs = oi_c["page_locations"]
                    firsts = [loc["first_row_index"] for loc in locs] + [rg_rows]
                    pages, spans, base = [], [], 0
                    for i, loc in enumerate(locs):
                        p0, p1 = firsts[i], firsts[i + 1]
                        sub = [(max(a, p0), min(b, p1)) for a, b in ranges if a < p1 and b > p0]
                        if not sub:
                            continue
                        pages.append(loc)
                        for a, b in sub:
                            a, b = base + a - p0, base + b - p0
                            if spans and spans[-1][1] == a:
                                spans[-1] = (spans[-1][0], b)
                            else:
                                spans.append((a, b))
                        base += p1 - p0
                    stats["pages_decoded"] += len(pages)
                arr = _read_flat_chunk(f, ch, node, verify_crc, pages)
                cols[nm] = pa.chunked_array([arr.slice(a, b - a) for a, b in spans], type=node.type)
            tbl = pa.table({nm: cols[nm] for nm in need})
            if branches:
                or_mask = dnf_mask(tbl, branches, {nm: nodes[nm].type for nm in need})
                if or_mask is not None:
                    tbl = tbl.filter(or_mask)
            out_tables.append(tbl.select(names))
    if not out_tables:
        empty = pa.table(
            {nm: pa.chunked_array([], type=nodes[nm].type) for nm in names}
        )
        return empty, stats
    return pa.concat_tables(out_tables), stats


def scan_par1_column(
    path: str,
    column: str,
    predicate: tuple[str, object] | None = None,
    verify_crc: bool = False,
) -> tuple[pa.Table, dict]:
    """Page-pruned scan of one flat column: ``read_par1_pruned`` with the
    clause ``(column, *predicate)``.  Returns (table, {"pages_total",
    "pages_decoded"}) so callers can assert the pruning happened."""
    tbl, st = read_par1_pruned(
        path, [column], (column, *predicate) if predicate else None, verify_crc
    )
    return tbl, {"pages_total": st["pages_total"], "pages_decoded": st["pages_decoded"]}
