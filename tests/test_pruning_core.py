"""One pruning core for both containers: RCC1 chunk scans (pipelines/scan.py)
normalize predicates, admit [min, max] zones, filter rows and probe blooms
with the PAR1 code (formats/par1.py, formats/bloom.py).  These tests pin that
both containers answer every predicate the same way, and the same as Arrow."""

from __future__ import annotations

import datetime
import glob
import hashlib
import os
import shutil
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from parquet_go_ray.chunk import _bloom_build, bloom_may_contain, encode_column_chunk
from parquet_go_ray.config import EngineConfig
from parquet_go_ray.formats.par1 import read_par1_pruned, write_par1
from parquet_go_ray.pipelines.scan import chunk_meta, count_pruned, scan_column
from parquet_go_ray.stages.encode import encode_table

INT_TYPES = [
    pa.int8(), pa.int16(), pa.int32(), pa.int64(),
    pa.uint8(), pa.uint16(), pa.uint32(), pa.uint64(),
]
# the PAR1 writer has no unsigned 32/64-bit physical (their stats need
# unsigned order): those two columns are checked against Arrow only
PAR1_SKIP = {"u32", "u64"}

CHUNK_ROWS = 150
N_ROWS = 12 * CHUNK_ROWS
NULL_CHUNK = 4  # rows of this chunk are null in every column


def _int_values(rng, t: pa.DataType, n: int) -> np.ndarray:
    info = np.iinfo(t.to_pandas_dtype())
    lo, hi = int(info.min), int(info.max)
    if t == pa.uint64():
        lo = 2**63 - 2**40  # straddle 2^63: the int64 wrap of the bloom hash
    v = rng.integers(lo, hi, n, dtype=t.to_pandas_dtype(), endpoint=True)
    # sorted halves: chunk ranges are disjoint there, so [min, max] prunes;
    # the shuffled rest leaves pruning to the bloom
    v[: n // 2] = np.sort(v[: n // 2])
    return v


def _strings(rng, n: int) -> list[str]:
    alphabet = ["a", "b", "z", "é", "ß", "日本", "🙂", " "]
    out = []
    for i in range(n):
        k = int(rng.choice([1, 3, 8, 70, 90]))  # >64 chars: truncated max
        out.append("".join(rng.choice(alphabet, k)))
    out[: n // 2] = sorted(out[: n // 2])
    return out


def _table(seed: int = 5) -> pa.Table:
    rng = np.random.default_rng(seed)
    n = N_ROWS
    null = rng.random(n) < 0.1
    null[NULL_CHUNK * CHUNK_ROWS : (NULL_CHUNK + 1) * CHUNK_ROWS] = True
    cols = {}
    for t in INT_TYPES:
        name = ("u" if "uint" in str(t) else "i") + str(t.bit_width)
        cols[name] = pa.array(_int_values(rng, t, n), t, mask=null)
    strs = _strings(rng, n)
    cols["s"] = pa.array(strs, pa.string(), mask=null)
    cols["b"] = pa.array([s.encode()[:5] + bytes([i % 7]) for i, s in enumerate(strs)], pa.binary(), mask=null)
    return pa.table(cols)


def _chunk_edges(col: pa.Array) -> tuple[list, list]:
    """Each non-null chunk's min and max: the probes where the [min, max],
    truncated-max and constant-chunk rules decide."""
    mm = [
        pc.min_max(col.slice(lo, CHUNK_ROWS))
        for lo in range(0, N_ROWS, CHUNK_ROWS)
        if col.slice(lo, CHUNK_ROWS).null_count < CHUNK_ROWS
    ]
    return [m["min"].as_py() for m in mm], [m["max"].as_py() for m in mm]


def _random_clause(rng, col: pa.Array, edges: list):
    present = col.drop_null()
    op = str(rng.choice(["==", "in", "!=", "<", "<=", ">", ">=", "is_null", "not_null"]))
    if op in ("is_null", "not_null"):
        return (op, None)

    def probe():
        r = rng.random()
        if r < 0.4:
            v = edges[int(rng.integers(len(edges)))]
        else:
            v = present[int(rng.integers(len(present)))].as_py()
        if r < 0.8:
            return v
        if isinstance(v, int):  # absent-ish value, still in the type's range
            info = np.iinfo(col.type.to_pandas_dtype())
            return int(min(max(v + int(rng.integers(-3, 4)), info.min), info.max))
        return v[:-1] if len(v) > 1 else v + v

    if op == "in":
        return (op, [probe() for _ in range(int(rng.integers(1, 4)))])
    return (op, probe())


def _predicates(rng, col: pa.Array, n: int) -> list:
    """n random DNF predicates, plus ORs of one comparison over every
    chunk's min or max."""
    mins, maxs = _chunk_edges(col)
    edges = mins + maxs
    out = [
        [[(op, v)] for v in vs]
        for op, vs in (("==", mins), ("==", maxs), ("<=", mins), (">=", maxs), ("!=", maxs))
    ]
    for _ in range(n):
        branches = [
            [_random_clause(rng, col, edges) for _ in range(int(rng.integers(1, 3)))]
            for _ in range(int(rng.integers(1, 3)))
        ]
        single = len(branches) == 1 and len(branches[0]) == 1
        out.append(branches[0][0] if single else branches)
    return out


def _arrow_filter(tbl: pa.Table, name: str, predicate) -> list:
    t = tbl.schema.field(name).type
    if isinstance(predicate, tuple):
        predicate = [[predicate]]
    f = pc.field(name)
    expr = None
    for br in predicate:
        e = None
        for op, v in br:
            c = {
                "is_null": lambda: f.is_null(),
                "not_null": lambda: f.is_valid(),
                "in": lambda: f.isin(pa.array(v, t)),
                "==": lambda: f == pa.scalar(v, t),
                "!=": lambda: f != pa.scalar(v, t),
                "<": lambda: f < pa.scalar(v, t),
                "<=": lambda: f <= pa.scalar(v, t),
                ">": lambda: f > pa.scalar(v, t),
                ">=": lambda: f >= pa.scalar(v, t),
            }[op]()
            e = c if e is None else e & c
        expr = e if expr is None else expr | e
    return tbl.select([name]).filter(expr)[name].to_pylist()


def _prefixed(name: str, predicate):
    if isinstance(predicate, tuple):
        return (name, *predicate)
    return [[(name, *c) for c in br] for br in predicate]


def test_rcc1_and_par1_scans_agree_with_arrow(ray_session, tmp_path):
    import ray.data as rd

    tbl = _table()
    cfg = EngineConfig(bloom_bits_per_value=10, verify_sha256=False)
    chunks = pa.concat_tables(
        [encode_table(tbl.slice(lo, CHUNK_ROWS), cfg) for lo in range(0, N_ROWS, CHUNK_ROWS)]
    )
    assert all("bloom" in chunk_meta(b) for b in chunks["blob"].to_pylist()
               if chunk_meta(b)["nulls"] < chunk_meta(b)["n"])
    ds = rd.from_arrow(chunks).materialize()
    path = str(tmp_path / "t.parquet")
    par1_cols = [c for c in tbl.column_names if c not in PAR1_SKIP]
    write_par1(tbl.select(par1_cols), path, row_group_rows=2 * CHUNK_ROWS,
               page_rows=CHUNK_ROWS // 3, bloom=par1_cols)
    narrow = ["i8", "i16", "u8", "u16"]  # INT32 storage + converted type
    assert pq.read_table(path, columns=narrow).equals(tbl.select(narrow))

    rng = np.random.default_rng(11)
    pruned_somewhere = 0
    for name in tbl.column_names:
        for pred in _predicates(rng, tbl[name].combine_chunks(), 5):
            want = Counter(_arrow_filter(tbl, name, pred))
            got = Counter(
                v
                for b in scan_column(ds, name, pred).iter_batches(batch_format="pyarrow")
                for v in b[name].to_pylist()
            )
            assert got == want, (name, pred)
            pruned_somewhere += count_pruned(ds, name, pred)["pruned"]
            if name not in PAR1_SKIP:
                out, _ = read_par1_pruned(path, [name], _prefixed(name, pred))
                assert Counter(out[name].to_pylist()) == want, (name, pred)
    assert pruned_somewhere > 0


@pytest.mark.parametrize(
    "typ",
    INT_TYPES + [pa.string(), pa.binary(), pa.large_string(), pa.large_binary()],
    ids=str,
)
def test_chunk_bloom_no_false_negatives(typ):
    rng = np.random.default_rng(3)
    if pa.types.is_integer(typ):
        arr = pa.array(_int_values(rng, typ, 3000), typ)
    else:
        strs = _strings(rng, 3000) + [""]
        arr = pa.array(strs if "string" in str(typ) else [s.encode() for s in strs], typ)
    row = encode_column_chunk(arr, "plain", "none", EngineConfig(bloom_bits_per_value=10))
    bloom = chunk_meta(row["blob"])["bloom"]
    assert bloom == _bloom_build(arr, 10)
    assert all(bloom_may_contain(bloom, v, typ) for v in arr.to_pylist())


@pytest.mark.parametrize("op", ["=~", "like"])
def test_unknown_scan_op_raises_in_driver(ray_session, op):
    import ray.data as rd

    ds = rd.from_arrow(encode_table(pa.table({"v": pa.array([1, 2, 3])})))
    with pytest.raises(ValueError, match=op):
        scan_column(ds, "v", (op, 2))
    with pytest.raises(ValueError, match=op):
        count_pruned(ds, "v", [[("==", 1)], [(op, 2)]])


def _golden_table() -> pa.Table:
    rng = np.random.default_rng(2024)
    n = 3000
    null = rng.random(n) < 0.05
    return pa.table({
        "i8": pa.array(rng.integers(-128, 128, n), pa.int8(), mask=null),
        "u64": pa.array(rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False), pa.uint64()),
        "ids": pa.array(np.arange(n) * 7, pa.int64()),
        "f": pa.array(rng.normal(size=n)),
        "s": pa.array([f"path/{i % 97}/é{i % 13}" for i in range(n)], mask=null),
        "b": pa.array([bytes([i % 251]) * (i % 9) for i in range(n)], pa.binary()),
        "ts": pa.array(np.arange(n) * 1000, pa.timestamp("us")),
        "l": pa.array([[i, i + 1] if i % 5 else None for i in range(n)], pa.list_(pa.int64())),
    })


def test_bloom_free_encode_is_byte_stable():
    """Without blooms the chunk bytes are unchanged by moving pruning onto
    the PAR1 core: the digest was taken before the move."""
    h = hashlib.sha256()
    for cfg in (EngineConfig(), EngineConfig(page_rows=700)):
        for lo in range(0, 3000, 1000):
            for blob in encode_table(_golden_table().slice(lo, 1000), cfg)["blob"].to_pylist():
                h.update(blob)
    assert h.hexdigest() == GOLDEN_DIGEST


GOLDEN_DIGEST = "7d2d0db16cf12e3f5dcfcfd56237394d24ed24c6e9fd61a0932e6982cc159af9"


# -- unsigned statistics order (pyarrow-written UINT_32 / UINT_64) -----------

U_CASES = [
    # (column, op, value): values at and past the signed range
    ("u64", "==", 2**63 + 5),
    ("u64", ">", 2**63),
    ("u64", "<", 2**63),
    ("u64", "in", [2**64 - 1, 3]),
    ("u32", "==", 2**31 + 5),
    ("u32", ">", 2**31),
    ("u32", "<", 2**31),
    ("u32", "in", [2**32 - 1, 3]),
]


@pytest.fixture(scope="module")
def unsigned_file(tmp_path_factory):
    """Rows sorted so low row groups hold small values and high ones hold
    values past 2^31 / 2^63: signed decoding of their bounds prunes wrongly."""
    n = 4000
    lo = np.arange(n // 2, dtype=np.uint64)
    u64 = np.concatenate([lo, np.uint64(2**63) + lo])
    u64[-1] = 2**64 - 1
    u32 = np.concatenate([lo, np.uint64(2**31) + lo])
    u32[-1] = 2**32 - 1
    tbl = pa.table({"u64": pa.array(u64, pa.uint64()), "u32": pa.array(u32.astype(np.uint32))})
    path = str(tmp_path_factory.mktemp("unsigned") / "u.parquet")
    pq.write_table(tbl, path, row_group_size=1000, data_page_size=512, write_page_index=True)
    return path, tbl


@pytest.mark.parametrize("col,op,val", U_CASES)
def test_unsigned_stats_prune_in_unsigned_order(unsigned_file, col, op, val):
    path, tbl = unsigned_file
    want = tbl.filter(pc.is_in(tbl[col], pa.array(val, tbl[col].type)) if op == "in"
                      else {"==": pc.equal, ">": pc.greater, "<": pc.less}[op](
                          tbl[col], pa.scalar(val, tbl[col].type)))
    got, st = read_par1_pruned(path, None, (col, op, val))
    assert got.num_rows == want.num_rows > 0
    assert got[col].type == tbl[col].type
    assert sorted(got[col].to_pylist()) == sorted(want[col].to_pylist())
    assert st["row_groups_read"] < st["row_groups_total"]  # still prunes


@pytest.mark.parametrize("col,op,val", U_CASES)
def test_unsigned_scan_par1_column(unsigned_file, col, op, val):
    from parquet_go_ray.formats.par1 import scan_par1_column

    path, tbl = unsigned_file
    want = tbl.filter(pc.is_in(tbl[col], pa.array(val, tbl[col].type)) if op == "in"
                      else {"==": pc.equal, ">": pc.greater, "<": pc.less}[op](
                          tbl[col], pa.scalar(val, tbl[col].type)))
    got, st = scan_par1_column(path, col, (op, val))
    assert got[col].type == tbl[col].type
    assert sorted(got[col].to_pylist()) == sorted(want[col].to_pylist())
    assert 0 < st["pages_decoded"] < st["pages_total"]  # prunes in unsigned order


@pytest.mark.parametrize("col,op,val", U_CASES)
def test_unsigned_manifest_stats_admit(unsigned_file, tmp_path, col, op, val):
    from parquet_go_ray.formats.par1 import _normalize_predicate, read_par1_meta
    from parquet_go_ray.pipelines import native_io

    path, tbl = unsigned_file
    row = {"path": path, "partition": "", "rows": tbl.num_rows, "bytes": 0, "skipped": False,
           "stats": native_io._part_stats_json(read_par1_meta(path))}
    mpath = str(tmp_path / native_io.MANIFEST_NAME)
    write_par1(native_io._manifest_table([row]), mpath)
    branches = _normalize_predicate((col, op, val), {c: tbl[c].type for c in tbl.column_names})
    admitted, known = native_io._manifest_admit([mpath], branches)
    assert set(admitted) == known == {path}


# -- date and timestamp probes ----------------------------------------------

T_DAY0 = datetime.date(2020, 1, 1)
T_TS0 = datetime.datetime(2020, 1, 1, 8, 30)


@pytest.fixture(scope="module", params=["write_par1", "pq.write_table"])
def temporal_file(request, tmp_path_factory):
    """Sorted date32, timestamp[ms]/[us] and tz-aware timestamp columns
    over many small pages, with nulls, from this engine's writer and from
    pyarrow's."""
    n = 2000
    rng = np.random.default_rng(7)
    days = np.sort(rng.integers(0, 400, n))
    ms = np.sort(rng.integers(0, 10**9, n))
    null = rng.random(n) < 0.05
    tbl = pa.table(
        {
            "d": pa.array(days + 18_262, pa.int32(), mask=null).cast(pa.date32()),  # from T_DAY0
            "ts_ms": pa.array(ms + 1_577_867_400_000, pa.timestamp("ms")),
            "ts_us": pa.array(ms * 1000 + 1_577_867_400_000_000, pa.timestamp("us"), mask=null),
            "ts_tz": pa.array(ms * 1000 + 1_577_867_400_000_000, pa.timestamp("us", tz="UTC")),
            "v": pa.array(np.arange(n)),
        }
    )
    path = str(tmp_path_factory.mktemp("temporal") / "t.parquet")
    if request.param == "write_par1":
        write_par1(tbl, path, page_rows=100)
    else:
        pq.write_table(tbl, path, data_page_size=512, write_page_index=True)
    return path


def _temporal_cases():
    day = lambda k: T_DAY0 + datetime.timedelta(days=k)  # noqa: E731
    at = lambda s: T_TS0 + datetime.timedelta(seconds=s)  # noqa: E731
    plus2 = datetime.timezone(datetime.timedelta(hours=2))
    at_tz = lambda s: (at(s) + datetime.timedelta(hours=2)).replace(tzinfo=plus2)  # noqa: E731
    sub_ms = T_TS0 + datetime.timedelta(seconds=400_000, microseconds=1)
    cases = []
    for col, probe in (("d", day), ("ts_ms", at), ("ts_us", at), ("ts_tz", at_tz)):
        mid = probe(200 if col == "d" else 500_000)
        cases += [
            (col, "==", mid), (col, "<", probe(30 if col == "d" else 60_000)),
            (col, ">=", mid), (col, "in", [probe(3 if col == "d" else 7), mid]),
        ]
    # a probe between two stored milliseconds rewrites to integer bounds
    cases += [("ts_ms", op, sub_ms) for op in ("<", "<=", ">", ">=", "==", "!=")]
    # a datetime probe on a date column compares as that instant
    cases += [("d", op, datetime.datetime(2020, 7, 1, 12)) for op in ("<", ">=")]
    return cases


@pytest.mark.parametrize("col,op,val", _temporal_cases())
def test_temporal_probes_match_arrow(temporal_file, col, op, val):
    from parquet_go_ray.formats.par1 import scan_par1_column

    want = pq.read_table(temporal_file, filters=[(col, op, val)])
    got, st = read_par1_pruned(temporal_file, None, (col, op, val))
    assert got.schema == want.schema
    assert got.equals(want)
    one, st1 = scan_par1_column(temporal_file, col, (op, val))
    assert one.equals(want.select([col]))
    if op in ("==", "<", "in"):
        assert st["pages_decoded"] < st["pages_total"]  # the probe prunes pages


@pytest.fixture(scope="module")
def time_file(tmp_path_factory):
    """pyarrow-written TIME columns (time32 s and ms, time64 us and ns),
    sorted so pages prune, every 17th us value null."""
    n = 2000
    i = np.arange(n)
    tbl = pa.table(
        {
            "t_s": pa.array(i * 43, pa.int32()).cast(pa.time32("s")),
            "t_ms": pa.array(i * 43_201, pa.int32()).cast(pa.time32("ms")),
            "t_us": pa.array(i * 43_200_017, pa.int64(), mask=i % 17 == 0).cast(pa.time64("us")),
            "t_ns": pa.array(i * 43_200_017_003, pa.int64()).cast(pa.time64("ns")),
            "v": pa.array(i),
        }
    )
    path = str(tmp_path_factory.mktemp("time") / "t.parquet")
    pq.write_table(tbl, path, data_page_size=512, write_page_index=True)
    return path


def _time_cases():
    def at(col, k):
        us = {"t_s": 43_000_000, "t_ms": 43_201_000, "t_us": 43_200_017, "t_ns": 43_200_017.003}[col] * k
        us = int(us)
        return datetime.time(us // 3_600_000_000, us // 60_000_000 % 60, us // 1_000_000 % 60, us % 1_000_000)

    cases = []
    for col in ("t_s", "t_ms", "t_us", "t_ns"):
        cases += [
            (col, "==", at(col, 1000)), (col, "<", at(col, 150)), (col, ">=", at(col, 1700)),
            (col, "in", [at(col, 3), at(col, 1000)]),
        ]
    # a probe between two stored milliseconds rewrites to integer bounds
    between = datetime.time(0, 0, 43, 201_001)
    cases += [("t_ms", op, between) for op in ("<", "<=", ">", ">=", "==", "!=")]
    return cases


@pytest.mark.parametrize("col,op,val", _time_cases())
def test_time_columns_match_arrow(ray_session, time_file, col, op, val):
    """TIME_MILLIS / TIME_MICROS / TIME_NANOS read as time32[ms] /
    time64[us] / time64[ns] (converted-type and logicalType forms alike),
    and a `datetime.time` probe filters like `pq.read_table(filters=...)`
    through read_par1_pruned and read_par1_dataset."""
    import ray

    from parquet_go_ray.formats.par1 import read_par1
    from parquet_go_ray.pipelines.native_io import read_par1_dataset

    whole = pq.read_table(time_file)
    assert read_par1(time_file).equals(whole)
    want = pq.read_table(time_file, filters=[(col, op, val)])
    got, st = read_par1_pruned(time_file, None, (col, op, val))
    assert got.schema == want.schema and got.equals(want)
    if op in ("==", "<"):
        assert st["pages_decoded"] < st["pages_total"]  # the probe prunes pages
    blocks = ray.get(read_par1_dataset(os.path.dirname(time_file), predicate=(col, op, val)).to_arrow_refs())
    scanned = pa.concat_tables([b for b in blocks if b.num_rows] or [want.slice(0, 0)])
    assert scanned.sort_by("v").equals(want)


def test_time_converted_types_read_as_arrow_does(tmp_path):
    """The converted-type-only form (a format 1.0 file: TIME_MILLIS,
    TIME_MICROS; no logicalType) reads as pyarrow reads it."""
    from parquet_go_ray.formats.par1 import read_par1

    i = np.arange(300)
    tbl = pa.table(
        {
            "t_ms": pa.array(i * 1_000_003, pa.int32()).cast(pa.time32("ms")),
            "t_us": pa.array(i * 287_000_001, pa.int64()).cast(pa.time64("us")),
        }
    )
    path = str(tmp_path / "t.parquet")
    pq.write_table(tbl, path, version="1.0")
    assert pq.ParquetFile(path).metadata.schema.column(0).converted_type == "TIME_MILLIS"
    got = read_par1(path)
    assert got.schema == tbl.schema and got.equals(pq.read_table(path))


# -- one typed scan plan: datasets, manifests and tables ---------------------

PLAN_FILES, PLAN_ROWS = 3, 400  # file f holds rows [f * PLAN_ROWS, (f + 1) * PLAN_ROWS)
_UTC = datetime.timezone.utc
_PLUS2 = datetime.timezone(datetime.timedelta(hours=2))


def _plan_table(lo: int, hi: int) -> pa.Table:
    """Row i: date T_DAY0 + i // 8 days; timestamps T_TS0 + 1.5 s * i in ms,
    T_TS0 + 2.000001 s * i in us (every 13th null) and T_TS0 + 1.5 s * i in
    tz-aware us."""
    i = np.arange(lo, hi)
    base_us = 1_577_867_400_000_000  # T_TS0 as UTC microseconds
    return pa.table(
        {
            "d": pa.array(18_262 + i // 8, pa.int32()).cast(pa.date32()),
            "ts_ms": pa.array(base_us // 1000 + 1500 * i, pa.timestamp("ms")),
            "ts_us": pa.array(base_us + 2_000_001 * i, pa.timestamp("us"), mask=i % 13 == 0),
            "ts_tz": pa.array(base_us + 1_500_000 * i, pa.timestamp("us", tz="UTC")),
            "v": pa.array(i, pa.int64()),
        }
    )


def _plan_cases():
    day = lambda k: T_DAY0 + datetime.timedelta(days=k)  # noqa: E731
    at = lambda **kw: T_TS0 + datetime.timedelta(**kw)  # noqa: E731
    return [
        ("d", "==", day(60)),
        ("d", "in", [day(3), day(140)]),
        ("d", "<", day(20)),
        ("d", ">=", datetime.datetime(2020, 4, 10, 12)),  # a datetime on a date column
        ("ts_ms", ">=", at(seconds=900)),
        ("ts_ms", "==", at(milliseconds=3000)),
        ("ts_ms", "<", at(milliseconds=1500, microseconds=1)),  # between stored ms
        ("ts_ms", "==", at(milliseconds=1500, microseconds=1)),
        ("ts_us", "in", [at(microseconds=5 * 2_000_001), at(microseconds=1000 * 2_000_001)]),
        ("ts_us", ">", at(seconds=1000, microseconds=3)),
        ("ts_tz", ">=", (at(seconds=1500) + datetime.timedelta(hours=2)).replace(tzinfo=_PLUS2)),
        ("ts_tz", "<", at(seconds=90).replace(tzinfo=_UTC)),
    ]


@pytest.fixture(scope="module")
def plan_data(ray_session, tmp_path_factory):
    """The same rows as a PAR1 dataset with a `_manifest.parquet` and as a
    table, one sorted file per PLAN_ROWS rows."""
    import ray.data as rd

    from parquet_go_ray.pipelines import native_io, table

    root = tmp_path_factory.mktemp("plan")
    d = str(root / "ds")
    os.makedirs(d)
    parts = [_plan_table(f * PLAN_ROWS, (f + 1) * PLAN_ROWS) for f in range(PLAN_FILES)]
    for f, t in enumerate(parts):
        write_par1(t, f"{d}/part_{f}.parquet", page_rows=50)
    native_io.build_par1_manifest(d)
    tdir = str(root / "tbl")
    table.table_write(rd.from_arrow(parts), tdir, page_rows=50)
    return d, tdir


def _plan_oracle(d: str, pred) -> list:
    files = sorted(glob.glob(f"{d}/part_*.parquet"))
    return sorted(pq.read_table(files, filters=[pred])["v"].to_pylist())


def _vs(ds) -> list:
    return sorted(v for b in ds.iter_batches(batch_format="pyarrow") for v in b["v"].to_pylist())


@pytest.mark.parametrize("pred", _plan_cases(), ids=[f"{c}{op}{i}" for i, (c, op, _v) in enumerate(_plan_cases())])
def test_typed_predicates_agree_across_entry_points(plan_data, tmp_path, pred):
    """A date or datetime probe gives pyarrow's rows through every entry
    point: dataset reads with and without the manifest, explain_par1_scan,
    table_scan, explain_table_scan and both table_delete modes."""
    from parquet_go_ray.pipelines import native_io, table

    d, tdir = plan_data
    want = _plan_oracle(d, pred)
    assert _vs(native_io.read_par1_dataset(d, predicate=pred)) == want
    assert _vs(native_io.read_par1_dataset(d, predicate=pred, use_manifest=False)) == want
    ex = native_io.explain_par1_scan(d, predicate=pred)
    assert ex["rows_out"] == len(want)
    assert ex["files_after_manifest"] == len({v // PLAN_ROWS for v in want})
    assert _vs(table.table_scan(tdir, predicate=pred)) == want
    hit_files = sum(
        pq.read_table(os.path.join(tdir, e["path"]), filters=[pred]).num_rows > 0
        for e in table.table_files(tdir)
    )
    assert table.explain_table_scan(tdir, predicate=pred)["files_admitted"] == hit_files
    everything = list(range(PLAN_FILES * PLAN_ROWS))
    for mode in ("position", "equality"):
        t = str(tmp_path / mode)
        shutil.copytree(tdir, t)
        table.table_delete(t, pred, mode=mode)
        assert _vs(table.table_scan(t)) == sorted(set(everything) - set(want)), mode


def test_dataset_manifest_admission_inline_matches_distributed(plan_data, monkeypatch):
    from parquet_go_ray.formats.par1 import _normalize_predicate, read_par1_meta, _schema_tree
    from parquet_go_ray.pipelines import native_io

    d, _tdir = plan_data
    mpath = f"{d}/{native_io.MANIFEST_NAME}"
    types = {n.name: n.type for n in _schema_tree(read_par1_meta(f"{d}/part_0.parquet"))}
    for pred in _plan_cases():
        branches = _normalize_predicate(pred, types)
        inline = native_io._manifest_admit([mpath], branches)
        monkeypatch.setattr(native_io, "_MANIFEST_DISTRIBUTE_THRESHOLD", 0)
        dist = native_io._manifest_admit([mpath], branches)
        monkeypatch.undo()
        assert dist == inline, pred
        assert len(inline[1]) == PLAN_FILES


def test_union_schema_does_not_depend_on_the_manifest(ray_session, tmp_path):
    """union_by_name unifies the whole listing, not the files the manifest
    admits: file b's extra column stays in the schema when b is pruned."""
    from parquet_go_ray.pipelines import native_io

    d = str(tmp_path / "evo")
    os.makedirs(d)
    write_par1(pa.table({"k": pa.array(range(100), pa.int64())}), f"{d}/a.parquet")
    write_par1(pa.table({"k": pa.array(range(100, 200), pa.int64()),
                         "y": pa.array(range(100), pa.int64())}), f"{d}/b.parquet")
    native_io.build_par1_manifest(d)
    schemas = []
    for use_manifest in ("auto", False):
        ds = native_io.read_par1_dataset(d, predicate=("k", "<", 50), union_by_name=True,
                                         use_manifest=use_manifest)
        schemas.append(ds.schema().names)
        assert ds.count() == 50
    assert schemas == [["k", "y"], ["k", "y"]]
    assert native_io.explain_par1_scan(d, predicate=("k", "<", 50))["files_after_manifest"] == 1


def test_every_scan_normalization_is_typed():
    """Every _normalize_predicate call in the dataset and table scan paths
    passes the schema's column types: an untyped one compares manifest
    integers with date / datetime probes."""
    import ast
    import inspect

    from parquet_go_ray.pipelines import native_io, table

    calls = 0
    for mod in (native_io, table):
        for node in ast.walk(ast.parse(inspect.getsource(mod))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "_normalize_predicate"):
                calls += 1
                assert len(node.args) + len(node.keywords) == 2, (mod.__name__, node.lineno)
    assert calls >= 2
