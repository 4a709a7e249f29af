"""Native PAR1 interop tests.

Write side: engine-encoded pages (PLAIN/RLE_DICTIONARY/DELTA_*/BSS) inside a
real parquet file must be readable by pyarrow and DuckDB (conformance to the
public format, the same bytes the reference emits via
writer/writer.go:142-225 + layout/page.go:219-281).

Read side: pyarrow-written files across encodings/compressions/page versions
decode bit-identically through the engine's own page decoders
(layout/page.go:721-937 analog).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from parquet_go_ray.formats.par1 import read_par1, read_par1_meta, write_par1
from parquet_go_ray.formats.parquet_meta import SPECS
from parquet_go_ray.formats.thrift_compact import CompactReader, CompactWriter


def _mixed_table(n=5000, seed=3, nulls=True):
    rng = np.random.default_rng(seed)
    cols = {
        "i64": pa.array(rng.integers(-(10**12), 10**12, n)),
        "i32": pa.array(rng.integers(-1000, 1000, n).astype(np.int32)),
        "f64": pa.array(rng.normal(size=n)),
        "f32": pa.array(rng.normal(size=n).astype(np.float32)),
        "s": pa.array([f"dir/sub_{i % 37}/f_{i}" for i in range(n)]),
        "lowcard": pa.array([f"k{i % 5}" for i in range(n)]),
        "b": pa.array(rng.integers(0, 2, n).astype(bool)),
        "ts": pa.array(rng.integers(0, 10**15, n), pa.timestamp("us")),
    }
    t = pa.table(cols)
    if nulls:
        mask = rng.random(n) < 0.1
        t = t.set_column(
            0, "i64", pa.array(np.where(mask, None, np.asarray(t["i64"])), pa.int64())
        )
        t = t.set_column(
            4,
            "s",
            pa.array([None if m else v for m, v in zip(mask, t["s"].to_pylist())], pa.string()),
        )
    return t


def _tables_equal(a: pa.Table, b: pa.Table) -> bool:
    if a.num_rows != b.num_rows or set(a.column_names) != set(b.column_names):
        return False
    for c in a.column_names:
        x = a[c].combine_chunks()
        y = b[c].combine_chunks().cast(x.type)
        if not x.equals(y):
            return False
    return True


# -- thrift compact protocol ---------------------------------------------------


def test_thrift_roundtrip_footer_structs():
    fmd = {
        "version": 2,
        "schema": [
            {"name": "schema", "num_children": 2},
            {"type": 2, "repetition_type": 1, "name": "a", "converted_type": 10},
            {"type": 6, "repetition_type": 1, "name": "b", "logicalType": {"STRING": {}}},
        ],
        "num_rows": 12345,
        "row_groups": [
            {
                "columns": [
                    {
                        "file_offset": 4,
                        "meta_data": {
                            "type": 2,
                            "encodings": [0, 3, 8],
                            "path_in_schema": ["a"],
                            "codec": 1,
                            "num_values": 12345,
                            "total_uncompressed_size": 100,
                            "total_compressed_size": 50,
                            "data_page_offset": 40,
                            "dictionary_page_offset": 4,
                        },
                    }
                ],
                "total_byte_size": 100,
                "num_rows": 12345,
                "file_offset": 4,
                "total_compressed_size": 50,
            }
        ],
        "created_by": "test",
    }
    w = CompactWriter(SPECS)
    w.write_struct("FileMetaData", fmd)
    got, pos = CompactReader(SPECS, bytes(w.out)).read_struct("FileMetaData")
    assert pos == len(w.out)
    assert got == fmd


def test_thrift_parses_real_pyarrow_footer(sf_dir):
    path = f"{sf_dir}/lineitem.parquet"
    raw = open(path, "rb").read()
    assert raw[-4:] == b"PAR1"
    flen = int.from_bytes(raw[-8:-4], "little")
    fmd, pos = CompactReader(SPECS, raw[-8 - flen : -8]).read_struct("FileMetaData")
    assert pos == flen  # consumed exactly, nothing mis-skipped
    md = pq.read_metadata(path)
    assert fmd["num_rows"] == md.num_rows
    assert len(fmd["row_groups"]) == md.num_row_groups
    c0 = fmd["row_groups"][0]["columns"][0]["meta_data"]
    assert c0["num_values"] == md.row_group(0).column(0).num_values


# -- write side: foreign readers read engine-encoded pages ---------------------


def test_write_par1_pyarrow_reads_all_encodings():
    t = _mixed_table()
    encs = {
        "i64": "delta_bp",
        "i32": "delta_bp",
        "f64": "byte_stream_split",
        "f32": "plain",
        "s": "delta_ba",
        "lowcard": "dict",
        "b": "plain",
        "ts": "delta_bp",
    }
    write_par1(t, "/tmp/t_par1_all.parquet", codec="snappy", encodings=encs)
    got = pq.read_table("/tmp/t_par1_all.parquet")
    assert _tables_equal(t, got)


def test_write_par1_duckdb_reads_it():
    duckdb = pytest.importorskip("duckdb")
    t = _mixed_table(seed=4)
    write_par1(
        t,
        "/tmp/t_par1_duck.parquet",
        codec="zstd",
        encodings={"s": "delta_length_ba", "i64": "delta_bp", "lowcard": "dict"},
    )
    con = duckdb.connect()
    got = con.sql("SELECT * FROM read_parquet('/tmp/t_par1_duck.parquet')").arrow()
    con.close()
    assert _tables_equal(t, got)


def test_write_par1_multi_rowgroup_multi_page():
    t = _mixed_table(n=10000, seed=5)
    write_par1(
        t, "/tmp/t_par1_rg.parquet", codec="gzip", row_group_rows=3000, page_rows=700
    )
    meta = read_par1_meta("/tmp/t_par1_rg.parquet")
    assert len(meta["row_groups"]) == 4
    assert _tables_equal(t, pq.read_table("/tmp/t_par1_rg.parquet"))
    assert _tables_equal(t, read_par1("/tmp/t_par1_rg.parquet"))


def test_write_par1_edge_tables():
    # empty
    t0 = pa.table({"a": pa.array([], pa.int64()), "s": pa.array([], pa.string())})
    write_par1(t0, "/tmp/t_par1_empty.parquet")
    assert pq.read_table("/tmp/t_par1_empty.parquet").num_rows == 0
    assert read_par1("/tmp/t_par1_empty.parquet").num_rows == 0
    # all-null column + single row
    t1 = pa.table({"a": pa.array([None], pa.int64()), "s": pa.array(["x"])})
    write_par1(t1, "/tmp/t_par1_null.parquet", encodings={"a": "plain"})
    assert _tables_equal(t1, pq.read_table("/tmp/t_par1_null.parquet"))
    assert _tables_equal(t1, read_par1("/tmp/t_par1_null.parquet"))


# -- read side: engine decoders over foreign (pyarrow-written) pages ----------


@pytest.mark.parametrize(
    "kw",
    [
        dict(compression="snappy"),  # dict-encoded v1 pages (pyarrow default)
        dict(compression="zstd", use_dictionary=False),  # PLAIN
        dict(
            compression="snappy",
            use_dictionary=False,
            column_encoding={
                "i64": "DELTA_BINARY_PACKED",
                "i32": "DELTA_BINARY_PACKED",
                "s": "DELTA_BYTE_ARRAY",
                "lowcard": "DELTA_LENGTH_BYTE_ARRAY",
                "f64": "BYTE_STREAM_SPLIT",
                "f32": "BYTE_STREAM_SPLIT",
                "b": "PLAIN",
                "ts": "DELTA_BINARY_PACKED",
            },
        ),
        dict(compression="snappy", data_page_version="2.0"),  # v2 pages
        dict(compression="gzip", row_group_size=1000),  # multi row group
        dict(compression="none"),
    ],
    ids=["dict_v1", "plain_zstd", "delta_family", "v2_pages", "multi_rg", "uncompressed"],
)
def test_read_par1_foreign(kw, tmp_path):
    t = _mixed_table(seed=7)
    path = str(tmp_path / "foreign.parquet")
    pq.write_table(t, path, **kw)
    got = read_par1(path)
    assert _tables_equal(t, got)


def test_read_par1_column_and_rowgroup_selection(tmp_path):
    t = _mixed_table(n=4000, seed=9)
    path = str(tmp_path / "sel.parquet")
    pq.write_table(t, path, row_group_size=1000)
    got = read_par1(path, columns=["i64", "s"], row_groups=[1, 2])
    assert got.column_names == ["i64", "s"]
    assert got.num_rows == 2000
    assert _tables_equal(t.select(["i64", "s"]).slice(1000, 2000), got)


def test_read_par1_nested_pyarrow_file(tmp_path):
    # nested interop (round-3 "missing #1" closed): a pyarrow-written file
    # with list/struct/map columns decodes through the engine's Dremel path
    t = pa.table(
        {
            "l": pa.array([[1, 2], None, [], [None, 5]], pa.list_(pa.int64())),
            "s": pa.array(
                [{"x": 1, "y": "a"}, None, {"x": None, "y": "c"}, {"x": 4, "y": None}],
                pa.struct([("x", pa.int64()), ("y", pa.string())]),
            ),
            "m": pa.array(
                [[("k", 1)], None, [], [("a", None), ("b", 3)]],
                pa.map_(pa.string(), pa.int64()),
            ),
            "flat": pa.array([1.5, None, 3.5, 4.5]),
        }
    )
    path = str(tmp_path / "nested.parquet")
    pq.write_table(t, path)
    got = read_par1(path)
    want = pq.read_table(path)
    for name in t.column_names:
        g = got[name].combine_chunks()
        w = want[name].combine_chunks().cast(g.type)
        assert g.equals(w), name


def test_par1_roundtrip_property():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(1, 300),
        seed=st.integers(0, 2**16),
        enc=st.sampled_from(["plain", "delta_bp", "dict"]),
        codec=st.sampled_from(["none", "snappy", "zstd", "brotli"]),
        v2=st.booleans(),
        bloom=st.booleans(),
        mixed_codec=st.booleans(),
    )
    def prop(n, seed, enc, codec, v2, bloom, mixed_codec):
        rng = np.random.default_rng(seed)
        vals = rng.integers(-(2**40), 2**40, n)
        mask = rng.random(n) < 0.2
        t = pa.table(
            {
                "v": pa.array(np.where(mask, None, vals), pa.int64()),
                "w": pa.array(rng.normal(size=n), pa.float64()),
            }
        )
        path = f"/tmp/t_par1_prop_{seed}_{n}.parquet"
        write_par1(
            t, path,
            codec={"v": codec, "default": "snappy"} if mixed_codec else codec,
            encodings={"v": enc, "w": "byte_stream_split"}, page_rows=64,
            data_page_version=2 if v2 else 1,
            bloom=["v"] if bloom else None,
        )
        assert _tables_equal(t, pq.read_table(path))
        assert _tables_equal(t, read_par1(path, verify_crc=True))
        # the pruned reader agrees with full-read + filter on a random ==
        if n >= 2:
            from parquet_go_ray.formats.par1 import read_par1_pruned

            probe = int(vals[rng.integers(0, n)])
            got, _ = read_par1_pruned(path, ["v", "w"], ("v", "==", probe))
            exp = t.filter(pa.compute.equal(t["v"], probe))
            assert got.to_pydict() == exp.to_pydict()
        import os

        os.unlink(path)

    prop()


def _nested_table():
    return pa.table(
        {
            "id": pa.array(range(6), pa.int64()),
            "l": pa.array([[1, 2], None, [], [None, 5], [6], [7, 8, 9]], pa.list_(pa.int64())),
            "s": pa.array(
                [
                    {"x": 1, "y": "a"},
                    None,
                    {"x": None, "y": "c"},
                    {"x": 4, "y": None},
                    {"x": 5, "y": "e"},
                    {"x": 6, "y": "f"},
                ],
                pa.struct([("x", pa.int64()), ("y", pa.string())]),
            ),
            "m": pa.array(
                [[("k", 1)], None, [], [("a", None), ("b", 3)], [("z", 9)], [("q", 0)]],
                pa.map_(pa.string(), pa.int64()),
            ),
            "ls": pa.array([["a", None], None, [], ["b"], ["c", "d"], [None]], pa.list_(pa.string())),
            "emb": pa.array(
                [[0.1, 0.2], [0.3, 0.4], None, [0.5, 0.6], [0.7, 0.8], [0.9, 1.0]],
                pa.list_(pa.float32()),
            ),
        }
    )


@pytest.mark.parametrize("codec", ["none", "snappy", "zstd"])
@pytest.mark.parametrize("rg,pr", [(None, 65536), (4, 3), (2, 1)])
def test_write_par1_nested_pyarrow_and_duckdb_read(tmp_path, codec, rg, pr):
    """Engine-written NESTED parquet (Dremel rep/def levels, 3-level
    LIST/MAP groups) reads back identically via pyarrow, DuckDB, and the
    engine's own reader — across codecs, row-group and page splits."""
    import duckdb

    t = _nested_table()
    path = str(tmp_path / "nested.parquet")
    write_par1(t, path, codec=codec, row_group_rows=rg, page_rows=pr)
    back = pq.read_table(path)
    for name in t.column_names:
        g = back[name].combine_chunks().cast(t[name].type)
        assert g.equals(t[name].combine_chunks()), name
    mine = read_par1(path)
    for name in t.column_names:
        g = mine[name].combine_chunks().cast(t[name].type)
        assert g.equals(t[name].combine_chunks()), ("self", name)
    con = duckdb.connect()
    try:
        rows = con.sql(
            f"SELECT id, len(l), s.x, m['k'], len(ls), CAST(emb[1] AS DOUBLE) "
            f"FROM read_parquet('{path}') ORDER BY id"
        ).fetchall()
    finally:
        con.close()
    assert len(rows) == 6
    assert rows[0][0] == 0 and rows[0][1] == 2 and rows[0][2] == 1


def test_write_par1_nested_all_null_page():
    """A page whose slots are entirely null must still carry spec-valid
    empty delta streams (parquet-cpp parses the header even for 0 values)."""
    import tempfile

    t = pa.table({"y": pa.array(["a", None, "c", None, "e", "f"])})
    with tempfile.TemporaryDirectory() as d:
        path = f"{d}/x.parquet"
        write_par1(
            t, path, codec="none", row_group_rows=4, page_rows=3,
            encodings={"y": "delta_length_ba"},
        )
        assert pq.read_table(path)["y"].combine_chunks().equals(t["y"].combine_chunks())


def test_read_par1_nested_v2_pages(tmp_path):
    """pyarrow-written DataPageV2 nested file decodes through the engine
    (v2 rep/def levels are raw hybrid streams before the value bytes)."""
    t = _nested_table()
    path = str(tmp_path / "v2.parquet")
    pq.write_table(t, path, data_page_version="2.0", compression="zstd")
    got = read_par1(path)
    for name in t.column_names:
        g = got[name].combine_chunks()
        w = t[name].combine_chunks().cast(g.type)
        assert g.equals(w), name


# -- ColumnIndex / OffsetIndex (round-3 verdict item 4) -----------------------


def test_write_par1_page_index_exposed_and_roundtrips(tmp_path):
    """Engine-written files carry per-chunk ColumnIndex/OffsetIndex (the
    reference serializes the same pair in writer/writer.go:157-204): pyarrow's
    metadata must flag them, the thrift structures must round-trip through the
    engine reader with correct per-page min/max/null stats, and every
    PageLocation.offset must land exactly on a parseable page header."""
    from parquet_go_ray.formats.par1 import read_par1_page_index

    t = pa.table(
        {
            "a": pa.array(list(range(1000)), pa.int64()),
            "s": pa.array([f"key{i % 7}" for i in range(1000)]),
            "f": pa.array([None if i % 5 == 0 else i * 0.5 for i in range(1000)], pa.float64()),
            "l": pa.array(
                [[i, i + 1] if i % 3 else None for i in range(1000)], pa.list_(pa.int64())
            ),
        }
    )
    path = str(tmp_path / "idx.parquet")
    write_par1(t, path, codec="snappy", row_group_rows=400, page_rows=100)

    md = pq.read_metadata(path)
    for rg in range(md.num_row_groups):
        for col in range(md.num_columns):
            cc = md.row_group(rg).column(col)
            assert cc.has_column_index and cc.has_offset_index, (rg, col)

    # chunk-level Statistics must agree with the data
    c_f = md.row_group(0).column(2)
    assert c_f.statistics.null_count == 80
    assert c_f.statistics.min == 0.5 and c_f.statistics.max == 199.5

    idx = read_par1_page_index(path)
    assert len(idx) == md.num_row_groups
    ci = idx[0][0]["column_index"]  # column "a", rows 0..399, 4 pages of 100
    assert ci["null_pages"] == [False] * 4
    assert ci["boundary_order"] == 1  # ASCENDING
    assert [int.from_bytes(b, "little", signed=True) for b in ci["min_values"]] == [0, 100, 200, 300]
    assert [int.from_bytes(b, "little", signed=True) for b in ci["max_values"]] == [99, 199, 299, 399]
    ci_f = idx[0][2]["column_index"]
    assert ci_f["null_counts"] == [20] * 4

    # every OffsetIndex location points at a real page header
    with open(path, "rb") as f:
        data = f.read()
    rg_rows = [400, 400, 200]
    for n_rows, rg_idx in zip(rg_rows, idx):
        for entry in rg_idx:
            locs = entry["offset_index"]["page_locations"]
            assert [pl["first_row_index"] for pl in locs] == list(range(0, n_rows, 100))
            for pl in locs:
                hdr, end = CompactReader(SPECS, data[pl["offset"] : pl["offset"] + 64]).read_struct(
                    "PageHeader", 0
                )
                assert hdr["type"] == 0 and "data_page_header" in hdr
                assert pl["compressed_page_size"] >= hdr["compressed_page_size"]


def test_write_par1_page_index_all_null_and_nan(tmp_path):
    """All-null pages are flagged null_pages=true with empty min/max; NaN is
    skipped when computing page extremes (per spec), and an all-NaN page —
    whose extremes would BE NaN — suppresses that chunk's ColumnIndex
    entirely rather than writing NaN stats."""
    import struct

    from parquet_go_ray.formats.par1 import read_par1_page_index

    t = pa.table(
        {
            "g": pa.array([None] * 3 + [7, 8, 9], pa.int64()),
            "nanf": pa.array([1.0, float("nan"), 2.0, 3.0, 4.0, 5.0], pa.float64()),
            "allnan": pa.array([float("nan")] * 3 + [1.0, 2.0, 3.0], pa.float64()),
        }
    )
    path = str(tmp_path / "nulls.parquet")
    write_par1(t, path, codec="none", page_rows=3)
    idx = read_par1_page_index(path)
    ci = idx[0][0]["column_index"]
    assert ci["null_pages"] == [True, False]
    assert ci["min_values"][0] == b"" and ci["null_counts"] == [3, 0]
    ci_nan = idx[0][1]["column_index"]  # NaN skipped: page extremes 1.0/2.0
    assert struct.unpack("<d", ci_nan["min_values"][0])[0] == 1.0
    assert struct.unpack("<d", ci_nan["max_values"][0])[0] == 2.0
    assert idx[0][2]["column_index"] is None  # all-NaN page -> index omitted
    assert idx[0][2]["offset_index"] is not None  # offsets always present
    got = pq.read_table(path)
    assert got["g"].combine_chunks().equals(t["g"].combine_chunks())


def test_write_par1_duckdb_filter_on_indexed_file(tmp_path):
    """DuckDB predicate pushdown over an engine-written file with page
    indexes + chunk statistics returns exact results (and the stats give it
    row-group pruning)."""
    import duckdb

    t = pa.table(
        {
            "a": pa.array(list(range(20000)), pa.int64()),
            "s": pa.array([f"v{i:05d}" for i in range(20000)]),
        }
    )
    path = str(tmp_path / "big.parquet")
    write_par1(t, path, codec="zstd", row_group_rows=5000, page_rows=1000)
    con = duckdb.connect()
    try:
        n, lo, hi = con.sql(
            f"SELECT count(*), min(a), max(a) FROM read_parquet('{path}') "
            "WHERE a BETWEEN 7100 AND 7200"
        ).fetchall()[0]
        assert (n, lo, hi) == (101, 7100, 7200)
        (sv,) = con.sql(
            f"SELECT count(*) FROM read_parquet('{path}') WHERE s = 'v00042'"
        ).fetchall()[0]
        assert sv == 1
    finally:
        con.close()


# -- v2 data-page WRITE + INT96 physical (round-3 "missing #3") ---------------


@pytest.mark.parametrize("codec", ["none", "snappy", "zstd"])
def test_write_par1_v2_pages(tmp_path, codec):
    """Engine-written DataPageV2 files (raw uncompressed level streams +
    separately-compressed values, reference layout/page.go:297-323) read back
    identically via pyarrow, DuckDB, and the engine's own v2 reader — flat
    and nested columns, across page/row-group splits."""
    import duckdb

    t = _nested_table()
    path = str(tmp_path / "v2w.parquet")
    write_par1(t, path, codec=codec, data_page_version=2, row_group_rows=4, page_rows=3)
    back = pq.read_table(path)
    mine = read_par1(path)
    for name in t.column_names:
        want = t[name].combine_chunks()
        assert back[name].combine_chunks().cast(want.type).equals(want), name
        assert mine[name].combine_chunks().cast(want.type).equals(want), ("self", name)
    con = duckdb.connect()
    try:
        (n,) = con.sql(f"SELECT count(*) FROM read_parquet('{path}')").fetchall()[0]
    finally:
        con.close()
    assert n == t.num_rows


def test_write_par1_int96_timestamps(tmp_path):
    """int96_timestamps=True writes timestamp columns as the deprecated INT96
    physical (nanos-of-day + Julian day, PLAIN, stats suppressed —
    encoding/encodingwrite.go:85-91 analog); pyarrow reads them back as
    timestamp[ns] and the engine reader converts through the same
    int96_to_timestamp kernel the chunk container uses."""
    import numpy as np

    ts = pa.array(
        np.arange(1_700_000_000_000_000, 1_700_000_000_000_000 + 50, 7),
        pa.timestamp("us"),
    )
    t = pa.table({"event_id": pa.array(range(len(ts)), pa.int64()), "ts": ts})
    path = str(tmp_path / "i96.parquet")
    fmd = write_par1(t, path, codec="snappy", int96_timestamps=True)
    # schema element carries the INT96 physical, not FLBA
    elems = {e.get("name"): e for e in fmd["schema"]}
    assert elems["ts"]["type"] == 3  # PT_INT96
    back = pq.read_table(path)
    assert back["ts"].type == pa.timestamp("ns")
    assert back["ts"].cast(pa.timestamp("us")).combine_chunks().equals(ts)
    mine = read_par1(path)
    assert mine["ts"].type == pa.timestamp("ns")
    assert mine["ts"].cast(pa.timestamp("us")).combine_chunks().equals(ts)
    # INT96 chunks carry no column index / stats (undefined order)
    from parquet_go_ray.formats.par1 import read_par1_page_index

    idx = read_par1_page_index(path)
    assert idx[0][1]["column_index"] is None
    assert idx[0][0]["column_index"] is not None  # the int64 column keeps its


def test_scan_par1_column_page_pruning(tmp_path):
    """The engine's own reader uses the ColumnIndex to skip pages: a
    selective predicate decodes a small fraction of pages and still returns
    exact rows; unfiltered scans decode everything."""
    from parquet_go_ray.formats.par1 import scan_par1_column

    t = pa.table(
        {
            "a": pa.array(list(range(20000)), pa.int64()),
            "s": pa.array([f"v{i:05d}" for i in range(20000)]),
        }
    )
    path = str(tmp_path / "scanidx.parquet")
    write_par1(t, path, codec="zstd", row_group_rows=5000, page_rows=500)

    out, st = scan_par1_column(path, "a", (">=", 19000))
    assert st["pages_total"] == 40 and st["pages_decoded"] <= 3
    got = out["a"].combine_chunks().to_pylist()
    assert got == list(range(19000, 20000))

    out2, st2 = scan_par1_column(path, "s", ("==", "v00042"))
    assert st2["pages_decoded"] <= 2
    assert out2["s"].combine_chunks().to_pylist() == ["v00042"]

    out3, st3 = scan_par1_column(path, "a", None)
    assert st3["pages_decoded"] == st3["pages_total"] == 40
    assert out3.num_rows == 20000

    # null pages never match a predicate
    tn = pa.table({"g": pa.array([None] * 500 + list(range(500)), pa.int64())})
    pn = str(tmp_path / "nulls.parquet")
    write_par1(tn, pn, codec="none", page_rows=250)
    outn, stn = scan_par1_column(pn, "g", (">=", 250))
    assert stn["pages_decoded"] == 1  # 2 null pages skipped, 1 of 2 data pages
    assert outn["g"].combine_chunks().to_pylist() == list(range(250, 500))


def test_page_crc_interop(tmp_path):
    """PageHeader.crc both directions: pyarrow verifies engine-written CRCs
    (v1+v2, compressed+not), the engine verifies pyarrow-written CRCs, and a
    flipped byte in a page body fails BOTH verifiers."""
    t = _mixed_table(4000)
    for v in (1, 2):
        for codec in ("snappy", "none"):
            p = str(tmp_path / f"crc_v{v}_{codec}.parquet")
            write_par1(t, p, codec=codec, data_page_version=v, page_rows=1000)
            got = pq.ParquetFile(p, page_checksum_verification=True).read()
            assert got.num_rows == t.num_rows
            back = read_par1(p, verify_crc=True)
            assert _tables_equal(back, t)

    # pyarrow-written checksummed file through the engine verifier
    p2 = str(tmp_path / "pa_crc.parquet")
    pq.write_table(t, p2, write_page_checksum=True, compression="snappy")
    assert _tables_equal(read_par1(p2, verify_crc=True), t)

    # corruption: flip one byte inside the first data page body
    p3 = str(tmp_path / "bad.parquet")
    write_par1(t.select(["i64"]), p3, codec="none", page_rows=1000)
    raw = bytearray(open(p3, "rb").read())
    raw[200] ^= 0xFF
    open(p3, "wb").write(bytes(raw))
    with pytest.raises(ValueError, match="CRC mismatch"):
        read_par1(p3, verify_crc=True)
    with pytest.raises(Exception, match="CRC"):
        pq.ParquetFile(p3, page_checksum_verification=True).read()

    # page-pruned scan path verifies too
    from parquet_go_ray.formats.par1 import scan_par1_column

    p4 = str(tmp_path / "scan.parquet")
    write_par1(pa.table({"a": pa.array(range(5000), pa.int64())}), p4, page_rows=500)
    out, st = scan_par1_column(p4, "a", (">=", 4500), verify_crc=True)
    assert out.num_rows == 500 and st["pages_decoded"] == 1


def test_kv_metadata_and_sorting_columns(tmp_path):
    """Footer + chunk-level KeyValue metadata (reference surface:
    example/keyvalue_metadata.go:56-82) and RowGroup.sorting_columns, read
    back by pyarrow, DuckDB and the engine's own footer parser."""
    import duckdb

    from parquet_go_ray.formats.par1 import read_par1_meta

    t = pa.table(
        {
            "k": pa.array(range(3000), pa.int64()),
            "ls": pa.array([[i] for i in range(3000)], pa.list_(pa.int32())),
        }
    )
    p = str(tmp_path / "kv.parquet")
    write_par1(
        t, p, row_group_rows=1000,
        key_value_metadata={"writer": "parquet_go_ray"},
        column_key_value_metadata={"k": {"role": "sort_key"}},
        sorting_columns=[("k", False, False)],
    )
    md = pq.ParquetFile(p).metadata
    assert md.metadata[b"writer"] == b"parquet_go_ray"
    sc = md.row_group(0).sorting_columns
    assert len(sc) == 1 and sc[0].column_index == 0 and not sc[0].descending
    assert (b"writer", b"parquet_go_ray") in duckdb.sql(
        f"select key, value from parquet_kv_metadata('{p}')"
    ).fetchall()
    fmd = read_par1_meta(p)
    assert fmd["row_groups"][1]["sorting_columns"] == [
        {"column_idx": 0, "descending": False, "nulls_first": False}
    ]
    k_meta = fmd["row_groups"][0]["columns"][0]["meta_data"]
    assert k_meta["key_value_metadata"] == [{"key": "role", "value": "sort_key"}]
    assert _tables_equal(read_par1(p, verify_crc=True), t)


def test_read_par1_pruned(tmp_path):
    """Two-level pruning read: row groups drop on chunk Statistics, pages
    drop on the predicate column's ColumnIndex, and every projected column
    decodes only pages overlapping the surviving OffsetIndex row ranges."""
    import pyarrow.compute as pc

    from parquet_go_ray.formats.par1 import read_par1_pruned

    n = 20000
    rng = np.random.default_rng(5)
    t = pa.table(
        {
            "k": pa.array(np.arange(n), pa.int64()),
            "price": pa.array(rng.normal(100, 20, n), pa.float64()),
            "flag": pa.array([["A", "B", "C"][i % 3] for i in range(n)]),
            "opt": pa.array([None if i % 7 == 0 else i * 2 for i in range(n)], pa.int64()),
            "ts": pa.array(np.arange(n) * 1000, pa.timestamp("us")),
        }
    )
    p = str(tmp_path / "pruned.parquet")
    write_par1(
        t, p, codec="snappy", row_group_rows=5000, page_rows=500,
        encodings={"k": "delta_bp", "flag": "dict", "price": "byte_stream_split"},
    )

    tb, st = read_par1_pruned(p, ["k", "price", "flag"], ("k", ">=", 19000), verify_crc=True)
    exp = t.filter(pc.greater_equal(t["k"], 19000)).select(["k", "price", "flag"])
    assert tb.to_pydict() == exp.to_pydict()
    assert st["row_groups_read"] == 1 and st["pages_decoded"] <= 6 < st["pages_total"]

    # predicate column not projected; nullable column comes out row-aligned
    tb2, st2 = read_par1_pruned(p, ["price", "opt"], ("k", "<", 300))
    exp2 = t.filter(pc.less(t["k"], 300)).select(["price", "opt"])
    assert tb2.to_pydict() == exp2.to_pydict()
    assert st2["pages_decoded"] <= 3

    # string predicate spanning everything: no pruning, still exact
    tb3, _ = read_par1_pruned(p, ["k"], ("flag", "==", "B"))
    assert tb3.to_pydict() == t.filter(pc.equal(t["flag"], "B")).select(["k"]).to_pydict()

    # projection only (timestamp cast path), and the nothing-survives empty
    tb4, _ = read_par1_pruned(p, ["ts", "opt"])
    assert tb4.to_pydict() == t.select(["ts", "opt"]).to_pydict()
    tb5, st5 = read_par1_pruned(p, ["k", "price"], ("k", ">", 10**9))
    assert tb5.num_rows == 0 and tb5.schema.types == [pa.int64(), pa.float64()]
    assert st5["row_groups_read"] == 0 and st5["pages_decoded"] == 0

    # AND of clauses: page row-ranges intersect across predicate columns,
    # and the exact re-filter applies every clause (one clause's column,
    # "flag", is not even projected)
    tb_and, st_and = read_par1_pruned(
        p, ["k", "price"], [("k", ">=", 18000), ("flag", "==", "B"), ("k", "<", 19000)]
    )
    m = pc.and_(
        pc.and_(pc.greater_equal(t["k"], 18000), pc.less(t["k"], 19000)),
        pc.equal(t["flag"], "B"),
    )
    assert tb_and.to_pydict() == t.filter(m).select(["k", "price"]).to_pydict()
    assert st_and["row_groups_read"] == 1 and st_and["pages_decoded"] < st_and["pages_total"]
    # contradictory clauses: intersection is empty, nothing decodes
    tb_c, st_c = read_par1_pruned(p, ["k"], [("k", "<", 100), ("k", ">=", 19000)])
    assert tb_c.num_rows == 0 and st_c["pages_decoded"] == 0

    # row-group subset: the unit a distributed scan splits one huge file by
    tb6, st6 = read_par1_pruned(p, ["k", "flag"], row_groups=[1, 2])
    assert tb6.to_pydict() == t.slice(5000, 10000).select(["k", "flag"]).to_pydict()
    assert st6["row_groups_total"] == 2 and st6["row_groups_read"] == 2
    # subset + predicate: statistics still prune inside the subset
    tb7, st7 = read_par1_pruned(p, ["k"], ("k", ">=", 19000), row_groups=[0, 3])
    assert tb7.to_pydict() == {"k": list(range(19000, 20000))}
    assert st7["row_groups_read"] == 1


def test_write_par1_brotli_interop(tmp_path):
    """BROTLI pages in engine-written files — a codec the reference cannot
    write (README.md:172-173) — read back by pyarrow and the engine's own
    decoders with CRC verification.  (DuckDB 1.0's parquet reader does not
    decode BROTLI pages, so the foreign-reader proof here is pyarrow.)"""
    import pyarrow.parquet as pq

    from parquet_go_ray.formats.par1 import read_par1

    n = 5000
    t = pa.table(
        {
            "a": pa.array(np.arange(n), pa.int64()),
            "s": pa.array([f"v{i % 7}" for i in range(n)]),
        }
    )
    p = str(tmp_path / "brotli.parquet")
    write_par1(t, p, codec="brotli", encodings={"a": "delta_bp", "s": "dict"},
               page_rows=1000)
    assert pq.read_table(p).equals(t)
    assert read_par1(p, verify_crc=True).to_pydict() == t.to_pydict()
    # and the read direction: a pyarrow-written brotli file through engine decoders
    p2 = str(tmp_path / "brotli_foreign.parquet")
    pq.write_table(t, p2, compression="brotli", use_dictionary=False)
    assert read_par1(p2).to_pydict() == t.to_pydict()


def test_write_par1_per_column_codec(tmp_path):
    """Per-column compression (parquet codecs are per column chunk): each
    chunk's ColumnMetaData.codec reflects its own choice, pyarrow and the
    engine read the mixed file back."""
    import pyarrow.parquet as pq

    from parquet_go_ray.formats.par1 import read_par1, read_par1_meta

    n = 4000
    t = pa.table(
        {
            "i": pa.array(np.arange(n), pa.int64()),
            "s": pa.array([f"text {i % 50}" for i in range(n)]),
            "x": pa.array(np.linspace(0, 1, n), pa.float64()),
        }
    )
    p = str(tmp_path / "mixed_codec.parquet")
    write_par1(t, p, codec={"s": "zstd", "x": "none", "default": "snappy"},
               encodings={"i": "delta_bp", "s": "dict"})
    md = pq.ParquetFile(p).metadata.row_group(0)
    comps = {md.column(c).path_in_schema: md.column(c).compression for c in range(3)}
    assert comps == {"i": "SNAPPY", "s": "ZSTD", "x": "UNCOMPRESSED"}
    assert pq.read_table(p).equals(t)
    assert read_par1(p, verify_crc=True).to_pydict() == t.to_pydict()
    # engine footer agrees
    m = read_par1_meta(p)
    codecs = [c["meta_data"]["codec"] for c in m["row_groups"][0]["columns"]]
    assert codecs == [1, 6, 0]  # SNAPPY, ZSTD, UNCOMPRESSED


def test_write_par1_bss_extended_int_types(tmp_path):
    """BYTE_STREAM_SPLIT on INT32/INT64 (parquet-format 2.11 extended BSS,
    beyond the reference's float-only use): engine-written int-BSS pages
    read back by pyarrow and the engine's own decoders.  (DuckDB 1.0 still
    restricts BSS to FLOAT/DOUBLE.)"""
    import pyarrow.parquet as pq

    from parquet_go_ray.formats.par1 import read_par1

    t = pa.table(
        {
            "i": pa.array(np.arange(4000), pa.int64()),
            "j": pa.array(np.arange(4000, dtype=np.int32), pa.int32()),
        }
    )
    p = str(tmp_path / "int_bss.parquet")
    write_par1(t, p, codec="zstd", page_rows=1000,
               encodings={"i": "byte_stream_split", "j": "byte_stream_split"})
    assert pq.read_table(p).equals(t)
    assert read_par1(p, verify_crc=True).to_pydict() == t.to_pydict()
    # and the reverse: pyarrow-written extended-BSS decoded by the engine
    p2 = str(tmp_path / "int_bss_foreign.parquet")
    pq.write_table(t, p2, use_dictionary=False,
                   column_encoding={"i": "BYTE_STREAM_SPLIT", "j": "BYTE_STREAM_SPLIT"})
    assert read_par1(p2).to_pydict() == t.to_pydict()


def test_dict_overflow_falls_back_to_plain(tmp_path):
    """A forced-dict chunk whose dictionary would exceed the 1 MiB page cap
    (parquet-mr's dictionary_page_size discipline) silently falls back to
    PLAIN — no multi-MB dict page every reader must hold — while small-dict
    chunks keep dictionary encoding."""
    import pyarrow.parquet as pq

    from parquet_go_ray.formats.parquet_meta import (
        ENC_PLAIN, ENC_RLE_DICTIONARY,
    )

    big = pa.table({"s": pa.array([f"{'x' * 500}{i}" for i in range(3000)])})
    p1 = str(tmp_path / "big_dict.parquet")
    write_par1(big, p1, codec="snappy", encodings={"s": "dict"})
    pf = pq.ParquetFile(p1)
    md = pf.metadata.row_group(0).column(0)
    assert "PLAIN" in str(md.encodings) and "RLE_DICTIONARY" not in str(md.encodings)
    assert md.has_dictionary_page is False
    assert pq.read_table(p1).to_pydict() == big.to_pydict()

    small = pa.table({"s": pa.array([f"v{i % 20}" for i in range(3000)])})
    p2 = str(tmp_path / "small_dict.parquet")
    write_par1(small, p2, codec="snappy", encodings={"s": "dict"})
    md2 = pq.ParquetFile(p2).metadata.row_group(0).column(0)
    assert "RLE_DICTIONARY" in str(md2.encodings)
    assert pq.read_table(p2).to_pydict() == small.to_pydict()


def test_read_par1_pruned_foreign_page_index(tmp_path):
    """Interop, read direction: a pyarrow-written file with
    write_page_index=True is pruned by the ENGINE's reader — row groups
    drop on pyarrow's chunk Statistics, pages drop on pyarrow's
    ColumnIndex/OffsetIndex, values decode through engine page decoders."""
    import pyarrow.parquet as pq

    from parquet_go_ray.formats.par1 import read_par1_pruned

    n = 20000
    t = pa.table(
        {
            "k": pa.array(np.arange(n), pa.int64()),
            "v": pa.array(np.random.default_rng(0).normal(size=n)),
        }
    )
    p = str(tmp_path / "foreign_idx.parquet")
    pq.write_table(
        t, p, row_group_size=5000, data_page_size=2000, write_page_index=True,
        use_dictionary=False,
        column_encoding={"k": "DELTA_BINARY_PACKED", "v": "BYTE_STREAM_SPLIT"},
    )
    tb, st = read_par1_pruned(p, ["k", "v"], ("k", ">=", 19500))
    assert tb["k"].to_pylist() == list(range(19500, 20000))
    assert tb["v"].to_pylist() == t["v"].to_pylist()[19500:]
    assert st["row_groups_read"] == 1
    assert st["pages_decoded"] < st["pages_total"]


def test_stat_min_max_legacy_fallback():
    """Deprecated Statistics.min/max (legacy writers) prune numeric chunks
    but are ignored for byte arrays, whose legacy ordering is undefined."""
    from parquet_go_ray.formats.par1 import _stat_min_max
    from parquet_go_ray.formats.parquet_meta import (
        PT_BYTE_ARRAY, PT_DOUBLE, PT_INT64,
    )

    modern = {"min_value": b"\x01", "max_value": b"\x02", "min": b"\x09", "max": b"\x0a"}
    assert _stat_min_max(modern, PT_INT64) == (b"\x01", b"\x02")  # modern wins
    legacy = {"min": b"\x01\x00\x00\x00\x00\x00\x00\x00", "max": b"\x05\x00\x00\x00\x00\x00\x00\x00"}
    assert _stat_min_max(legacy, PT_INT64) == (legacy["min"], legacy["max"])
    assert _stat_min_max(legacy, PT_DOUBLE) == (legacy["min"], legacy["max"])
    assert _stat_min_max({"min": b"a", "max": b"z"}, PT_BYTE_ARRAY) is None
    assert _stat_min_max(None, PT_INT64) is None
    assert _stat_min_max({}, PT_INT64) is None


def test_read_par1_pruned_random_and_predicates(tmp_path):
    """Property check: for random AND-conjunctions, the pruned read equals
    full-read-then-filter exactly."""
    import pyarrow.compute as pc

    from parquet_go_ray.formats.par1 import read_par1_pruned

    rng = np.random.default_rng(11)
    n = 6000
    t = pa.table(
        {
            "a": pa.array(rng.integers(0, 500, n), pa.int64()),
            "b": pa.array(rng.normal(0, 1, n), pa.float64()),
            "c": pa.array([f"g{int(x)}" for x in rng.integers(0, 40, n)]),
        }
    )
    p = str(tmp_path / "prop.parquet")
    write_par1(t, p, codec="zstd", row_group_rows=1500, page_rows=300,
               bloom=["a", "c"])
    ops = [">=", ">", "<=", "<", "=="]
    arrow_ops = {
        ">=": pc.greater_equal, ">": pc.greater, "<=": pc.less_equal,
        "<": pc.less, "==": pc.equal,
    }
    for trial in range(25):
        k = rng.integers(1, 4)
        preds = []
        for _ in range(k):
            col = ["a", "b", "c"][rng.integers(0, 3)]
            op = ops[rng.integers(0, 5)]
            if col == "a":
                val = int(rng.integers(-10, 520))
            elif col == "b":
                val = float(rng.normal(0, 1))
            else:
                val = f"g{int(rng.integers(0, 45))}"
            preds.append((col, op, val))
        got, _st = read_par1_pruned(p, ["a", "b"], preds)
        mask = None
        for col, op, val in preds:
            m = arrow_ops[op](t[col], pa.scalar(val, t[col].type))
            mask = m if mask is None else pc.and_(mask, m)
        exp = t.filter(mask).select(["a", "b"])
        assert got.to_pydict() == exp.to_pydict(), (trial, preds)


def _null_run_table(n=12000):
    """k ascending, v small-domain, s strings with 1000-row null runs."""
    rng = np.random.default_rng(23)
    s = [f"row{i % 977}" for i in range(n)]
    mask = (np.arange(n) // 1000) % 4 == 0
    return pa.table(
        {
            "k": pa.array(np.arange(n, dtype=np.int64)),
            "v": pa.array(rng.integers(0, 50, n).astype(np.int32)),
            "s": pa.array(
                [None if m else x for x, m in zip(s, mask)], pa.string()
            ),
        }
    )


def test_read_par1_pruned_dnf_or_branches(tmp_path):
    """OR-of-AND predicates: result equals DuckDB on the same file, and the
    decoded page ranges are the union of the branches'."""
    import duckdb

    from parquet_go_ray.formats.par1 import read_par1_pruned

    t = _null_run_table()
    p = str(tmp_path / "dnf.parquet")
    write_par1(t, p, codec="zstd", row_group_rows=4000, page_rows=1000,
               encodings={"s": "dict"})
    got, st = read_par1_pruned(
        p,
        ["k", "v", "s"],
        predicate=[
            [("k", "<", 2000), ("v", ">=", 25)],
            [("s", "==", "row500")],
            [("v", "in", [7, 999])],
        ],
    )
    con = duckdb.connect()
    exp = con.execute(
        f"SELECT k, v, s FROM read_parquet('{p}') "
        "WHERE (k < 2000 AND v >= 25) OR s = 'row500' OR v IN (7, 999)"
    ).fetch_arrow_table()
    con.close()
    assert got.sort_by("k").to_pydict() == exp.sort_by("k").to_pydict()
    assert st["row_groups_read"] == 3


def test_read_par1_pruned_null_ops(tmp_path):
    """is_null/not_null prune via Statistics.null_count + ColumnIndex
    null_counts/null_pages; rows match IS [NOT] NULL semantics."""
    from parquet_go_ray.formats.par1 import read_par1_pruned

    t = _null_run_table()
    p = str(tmp_path / "nulls.parquet")
    write_par1(t, p, codec="snappy", row_group_rows=4000, page_rows=1000)

    got, st = read_par1_pruned(p, ["k"], predicate=("s", "is_null", None))
    exp = t.filter(pa.compute.is_null(t["s"]))["k"].to_pylist()
    assert got["k"].to_pylist() == exp
    # only the all-null pages (1 per 4) decode: null_counts prune the rest
    assert st["pages_decoded"] < st["pages_total"] // 2

    got2, st2 = read_par1_pruned(
        p, ["k"], predicate=[("s", "not_null", None), ("k", "<", 2500)]
    )
    exp2 = t.filter(
        pa.compute.and_(pa.compute.is_valid(t["s"]), pa.compute.less(t["k"], 2500))
    )["k"].to_pylist()
    assert got2["k"].to_pylist() == exp2
    assert st2["row_groups_read"] == 1  # k-stats drop 2 of 3 row groups

    # a column with NO nulls: is_null excludes every row group footer-only
    got3, st3 = read_par1_pruned(p, ["k"], predicate=("k", "is_null", None))
    assert got3.num_rows == 0 and st3["row_groups_read"] == 0


def test_read_par1_pruned_dict_exact_probe(tmp_path):
    """A probe value absent from a fully-dict-encoded chunk's dictionary
    excludes the row group even when min/max admit it and no bloom exists —
    encoding_stats proves the dictionary is the complete value domain."""
    from parquet_go_ray.formats.par1 import read_par1_pruned

    t = _null_run_table()
    p = str(tmp_path / "dict.parquet")
    write_par1(t, p, codec="snappy", row_group_rows=4000, page_rows=1000,
               encodings={"s": "dict"})
    # inside [row0, row976] lexicographically, but not a real value
    got, st = read_par1_pruned(p, ["k"], predicate=("s", "==", "row500x"))
    assert got.num_rows == 0
    assert st["row_groups_read"] == 0 and st["pages_decoded"] == 0
    # the same probe on a PLAIN chunk reads (min/max admit, no dict proof)
    p2 = str(tmp_path / "plain.parquet")
    write_par1(t, p2, codec="snappy", row_group_rows=4000, page_rows=1000,
               encodings={"s": "plain"})
    _, st2 = read_par1_pruned(p2, ["k"], predicate=("s", "==", "row500x"))
    assert st2["row_groups_read"] == 3


def test_encoding_stats_dict_fallback_not_claimed(tmp_path):
    """When the dictionary overflows the 1 MiB cap and the chunk falls back
    to PLAIN, encoding_stats must record PLAIN data pages (so dict-exact
    pruning does NOT engage on an incomplete dictionary)."""
    from parquet_go_ray.formats.par1 import _all_data_pages_dict

    n = 40000
    rng = np.random.default_rng(5)
    big = pa.table(
        {"s": pa.array(["x" * 40 + str(rng.integers(0, 10**9)) + str(i) for i in range(n)])}
    )
    p = str(tmp_path / "fallback.parquet")
    write_par1(big, p, codec="snappy", encodings={"s": "dict"}, page_rows=8000)
    md = read_par1_meta(p)
    cmd = md["row_groups"][0]["columns"][0]["meta_data"]
    assert not _all_data_pages_dict(cmd)
    es = cmd["encoding_stats"]
    assert any(e["encoding"] == 0 and e["page_type"] == 0 for e in es)  # PLAIN data pages

    small = _null_run_table()
    p2 = str(tmp_path / "small.parquet")
    write_par1(small.select(["s"]), p2, codec="snappy", encodings={"s": "dict"})
    cmd2 = read_par1_meta(p2)["row_groups"][0]["columns"][0]["meta_data"]
    assert _all_data_pages_dict(cmd2)


def test_read_par1_pruned_random_dnf_predicates(tmp_path):
    """Property check over the FULL predicate language: random DNF trees of
    >= > <= < == != in is_null not_null equal full-read-then-filter."""
    import pyarrow.compute as pc

    from parquet_go_ray.formats.par1 import _clause_mask, read_par1_pruned

    rng = np.random.default_rng(17)
    n = 6000
    raw_c = [f"g{int(x)}" for x in rng.integers(0, 40, n)]
    cm = rng.random(n) < 0.1
    t = pa.table(
        {
            "a": pa.array(rng.integers(0, 500, n), pa.int64()),
            "b": pa.array(rng.normal(0, 1, n), pa.float64()),
            "c": pa.array([None if m else x for x, m in zip(raw_c, cm)]),
        }
    )
    p = str(tmp_path / "dnfprop.parquet")
    write_par1(t, p, codec="zstd", row_group_rows=1500, page_rows=300,
               bloom=["a"], encodings={"c": "dict"})
    ops = [">=", ">", "<=", "<", "==", "!=", "in", "is_null", "not_null"]

    def rand_clause():
        col = ["a", "b", "c"][rng.integers(0, 3)]
        op = ops[rng.integers(0, len(ops))]
        if op in ("is_null", "not_null"):
            return (col, op, None)
        def one(col):
            if col == "a":
                return int(rng.integers(-10, 520))
            if col == "b":
                return float(rng.normal(0, 1))
            return f"g{int(rng.integers(0, 45))}"
        if op == "in":
            return (col, op, [one(col) for _ in range(int(rng.integers(1, 4)))])
        return (col, op, one(col))

    for trial in range(30):
        branches = [
            [rand_clause() for _ in range(int(rng.integers(1, 3)))]
            for _ in range(int(rng.integers(1, 4)))
        ]
        got, _st = read_par1_pruned(p, ["a", "b", "c"], branches)
        or_mask = None
        for br in branches:
            m = None
            for col, op, val in br:
                enc = (
                    [v.encode() if isinstance(v, str) else v for v in val]
                    if op == "in"
                    else (val.encode() if isinstance(val, str) else val)
                )
                cmk = _clause_mask(t[col], op, enc, t[col].type)
                if isinstance(cmk, pa.ChunkedArray):
                    cmk = cmk.combine_chunks()
                m = cmk if m is None else pc.and_kleene(m, cmk)
            or_mask = m if or_mask is None else pc.or_kleene(or_mask, m)
        exp = t.filter(or_mask)
        assert got.to_pydict() == exp.to_pydict(), (trial, branches)


def test_scan_par1_column_in_and_ne(tmp_path):
    from parquet_go_ray.formats.par1 import scan_par1_column

    t = _null_run_table()
    p = str(tmp_path / "scan.parquet")
    write_par1(t, p, codec="snappy", row_group_rows=4000, page_rows=1000)
    got, _ = scan_par1_column(p, "v", predicate=("in", [7, 999]))
    exp = t.filter(pa.compute.is_in(t["v"], value_set=pa.array([7, 999], pa.int32())))
    assert got["v"].to_pylist() == exp["v"].to_pylist()
    got2, _ = scan_par1_column(p, "s", predicate=("!=", "row5"))
    exp2 = t.filter(pa.compute.not_equal(t["s"], "row5"))
    assert got2["s"].to_pylist() == exp2["s"].to_pylist()


def test_stat_truncation_long_strings(tmp_path):
    """Multi-KB string values truncate to sound <=65-byte bounds in both
    chunk Statistics and ColumnIndex (parquet-mr columnIndexTruncateLength
    semantics); pruned reads stay exact and DuckDB still reads the file."""
    import duckdb

    from parquet_go_ray.formats.par1 import (
        _trunc_max_bytes,
        _trunc_min_bytes,
        read_par1_meta,
        read_par1_page_index,
        read_par1_pruned,
    )

    # unit: bounds are sound and short
    v = b"prefix-" + b"z" * 500
    assert _trunc_min_bytes(v) == v[:64] <= v
    mx = _trunc_max_bytes(v)
    assert len(mx) <= 64 and mx > v
    assert _trunc_max_bytes(b"\xff" * 100) == b"\xff" * 100  # can't round up
    utf8 = ("é" * 100).encode()  # non-ASCII prefix: kept exact
    assert _trunc_min_bytes(utf8) == utf8 and _trunc_max_bytes(utf8) == utf8

    rng = np.random.default_rng(3)
    n = 4000
    texts = [
        f"{chr(97 + (i // 500) % 8)}{i:06d}-" + "x" * int(rng.integers(100, 2000))
        for i in range(n)
    ]
    t = pa.table({"k": pa.array(np.arange(n, dtype=np.int64)), "text": pa.array(texts)})
    p = str(tmp_path / "longtext.parquet")
    write_par1(t, p, codec="zstd", row_group_rows=2000, page_rows=500)

    md = read_par1_meta(p)
    for rg in md["row_groups"]:
        st = rg["columns"][1]["meta_data"]["statistics"]
        assert len(st["min_value"]) <= 64 and len(st["max_value"]) <= 64
    idx = read_par1_page_index(p)
    for rg_idx in idx:
        ci = rg_idx[1]["column_index"]
        assert all(len(m) <= 64 for m in ci["min_values"])
        assert all(len(m) <= 64 for m in ci["max_values"])

    # pruning on the truncated column stays exact
    got, st = read_par1_pruned(p, ["k"], predicate=("text", ">=", "m"))
    exp = t.filter(pa.compute.greater_equal(t["text"], "m"))["k"].to_pylist()
    assert got["k"].to_pylist() == exp
    assert st["pages_decoded"] < st["pages_total"]

    con = duckdb.connect()
    assert con.execute(
        f"SELECT count(*) FROM read_parquet('{p}') WHERE text >= 'm'"
    ).fetchone()[0] == len(exp)
    con.close()


def test_write_par1_page_bytes(tmp_path):
    """page_bytes sizes pages per LEAF from its own value bytes: a fat text
    column splits into many more pages than a narrow int column, both
    round-trip exactly and DuckDB reads the file."""
    import duckdb

    from parquet_go_ray.formats.par1 import (
        read_par1,
        read_par1_page_index,
    )

    n = 20000
    t = pa.table(
        {
            "k": pa.array(np.arange(n, dtype=np.int64)),
            "text": pa.array(["x" * 400 + str(i) for i in range(n)]),
        }
    )
    p = str(tmp_path / "pb.parquet")
    write_par1(t, p, codec="none", page_bytes=64 << 10)
    idx = read_par1_page_index(p)
    pages_k = len(idx[0][0]["offset_index"]["page_locations"])
    pages_text = len(idx[0][1]["offset_index"]["page_locations"])
    assert pages_text > 4 * pages_k
    assert read_par1(p).to_pydict() == t.to_pydict()
    con = duckdb.connect()
    assert con.execute(
        f"SELECT count(*) FROM read_parquet('{p}')"
    ).fetchone()[0] == n
    con.close()


def test_legacy_lz4_hadoop_framing():
    """Deprecated COMP_LZ4 (codec 5): hadoop-framed, bare-raw-block, and
    LZ4-frame page bodies all decode (the three shapes found in old
    Spark/Impala archives; modern writers use LZ4_RAW = 7)."""
    from parquet_go_ray.formats.par1 import COMP_LZ4, _codec, _decompress

    rng = np.random.default_rng(9)
    payload = bytes(rng.integers(0, 64, 100_000, dtype=np.uint8)) * 3
    raw = _codec("lz4_raw")

    # hadoop framing: two blocks
    half = len(payload) // 2
    frames = b""
    for chunk in (payload[:half], payload[half:]):
        c = raw.compress(chunk, asbytes=True)
        frames += len(chunk).to_bytes(4, "big") + len(c).to_bytes(4, "big") + c
    assert _decompress(frames, COMP_LZ4, len(payload)) == payload

    # bare raw block
    c = raw.compress(payload, asbytes=True)
    assert _decompress(c, COMP_LZ4, len(payload)) == payload

    # LZ4 frame format
    f = _codec("lz4").compress(payload, asbytes=True)
    assert _decompress(f, COMP_LZ4, len(payload)) == payload


def test_write_par1_row_group_bytes(tmp_path):
    """row_group_bytes targets group size from the table's own bytes/row."""
    n = 50000
    t = pa.table(
        {
            "k": pa.array(np.arange(n, dtype=np.int64)),
            "s": pa.array(["pad" * 20 + str(i) for i in range(n)]),
        }
    )
    p = str(tmp_path / "rgb.parquet")
    write_par1(t, p, codec="none", row_group_bytes=512 << 10)
    md = read_par1_meta(p)
    n_rgs = len(md["row_groups"])
    assert 4 <= n_rgs <= 12  # ~3.6 MB table / 512 KB target
    sizes = [rg["total_byte_size"] for rg in md["row_groups"][:-1]]
    assert all(abs(sz - (512 << 10)) < (512 << 10) * 0.5 for sz in sizes)
    assert read_par1(p).to_pydict() == t.to_pydict()
    # explicit row_group_rows wins over row_group_bytes
    p2 = str(tmp_path / "rgb2.parquet")
    write_par1(t, p2, codec="none", row_group_rows=n, row_group_bytes=1 << 10)
    assert len(read_par1_meta(p2)["row_groups"]) == 1


# -- deprecated MSB BIT_PACKED level encoding (enum 4) ------------------------


def test_bitpacked_levels_spec_golden():
    """parquet-format Encodings.md worked example: values 0..7 at width 3
    pack MSB-first to 00000101 00111001 01110111."""
    import numpy as np

    from parquet_go_ray.codecs.rle import (
        decode_levels_bitpacked,
        encode_levels_bitpacked,
    )

    b = encode_levels_bitpacked(np.arange(8), 7)
    assert b == bytes([0b00000101, 0b00111001, 0b01110111])
    vals, pos = decode_levels_bitpacked(b, 7, 8)
    assert vals.tolist() == list(range(8)) and pos == 3
    # non-byte-aligned tail: 5 one-bit values -> 1 byte, MSB first
    b1 = encode_levels_bitpacked(np.array([1, 0, 1, 1, 0]), 1)
    assert b1 == bytes([0b10110000])
    v1, p1 = decode_levels_bitpacked(b1, 1, 5)
    assert v1.tolist() == [1, 0, 1, 1, 0] and p1 == 1


def test_bitpacked_levels_roundtrip_nested(tmp_path):
    """Multi-page file with rep AND def BIT_PACKED streams (nullable flat,
    nullable nested list) roundtrips bit-identically through the engine.
    The reference writes this encoding (encoding/encodingwrite.go:420-466)
    but cannot read it back (layout/page.go:669-671) — the engine does
    both."""
    t = pa.table(
        {
            "a": pa.array([None if i % 3 == 0 else i for i in range(997)], pa.int64()),
            "s": pa.array([None if i % 7 == 0 else f"s{i}" for i in range(997)]),
            "l": pa.array(
                [
                    None if i % 5 == 0 else [i, None, i + 1][: 1 + i % 3]
                    for i in range(997)
                ],
                pa.list_(pa.int64()),
            ),
        }
    )
    p = str(tmp_path / "bp.parquet")
    write_par1(
        t, p, codec="zstd", page_rows=128, level_encoding="bit_packed",
        encodings={"a": "plain", "s": "plain", "l": "plain"},
    )
    assert read_par1(p).equals(t)
    md = read_par1_meta(p)
    from parquet_go_ray.formats.parquet_meta import ENC_BIT_PACKED

    for ch in md["row_groups"][0]["columns"]:
        assert ENC_BIT_PACKED in ch["meta_data"]["encodings"]


def test_bitpacked_levels_v2_rejected(tmp_path):
    t = pa.table({"a": pa.array([1, None], pa.int64())})
    with pytest.raises(ValueError, match="v1-only"):
        write_par1(
            t, str(tmp_path / "x.parquet"), data_page_version=2,
            level_encoding="bit_packed",
        )


def test_bitpacked_arrow_dialect_divergence(tmp_path):
    """Documents the interop reality that makes BIT_PACKED deprecated:
    Arrow C++ decodes these levels LSB-first (opposite the spec's MSB
    definition), so pyarrow either misplaces nulls or fails structurally
    on an MSB (spec/parquet-mr/reference-lineage) file; the engine's own
    read is exact.  If a future Arrow release turns MSB-faithful, the
    second assert flips and this pin should be dropped."""
    import pyarrow.parquet as pq

    t = pa.table({"a": pa.array([1, None, 3, None, 5] * 20, pa.int64())})
    p = str(tmp_path / "bp_flat.parquet")
    write_par1(t, p, page_rows=1000, level_encoding="bit_packed",
               encodings={"a": "plain"})
    assert read_par1(p).equals(t)
    try:
        assert not pq.read_table(p).equals(t)
    except pa.ArrowInvalid:
        pass  # structural failure is the other observed Arrow outcome


def test_delta_bp_int32_full_range_wraps_at_32_bits(tmp_path):
    # INT32 deltas wrap at 32 bits (spec): full-range values keep miniblock
    # widths <= 32, which pyarrow requires of an INT32 column
    v = np.random.default_rng(7).integers(-(2**31), 2**31, 1000).astype(np.int32)
    path = str(tmp_path / "i32.parquet")
    write_par1(pa.table({"i": v}), path, encodings={"i": "delta_bp"})
    assert pq.read_table(path)["i"].to_pylist() == v.tolist()
    assert read_par1(path)["i"].to_pylist() == v.tolist()


def test_pruned_reads_parse_the_footer_once(tmp_path, monkeypatch):
    """read_par1_pruned parses the footer once, the OffsetIndex of the
    columns it reads and the ColumnIndex of the predicate columns only, and
    scan_par1_column is one read_par1_pruned call."""
    from collections import Counter

    from parquet_go_ray.formats import par1

    p = str(tmp_path / "once.parquet")
    tbl = pa.table({"a": pa.array(np.arange(5000)), "s": pa.array([f"v{i % 50}" for i in range(5000)])})
    write_par1(tbl, p, page_rows=500)
    parses = Counter()

    class Counting(CompactReader):
        def read_struct(self, spec_name, pos=0):
            parses[spec_name] += 1
            return super().read_struct(spec_name, pos)

    def counts():
        got = {k: parses[k] for k in ("FileMetaData", "OffsetIndex", "ColumnIndex")}
        parses.clear()
        return got

    monkeypatch.setattr(par1, "CompactReader", Counting)
    got, st = par1.read_par1_pruned(p, None, ("a", ">=", 4200))
    assert got.num_rows == 800 and st["pages_decoded"] == 4
    assert counts() == {"FileMetaData": 1, "OffsetIndex": 2, "ColumnIndex": 1}
    got, st = par1.scan_par1_column(p, "a", (">=", 4200))
    assert got.num_rows == 800
    assert st == {"pages_total": 10, "pages_decoded": 2}
    assert counts() == {"FileMetaData": 1, "OffsetIndex": 1, "ColumnIndex": 1}
    got, st = par1.read_par1_pruned(p)
    assert got.equals(tbl) and st["pages_decoded"] == st["pages_total"] == 20
    assert counts() == {"FileMetaData": 1, "OffsetIndex": 2, "ColumnIndex": 0}


@pytest.mark.parametrize("page_size", [512, 8 << 10, 1 << 20])
def test_read_pyarrow_delta_and_dictionary_columns(tmp_path, page_size):
    """pyarrow-written DELTA_BINARY_PACKED int32/int64 and RLE_DICTIONARY
    columns, with nulls: pyarrow picks its own miniblock widths and run
    layout, and read_par1 / read_par1_pruned must equal pq.read_table."""
    import pyarrow.compute as pc

    from parquet_go_ray.formats.par1 import read_par1_pruned

    n = 20000
    rng = np.random.default_rng(31)
    null = rng.random(n) < 0.1
    k = np.sort(rng.integers(0, 5000, n))
    t = pa.table(
        {
            "k": pa.array(k, pa.int64()),
            "i32": pa.array(rng.integers(-(1 << 31), 1 << 31, n), pa.int32(), mask=null),
            "i32_small": pa.array(rng.integers(-3, 40, n), pa.int32()),
            "i64": pa.array(rng.integers(-(1 << 62), 1 << 62, n) >> rng.integers(0, 62, n), pa.int64(), mask=null),
            "flag": pa.array(np.array(["A", "N", "R"])[rng.integers(0, 3, n)], mask=rng.random(n) < 0.05),
            "status": pa.array(np.array(["F", "O"])[(np.arange(n) // rng.integers(1, 400)) % 2]),
            "code": pa.array(rng.integers(0, 300, n), pa.int64(), mask=null),
        }
    )
    path = str(tmp_path / "delta_dict.parquet")
    pq.write_table(
        t, path, data_page_size=page_size, write_page_index=True, row_group_size=8000,
        use_dictionary=["flag", "status", "code"],
        column_encoding={c: "DELTA_BINARY_PACKED" for c in ("k", "i32", "i32_small", "i64")},
    )
    md = pq.ParquetFile(path).metadata
    encs = {md.schema.column(c).name: md.row_group(0).column(c).encodings for c in range(md.num_columns)}
    assert "DELTA_BINARY_PACKED" in encs["i64"] and "RLE_DICTIONARY" in encs["code"]
    want = pq.read_table(path)
    assert read_par1(path).equals(want)
    assert read_par1_pruned(path)[0].equals(want)
    got, st = read_par1_pruned(path, None, ("k", ">=", 4000))
    assert got.equals(want.filter(pc.greater_equal(want["k"], 4000)))
    if page_size < (1 << 20):
        assert st["pages_decoded"] < st["pages_total"]


@pytest.mark.parametrize("unit", ["s", "ms", "us", "ns"])
@pytest.mark.parametrize("tz", [None, "UTC", "Asia/Kolkata"])
def test_write_par1_timestamp_units(tmp_path, unit, tz):
    """Every timestamp unit keeps its instants: seconds are stored as
    MILLIS (as pyarrow stores them), ns as the NANOS logical type, and both
    readers return the input in the stored unit (tz-aware columns as UTC)."""
    from parquet_go_ray.formats.par1 import read_par1_pruned

    raw = [0, 1, -5, 1_700_000_000, None, 2**40 + 3]
    col = pa.array(raw, pa.timestamp(unit, tz))
    t = pa.table({"t": col, "k": pa.array(range(len(raw)), pa.int64())})
    path = str(tmp_path / f"ts_{unit}.parquet")
    write_par1(t, path)
    stored = pa.timestamp("ms" if unit == "s" else unit, "UTC" if tz else None)
    want = pa.table({"t": col.cast(stored), "k": t["k"]})
    assert pq.read_table(path).equals(want)
    assert read_par1(path).equals(want)
    got, _ = read_par1_pruned(path, None, ("t", ">=", want["t"][3].as_py()))
    assert got.column("k").to_pylist() == [3, 5]


def test_write_par1_dataset_ns_frame_roundtrip(ray_session, tmp_path):
    """A pandas frame (datetime64[ns], naive and tz-aware) through
    write_par1_dataset reads back with its nanoseconds intact."""
    import pandas as pd
    import ray.data as rd

    from parquet_go_ray.pipelines.native_io import read_par1_dataset, write_par1_dataset

    ts = pd.to_datetime([1_700_000_000_123_456_789 + i * 1_001 for i in range(500)], unit="ns")
    frame = pd.DataFrame({"k": np.arange(500), "t": ts, "tz": ts.tz_localize("UTC")})
    out = str(tmp_path / "ns")
    write_par1_dataset(rd.from_pandas(frame), out).materialize()
    back = read_par1_dataset(out).to_pandas().sort_values("k").reset_index(drop=True)
    assert (back["t"] == frame["t"]).all() and (back["tz"] == frame["tz"]).all()
    assert back["t"].dt.nanosecond.tolist() == frame["t"].dt.nanosecond.tolist()
