"""Storage pluggability (source/source.go:9-16 analog): reads accept URIs,
partition checkpoints work on non-local (marker-last) backends."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from tests.conftest import SF_DIR


def test_read_parquet_any_file_uri(ray_session):
    from parquet_go_ray.sources.io import read_parquet_any

    ds = read_parquet_any(f"file://{SF_DIR}/documents.parquet", columns=["doc_id"])
    assert ds.count() == 500


def test_pipeline_over_file_uri(ray_session):
    from parquet_go_ray.pipelines.textstats import token_count

    out = token_count(f"file://{SF_DIR}").to_pandas()
    assert len(out) == 500


def test_lineage_memory_fs():
    """memory:// has no rename: the marker-last protocol must still give
    exactly-once partition completion semantics."""
    import fsspec

    from parquet_go_ray.state import lineage as lin

    fs = fsspec.filesystem("memory")
    root = "memory://pgr_test_out"
    if fs.exists("/pgr_test_out"):
        fs.rm("/pgr_test_out", recursive=True)
    tbl = pa.table({"a": pa.array([1, 2, 3], pa.int64())})
    rec = {"rows": 3, "raw_bytes": 24, "enc_bytes": 10, "ref_bytes": 12}
    assert lin.done_parts(root) == set()
    lin.write_partition(root, 7, tbl, rec)
    assert lin.is_done(root, 7)
    assert lin.done_parts(root) == {7}
    # idempotent retry keeps the first write
    lin.write_partition(root, 7, tbl, dict(rec, rows=999))
    assert lin.read_lineage(root, 7)["rows"] == 3
    man = lin.collect_manifest(root)
    assert man["partitions"] == 1 and man["rows"] == 3
    lin.write_manifest(root, man)
    assert fs.exists("/pgr_test_out/_manifest.json")


def test_resolve_filesystem_local_passthrough():
    from parquet_go_ray.sources.io import resolve_filesystem

    fs, p = resolve_filesystem("/tmp/x.parquet")
    assert fs is None and p == "/tmp/x.parquet"
    fs, p = resolve_filesystem("file:///tmp/x.parquet")
    assert fs is None and p == "/tmp/x.parquet"
    fs, p = resolve_filesystem("memory://bucket/key.parquet")
    assert fs is not None


def test_lineage_file_uri_normalizes(tmp_path):
    import os

    import pyarrow as pa

    from parquet_go_ray.state import lineage as L

    uri = f"file://{tmp_path}/ckpt"
    t = pa.table({"x": pa.array([1, 2], pa.int64())})
    L.write_partition(uri, 3, t, {"rows": 2})
    # the checkpoint must land at the REAL local path, not ./file:/...
    assert os.path.exists(tmp_path / "ckpt" / "part=00003" / "lineage.json")
    assert L.is_done(uri, 3) and L.is_done(str(tmp_path / "ckpt"), 3)
    assert L.done_parts(uri) == {3}
    assert L.read_lineage(uri, 3)["rows"] == 2
    # the run-level files resolve the same way
    L.write_plan(uri, {"num_parts": 4})
    assert os.path.exists(tmp_path / "ckpt" / "_plan.json")
    assert L.read_plan(uri) == L.read_plan(str(tmp_path / "ckpt")) == {"num_parts": 4}
    L.write_manifest(uri, {"partitions": 1})
    assert os.path.exists(tmp_path / "ckpt" / "_manifest.json")
    assert not list((tmp_path / "ckpt").glob("**/*.tmp*"))


def test_multi_uri_read_same_filesystem(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from parquet_go_ray.sources.io import read_parquet_any

    for n in ("a", "b"):
        pq.write_table(pa.table({"x": pa.array([1], pa.int64())}), tmp_path / f"{n}.parquet")
    uris = [f"file://{tmp_path}/a.parquet", f"file://{tmp_path}/b.parquet"]
    assert read_parquet_any(uris).count() == 2


# -- mocks3://: S3-semantics stand-in (no rename, PUT-on-close, no dirs) ----
# Backed by local disk so Ray WORKER processes see the same keys the driver
# wrote — memory:// can't cross a process boundary, which is why the dataset
# paths were never integration-tested before this.


@pytest.fixture()
def mocks3_bucket():
    import shutil
    import uuid

    import fsspec

    bucket = f"itest-{uuid.uuid4().hex[:8]}"
    yield f"mocks3://{bucket}"
    fs = fsspec.filesystem("mocks3")
    shutil.rmtree(f"{fs.root}/{bucket}", ignore_errors=True)


def test_mocks3_put_on_close_and_no_rename():
    import fsspec

    fs = fsspec.filesystem("mocks3")
    f = fs.open("sem-test/k.bin", "wb")
    f.write(b"abc")
    assert not fs.exists("sem-test/k.bin"), "key visible before close"
    f.close()
    assert fs.exists("sem-test/k.bin") and fs.size("sem-test/k.bin") == 3
    with pytest.raises(NotImplementedError):
        fs.mv("sem-test/k.bin", "sem-test/k2.bin")
    fs.rm_file("sem-test/k.bin")


def test_par1_dataset_roundtrip_mocks3(ray_session, mocks3_bucket):
    """write_par1_dataset -> listing -> manifest -> pruned read -> resume-skip
    -> compact -> validate, all through the no-rename object-store path."""
    import ray.data as rd

    from parquet_go_ray.formats.par1 import read_par1
    from parquet_go_ray.pipelines.native_io import (
        build_par1_manifest,
        compact_par1_dataset,
        explain_par1_scan,
        read_par1_dataset,
        validate_par1_dataset,
        write_par1_dataset,
    )

    out = f"{mocks3_bucket}/ds1"
    src = rd.range(2000).map_batches(
        lambda b: pa.table(
            {"k": b["id"], "grp": pa.array((b["id"].to_numpy() % 4).astype("int64"))}
        ),
        batch_format="pyarrow",
    ).repartition(4)

    man1 = write_par1_dataset(src, out, codec="zstd", sort_by="k").to_pandas()
    assert len(man1) == 4 and not man1["skipped"].any()
    assert man1["path"].str.startswith("mocks3://").all()

    # resume: identical rerun converges on the same content-named keys
    man2 = write_par1_dataset(src, out, codec="zstd", sort_by="k").to_pandas()
    assert man2["skipped"].all()
    assert sorted(man2["path"]) == sorted(man1["path"])

    # manifest build + manifest-level file pruning through the remote path
    mpath = build_par1_manifest(out)
    assert mpath.startswith("mocks3://")
    assert read_par1(mpath).num_rows == 4
    plan = explain_par1_scan(out, predicate=("k", "<", 500))
    assert plan["files_total"] == 4
    assert plan["files_after_manifest"] < 4  # sorted by k: manifest prunes files
    assert plan["rows_out"] == 500

    got = read_par1_dataset(out, columns=["k"], predicate=("k", "<", 500)).to_pandas()
    assert sorted(got["k"]) == list(range(500))

    # compaction: many small parts -> one file per bucket, still remote
    cout = f"{mocks3_bucket}/ds1_compact"
    cman = compact_par1_dataset(out, cout, target_bytes=1 << 30).to_pandas()
    assert len(cman) == 1 and cman["rows"].sum() == 2000
    assert read_par1_dataset(cout).count() == 2000

    # fsck sweep over the object store
    v = validate_par1_dataset(out).to_pandas()
    assert v["ok"].all(), v[~v["ok"]]["error"].tolist()


def test_par1_dataset_partitioned_mocks3(ray_session, mocks3_bucket):
    """Hive-partitioned layout on an object store: partition 'directories'
    are pure key prefixes; directory pruning still works."""
    import ray.data as rd

    from parquet_go_ray.pipelines.native_io import (
        read_par1_dataset,
        write_par1_dataset,
    )

    out = f"{mocks3_bucket}/part_ds"
    src = rd.range(400).map_batches(
        lambda b: pa.table(
            {"k": b["id"], "grp": pa.array((b["id"].to_numpy() % 2).astype("int64"))}
        ),
        batch_format="pyarrow",
    ).repartition(2)
    man = write_par1_dataset(src, out, partition_by="grp").to_pandas()
    assert set(man["partition"]) == {"grp=0", "grp=1"}
    got = read_par1_dataset(out, partitions={"grp": 1}).to_pandas()
    assert len(got) == 200 and (got["grp"] == 1).all()


def test_write_part_rewrites_truncated_remote_object(mocks3_bucket):
    """Crash-safety on object stores: a part truncated by a killed worker
    (partial PUT at the final content-named key) must NOT be skip-trusted on
    resume — _write_part validates the PAR1 footer magic and rewrites."""
    import fsspec

    from parquet_go_ray.pipelines.native_io import _fs_of, _write_part

    batch = pa.table({"x": pa.array(range(100), pa.int64())})
    part_dir = f"{mocks3_bucket}/data"
    r1 = _write_part(batch, part_dir, "", {})
    assert not r1["skipped"]
    fs, plain, _ = _fs_of(r1["path"])
    key = plain
    # simulate a hard kill mid-PUT: truncate the published object
    good = fs.open(key, "rb").read()
    with fs.open(key, "wb") as f:
        f.write(good[: len(good) // 2])
    assert fs.size(key) != len(good)
    r2 = _write_part(batch, part_dir, "", {})
    assert not r2["skipped"], "truncated object must be rewritten, not skipped"
    assert fs.open(key, "rb").read() == good
    # intact object IS skipped (exactly-once resume path unchanged)
    r3 = _write_part(batch, part_dir, "", {})
    assert r3["skipped"]


def test_write_part_cleans_partial_on_write_error(mocks3_bucket, monkeypatch):
    """A write_par1 that raises mid-stream must not leave a partial object
    at the final key (fsspec buffered files still PUT on close during
    exception unwind)."""
    import parquet_go_ray.pipelines.native_io as nio

    batch = pa.table({"x": pa.array(range(10), pa.int64())})
    part_dir = f"{mocks3_bucket}/data2"

    def boom(tbl, path, **kw):
        from parquet_go_ray.uri import open_any

        with open_any(path, "wb") as f:
            f.write(b"PARTIAL")
            raise RuntimeError("injected mid-write failure")

    monkeypatch.setattr(nio, "write_par1", boom)
    with pytest.raises(RuntimeError):
        nio._write_part(batch, part_dir, "", {})
    monkeypatch.undo()
    fs, plain, _ = nio._fs_of(part_dir)
    leftovers = [p for p in fs.ls(plain)] if fs.exists(plain) else []
    assert not leftovers, f"partial object survived the failed write: {leftovers}"
    # and a clean retry succeeds
    r = nio._write_part(batch, part_dir, "", {})
    assert not r["skipped"]


def _pandas_dir(tmp_path, files=3):
    """Parquet files written by pandas: each schema carries the pandas
    metadata blob."""
    import pandas as pd

    d = tmp_path / "pandas"
    d.mkdir()
    for i in range(files):
        frame = pd.DataFrame({"k": range(10 * i, 10 * i + 10), "s": [f"v{j}" for j in range(10)]})
        frame.to_parquet(d / f"part{i}.parquet")
    assert pq.read_schema(d / "part0.parquet").metadata
    return d


def _read_blocks(ds):
    import ray

    mat = ds.materialize()
    return ray.get(mat.to_arrow_refs()), mat.stats()


@pytest.mark.parametrize("how", ["directory", "path_list", "columns"])
def test_read_parquet_any_blocks_are_metadata_free(ray_session, tmp_path, how):
    """The read is handed a metadata-free schema, so its own tasks build
    clean blocks and no strip map follows it."""
    from parquet_go_ray.sources.io import read_parquet_any

    d = _pandas_dir(tmp_path)
    if how == "directory":
        ds = read_parquet_any(str(d))
    elif how == "path_list":
        ds = read_parquet_any(sorted(str(p) for p in d.iterdir()))
    else:
        ds = read_parquet_any(str(d), columns=["k"])
    blocks, stats = _read_blocks(ds)
    assert sum(b.num_rows for b in blocks) == 30
    assert all(not b.schema.metadata for b in blocks)
    assert all(b.column_names == (["k"] if how == "columns" else ["k", "s"]) for b in blocks)
    assert "_strip_schema_metadata" not in stats


def test_read_parquet_any_strips_a_caller_schema_with_metadata(ray_session, tmp_path):
    from parquet_go_ray.sources.io import read_parquet_any

    d = _pandas_dir(tmp_path)
    schema = pq.read_schema(d / "part0.parquet")
    blocks, stats = _read_blocks(read_parquet_any(str(d), schema=schema))
    assert sum(b.num_rows for b in blocks) == 30
    assert all(not b.schema.metadata for b in blocks)
    assert "MapBatches(_strip_schema_metadata)" in stats


def test_encode_decode_roundtrip_mocks3(ray_session, mocks3_bucket):
    """encode_partitioned into an object store, then decode_partitions'
    slot tasks read the chunk tables back through the URI: every chunk
    decodes to its sha256.  The read's block bound is set on the dataset it
    returns only, never on the global context or a caller's dataset."""
    import ray.data as rd

    from parquet_go_ray.config import EngineConfig
    from parquet_go_ray.pipelines.encode_pipeline import decode_partitions, encode_partitioned
    from parquet_go_ray.sources.synth import make_code_table
    from parquet_go_ray.stages.encode import ChunkDecoder

    t = make_code_table(300, seed=8)
    out = f"{mocks3_bucket}/enc"
    caller = rd.from_arrow(t)
    caller_before = caller.context.target_max_block_size
    global_before = rd.DataContext.get_current().target_max_block_size
    m = encode_partitioned(caller, out, EngineConfig(batch_size_rows=128), num_parts=3).to_pandas()
    assert len(m) == 3 and m["rows"].sum() == 300
    ds = decode_partitions(out)
    assert ds.context.target_max_block_size is None
    assert caller.context.target_max_block_size == caller_before
    assert rd.DataContext.get_current().target_max_block_size == global_before
    got = ds.map_batches(ChunkDecoder(recompute_sha=True), batch_format="pyarrow").to_pandas()
    assert len(got) == m["chunks"].sum() * len(t.column_names)
    assert got["ok"].all()


@pytest.mark.parametrize("backend", ["local", "mocks3"])
def test_done_parts_is_one_listing(backend, mocks3_bucket, tmp_path, monkeypatch):
    """done_parts globs the markers once: no existence check per part, on a
    local root or an object store.  A part without its marker, or with only
    a staged marker, is not done."""
    from parquet_go_ray import uri
    from parquet_go_ray.state import lineage as lin

    root = str(tmp_path / "ckpt") if backend == "local" else f"{mocks3_bucket}/ckpt"
    tbl = pa.table({"a": pa.array([1, 2], pa.int64())})
    for part in (3, 11, 40):
        lin.write_partition(root, part, tbl, {"rows": 2})

    def put(path: str) -> None:
        def write(target):
            with uri.open_any(target, "wb") as f:
                f.write(b"{}")

        uri.publish(path, write)

    put(lin.part_dir(root, 7) + "/chunks.parquet")  # no marker
    put(lin.part_dir(root, 9) + "/lineage.json.tmp.0123abcd")  # staged only
    calls = []
    real = uri.exists
    monkeypatch.setattr(uri, "exists", lambda p: calls.append(p) or real(p))
    assert lin.done_parts(root) == {3, 11, 40}
    assert calls == []
