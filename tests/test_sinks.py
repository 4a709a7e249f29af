"""Fault injection over every sink that publishes through `uri.publish`.

Each case runs a sink once cleanly, then again with the N-th file opened for
writing through `uri.open_any` failing part-way through its first write, for
every N the clean run reaches, on a local directory and on `mocks3://` (no
rename, PUT-on-close).  After each failure:

- the injected error propagates;
- every file present holds either its clean-run bytes or the bytes it had
  before the sink ran (a manifest is absent or the previous complete one);
- no ``*.tmp.*`` staging file is left behind;
- a rerun without injection leaves exactly the clean run's files, byte for
  byte.
"""

import json
import os
import shutil
import uuid

import numpy as np
import pyarrow as pa
import pytest

from parquet_go_ray import uri
from parquet_go_ray.state import lineage as lin


class _Injected(Exception):
    pass


class _TornFile:
    """Writes part of the first chunk it is given, then raises."""

    def __init__(self, f):
        self._f = f

    def write(self, data):
        self._f.write(data[: max(1, len(data) // 2)])
        raise _Injected("injected failure mid-write")

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


def _patch_writes(monkeypatch, fail_at: int | None) -> list:
    """Count opens for writing through `uri.open_any`; the `fail_at`-th one
    (1-based) is torn.  Returns the running count."""
    real = uri.open_any
    count = [0]

    def open_any(path, mode):
        f = real(path, mode)
        if "w" not in mode:
            return f
        count[0] += 1
        return _TornFile(f) if count[0] == fail_at else f

    monkeypatch.setattr(uri, "open_any", open_any)
    return count


def _backing(root: str) -> str:
    """The local directory holding `root`'s files (mocks3 keys live on disk)."""
    fs, plain, _ = uri.split_uri(root)
    return plain if fs is None else fs._backing(plain)


def _snapshot(root: str) -> dict[str, bytes]:
    base = _backing(root)
    out = {}
    for d, _, files in os.walk(base):
        for name in files:
            p = os.path.join(d, name)
            with open(p, "rb") as f:
                out[os.path.relpath(p, base)] = f.read()
    return out


def _restore(root: str, state: dict[str, bytes]) -> None:
    base = _backing(root)
    for rel in set(_snapshot(root)) - set(state):
        os.unlink(os.path.join(base, rel))
    for rel, data in state.items():
        os.makedirs(os.path.dirname(os.path.join(base, rel)), exist_ok=True)
        with open(os.path.join(base, rel), "wb") as f:
            f.write(data)


def _run_faults(monkeypatch, root: str, setup, op) -> int:
    """Drive `op` through every injected failure point; returns how many
    writes the clean run made."""
    setup(root)
    before = _snapshot(root)
    with monkeypatch.context() as m:
        count = _patch_writes(m, None)
        op(root)
        n_writes = count[0]
    clean = _snapshot(root)
    assert n_writes >= 1 and clean != before
    for n in range(1, n_writes + 1):
        _restore(root, before)
        with monkeypatch.context() as m:
            _patch_writes(m, n)
            with pytest.raises(_Injected):
                op(root)
        after = _snapshot(root)
        for rel, data in after.items():
            assert ".tmp." not in os.path.basename(rel), f"write {n}: staging left: {rel}"
            assert data in (clean.get(rel), before.get(rel)), (
                f"write {n}: partial object visible at {rel}"
            )
        op(root)
        assert _snapshot(root) == clean, f"write {n}: rerun differs from clean run"
    return n_writes


@pytest.fixture(params=["local", "mocks3"])
def root(request, tmp_path):
    if request.param == "local":
        yield str(tmp_path / "out")
        return
    import fsspec

    bucket = f"sinks-{uuid.uuid4().hex[:8]}"
    yield f"mocks3://{bucket}/out"
    shutil.rmtree(os.path.join(fsspec.filesystem("mocks3").root, bucket), ignore_errors=True)


def _chunks() -> pa.Table:
    return pa.table(
        {
            "column": pa.array(["a", "b", "c"]),
            "blob": pa.array([b"x" * 300, b"y" * 200, b"z" * 100], pa.binary()),
        }
    )


def _rec(rows: int) -> dict:
    return {"rows": rows, "raw_bytes": 8 * rows, "enc_bytes": rows, "ref_bytes": rows}


def _parts(n: int, seed: int) -> list[pa.Table]:
    rng = np.random.default_rng(seed)
    return [
        pa.table({"k": pa.array(np.sort(rng.integers(0, 10**6, 500)), pa.int64())})
        for _ in range(n)
    ]


def test_write_partition_faults(monkeypatch, root):
    def setup(r):
        lin.write_partition(r, 1, _chunks(), _rec(3))

    def op(r):
        lin.write_partition(r, 7, _chunks(), _rec(3))

    assert _run_faults(monkeypatch, root, setup, op) == 2
    assert lin.done_parts(root) == {1, 7}
    assert lin.read_lineage(root, 7) == _rec(3)


def test_write_plan_faults(monkeypatch, root):
    n = _run_faults(
        monkeypatch, root,
        lambda r: lin.write_plan(r, {"num_parts": 4}),
        lambda r: lin.write_plan(r, {"num_parts": 8}),
    )
    assert n == 1 and lin.read_plan(root) == {"num_parts": 8}


def test_write_manifest_faults(monkeypatch, root):
    def setup(r):
        lin.write_partition(r, 1, _chunks(), _rec(3))
        lin.write_manifest(r, lin.collect_manifest(r))
        lin.write_partition(r, 2, _chunks(), _rec(5))

    def op(r):
        lin.write_manifest(r, lin.collect_manifest(r))

    assert _run_faults(monkeypatch, root, setup, op) == 1
    with uri.open_any(root + "/_manifest.json", "r") as f:
        assert json.load(f)["rows"] == 8


def test_write_part_faults(monkeypatch, root):
    from parquet_go_ray.pipelines import native_io

    a, b = _parts(2, seed=1)
    results = []

    def setup(r):
        native_io._write_part(a, r + "/data", "", {})

    def op(r):
        results.append(native_io._write_part(b, r + "/data", "", {"codec": "zstd"}))

    assert _run_faults(monkeypatch, root, setup, op) == 1
    assert not results[-1]["skipped"] and results[-1]["rows"] == 500
    assert native_io._write_part(b, root + "/data", "", {"codec": "zstd"})["skipped"]


def test_build_par1_manifest_faults(ray_session, monkeypatch, root):
    from parquet_go_ray.formats.par1 import read_par1
    from parquet_go_ray.pipelines import native_io

    parts = _parts(3, seed=2)

    def setup(r):
        for t in parts[:2]:
            native_io._write_part(t, r + "/ds", "", {})
        native_io.build_par1_manifest(r + "/ds")  # the previous manifest
        native_io._write_part(parts[2], r + "/ds", "", {})

    def op(r):
        native_io.build_par1_manifest(r + "/ds")

    assert _run_faults(monkeypatch, root, setup, op) == 1
    man = read_par1(root + "/ds/" + native_io.MANIFEST_NAME)
    assert man.num_rows == 3 and sum(man["rows"].to_pylist()) == 1500
    v = native_io.validate_par1_dataset(root + "/ds").to_pandas()
    assert v["ok"].all(), v[~v["ok"]]["error"].tolist()


def test_table_commit_faults(monkeypatch, tmp_path):
    from parquet_go_ray.pipelines import table

    def build(parent):
        return {"manifests": [], "deletes": [], "summary": {"rows": 0}}

    def setup(r):
        table._commit(r, "create", build)

    def op(r):
        assert table._commit(r, "append", build) == 2

    assert _run_faults(monkeypatch, str(tmp_path / "tbl"), setup, op) == 1
    assert table.table_versions(str(tmp_path / "tbl")) == [1, 2]


# -- sinks whose writes run in Ray tasks --------------------------------------


class _Inline:
    """The slice of `ray.data.Dataset` these sinks use, run eagerly in this
    process: the patched `uri.open_any` would not reach a Ray worker, and
    the write order (the N to tear) must be fixed.  Its blocks go to the
    object store only as the refs `iter_internal_ref_bundles` hands out."""

    def __init__(self, blocks: list[pa.Table]):
        import types

        self.blocks = blocks
        # block_source sets the order flag for its materialize
        self.context = types.SimpleNamespace(execution_options=types.SimpleNamespace(preserve_order=False))

    def map_batches(self, fn, **_kw):
        out = []
        for b in self.blocks:
            r = fn(b)
            out += [r] if isinstance(r, pa.Table) else list(r)
        return _Inline(out)

    def materialize(self):
        return self

    def iter_internal_ref_bundles(self):
        import types

        import ray

        yield types.SimpleNamespace(
            blocks=[
                (ray.put(b), types.SimpleNamespace(num_rows=b.num_rows, size_bytes=b.nbytes)) for b in self.blocks
            ]
        )


@pytest.fixture()
def inline_tasks(monkeypatch):
    """`_fan_out` as two in-process tasks, the items split as two CPU slots
    would pack them."""
    from parquet_go_ray.pipelines import native_io

    def fan_out(items, sizes, task_cpus=1):
        h = (len(items) + 1) // 2
        return _Inline([pa.Table.from_pylist(t) for t in (items[:h], items[h:]) if t])

    monkeypatch.setattr(native_io, "_fan_out", fan_out)


def test_compact_par1_dataset_faults(monkeypatch, root, inline_tasks):
    from parquet_go_ray.pipelines import native_io

    def setup(r):
        for i, t in enumerate(_parts(5, seed=3)):
            native_io._write_part(t, f"{r}/in/p={i % 2}", f"p={i % 2}", {})

    def op(r):
        native_io.compact_par1_dataset(
            r + "/in", r + "/out", target_bytes=2500, sort_by="k", codec="zstd"
        ).materialize()

    # parts of ~1.1 kB, two per bin: p=0 (3 parts) packs 2 bins, p=1 one
    assert _run_faults(monkeypatch, root, setup, op) == 3
    from parquet_go_ray.formats.par1 import read_par1

    outs = sorted(native_io._ls_parquet(root + "/out"))
    assert len(outs) == 3 and sum(read_par1(p).num_rows for p in outs) == 5 * 500


def test_write_par1_dataset_faults(ray_session, monkeypatch, root, inline_tasks):
    """A sink torn after k of its parts resumes through the packed tasks
    into the clean run's directory, byte for byte, skipping those k."""
    from parquet_go_ray.pipelines import native_io

    blocks = _parts(4, seed=4)
    results = []

    def op(r):
        results.append(
            native_io.write_par1_dataset(
                _Inline(blocks), r + "/ds", sort_by="k", codec="zstd"
            ).blocks
        )

    assert _run_faults(monkeypatch, root, lambda r: None, op) == 4  # one part per block
    mans = [pa.concat_tables(m) for m in results]
    assert all(m.num_rows == 4 and sum(m["rows"].to_pylist()) == 4 * 500 for m in mans)
    # results[n] resumed the run torn at its n-th part: n - 1 parts were done
    assert [sum(m["skipped"].to_pylist()) for m in mans] == [0, 0, 1, 2, 3]


def test_write_par1_dataset_parquet_read_faults(ray_session, monkeypatch, root, inline_tasks):
    """The sink over an untransformed Parquet read (each task reads its own
    files; a URI input resolves its filesystem in the task) resumes from
    every torn part into the clean run's directory, byte for byte."""
    import pyarrow.parquet as pq

    from parquet_go_ray.pipelines import native_io
    from parquet_go_ray.sources.io import parquet_source, read_parquet_any, resolve_filesystem

    blocks = _parts(4, seed=5)
    results = []

    def setup(r):
        for i, t in enumerate(blocks):
            fs, plain = resolve_filesystem(f"{r}/in/part_{i}.parquet")
            if fs is None:
                os.makedirs(os.path.dirname(plain), exist_ok=True)
            pq.write_table(t, plain, filesystem=fs)

    def op(r):
        ds = read_parquet_any(r + "/in")
        assert parquet_source(ds) is not None
        results.append(native_io.write_par1_dataset(ds, r + "/ds", sort_by="k", codec="zstd").blocks)

    assert _run_faults(monkeypatch, root, setup, op) == 4  # one part per file
    mans = [pa.concat_tables(m) for m in results]
    assert all(m.num_rows == 4 and sum(m["rows"].to_pylist()) == 4 * 500 for m in mans)
    assert [sum(m["skipped"].to_pylist()) for m in mans] == [0, 0, 1, 2, 3]


def test_driver_query_sink_faults(ray_session, monkeypatch, root, sf_dir, inline_tasks):
    import pyarrow.parquet as pq

    from parquet_go_ray.pipelines import native_io

    def read_parquet(path, columns=None):
        t = pq.read_table(path, columns=columns)
        half = t.num_rows // 2
        return _Inline([t.slice(0, half), t.slice(half)])

    monkeypatch.setattr(native_io, "_read_parquet_any", read_parquet)
    monkeypatch.setattr(native_io, "_scratch", lambda kind: f"{root}/{kind}")
    results = []

    def op(r):
        results.append(native_io.scan_native_pruned(sf_dir, lo=100))

    assert _run_faults(monkeypatch, root, lambda r: None, op) == 2  # one part per block
    keys = pq.read_table(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey"])["l_orderkey"]
    got = pa.concat_tables(results[-1].blocks)["l_orderkey"]
    assert sorted(got.to_pylist()) == sorted(k for k in keys.to_pylist() if k >= 100)


def test_par1_files_are_written_only_inside_publish():
    """Every direct `write_par1` / `write_par1_legacy_list` call in the
    package sits in a callback handed to `uri.publish`: a lambda argument,
    or a function passed by name."""
    import ast
    import pathlib

    import parquet_go_ray

    def name(f):
        return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)

    bad = []
    for path in pathlib.Path(parquet_go_ray.__file__).parent.rglob("*.py"):
        tree = ast.parse(path.read_text())
        parent = {c: p for p in ast.walk(tree) for c in ast.iter_child_nodes(p)}
        callbacks = [
            a
            for n in ast.walk(tree)
            if isinstance(n, ast.Call) and name(n.func) == "publish"
            for a in n.args[1:2] + [k.value for k in n.keywords if k.arg == "write"]
        ]
        by_name = {a.id for a in callbacks if isinstance(a, ast.Name)}
        for n in ast.walk(tree):
            if not (isinstance(n, ast.Call) and name(n.func) in ("write_par1", "write_par1_legacy_list")):
                continue
            fn = parent[n]
            while not isinstance(fn, (ast.Lambda, ast.FunctionDef, ast.Module)):
                fn = parent[fn]
            if not (
                any(fn is a for a in callbacks)
                or (isinstance(fn, ast.FunctionDef) and fn.name in by_name)
            ):
                bad.append(f"{path.name}:{n.lineno}")
    assert not bad, f"PAR1 writes outside uri.publish: {bad}"
