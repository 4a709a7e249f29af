"""The fan-out (`native_io._fan_out`): its task-count rule, its block-size
bound on its own dataset only, packed scans against a pyarrow oracle, and
the compactors, the sink and the partitioned encode packed into CPU-slot
tasks with their output bytes pinned."""

import math
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray

from parquet_go_ray.config import DEFAULT, cluster_cpus
from parquet_go_ray.formats.par1 import write_par1
from parquet_go_ray.pipelines import encode_pipeline as ep
from parquet_go_ray.pipelines import native_io as nio

MB = 1 << 20


@pytest.fixture()
def two_slots(monkeypatch):
    """A cluster of two CPUs, as the fan-out and the encode's per-task
    reservation see it."""
    monkeypatch.setattr(nio, "cluster_cpus", lambda: 2)
    monkeypatch.setattr(ep, "cluster_cpus", lambda: 2)


def _tasks(ds) -> int:
    """Tasks the fan-out runs: callers map with batch_size=None, one batch
    (task) per block."""
    return ds.map_batches(
        lambda b: pa.table({"n": [b.num_rows]}), batch_format="pyarrow", batch_size=None
    ).count()


def _items(n: int) -> list[dict]:
    return [{"i": i} for i in range(n)]


def test_many_small_files_pack_one_task_per_slot(ray_session, two_slots):
    assert _tasks(nio._fan_out(_items(10), [4096] * 10)) == 2


def test_fewer_items_than_slots_one_task_each(ray_session, monkeypatch):
    monkeypatch.setattr(nio, "cluster_cpus", lambda: 4)
    assert _tasks(nio._fan_out(_items(3), [4096] * 3)) == 3


def test_large_sizes_split_by_target(ray_session, two_slots):
    sizes = [40 * MB] * 10
    want = math.ceil(sum(sizes) / DEFAULT.target_chunk_bytes)
    assert 2 < want < 10
    assert _tasks(nio._fan_out(_items(10), sizes)) == want


def test_unknown_sizes_one_task_per_item(ray_session, two_slots):
    assert _tasks(nio._fan_out(_items(6), [None] * 6)) == 6


def test_footer_only_one_task_per_slot(ray_session, two_slots):
    assert _tasks(nio._fan_out(_items(9), [0] * 9)) == 2


def test_multi_cpu_tasks_count_slots(ray_session, monkeypatch):
    monkeypatch.setattr(nio, "cluster_cpus", lambda: 4)
    assert _tasks(nio._fan_out(_items(9), [0] * 9, task_cpus=2)) == 2
    # at least one slot when a task reserves more CPUs than the cluster has
    assert _tasks(nio._fan_out(_items(9), [0] * 9, task_cpus=8)) == 1


def test_cluster_cpus_reads_the_session(ray_session):
    import ray

    assert cluster_cpus() == int(ray.cluster_resources()["CPU"])


def test_bound_lives_on_the_returned_dataset_only(ray_session):
    import ray.data as rd
    from ray.data import DataContext

    glob_before = DataContext.get_current().target_max_block_size
    caller = rd.from_items(_items(4))
    caller_before = caller.context.target_max_block_size
    ds = nio._fan_out(_items(2), [5 * MB, 3 * MB])
    assert ds.context.target_max_block_size == 5 * MB
    # the bound reaches the map that runs the tasks
    assert ds.map_batches(lambda b: b).context.target_max_block_size == 5 * MB
    assert DataContext.get_current().target_max_block_size == glob_before
    assert caller.context.target_max_block_size == caller_before
    # 1 MB floor; an unknown size counts as one target
    assert nio._fan_out(_items(2), [0, 10]).context.target_max_block_size == MB
    assert (
        nio._fan_out(_items(2), [None, 10]).context.target_max_block_size
        == DEFAULT.target_chunk_bytes
    )


# -- packed scans against a pyarrow oracle -----------------------------------

N_FILES, ROWS = 6, 300  # file f holds keys [f*ROWS, (f+1)*ROWS)


def _part(f: int, with_v: bool = True) -> pa.Table:
    k = pa.array(range(f * ROWS, (f + 1) * ROWS), pa.int64())
    cols = {"k": k, "g": pc.cast(pc.divide(k, 7), pa.int64())}
    if with_v:
        cols["v"] = pc.multiply(k, 3)
    return pa.table(cols)


def _write(path: str, tbl: pa.Table) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    write_par1(tbl, path, codec="snappy", page_rows=64, row_group_rows=128)


@pytest.fixture()
def parts(tmp_path):
    d = str(tmp_path / "ds")
    for f in range(N_FILES):
        _write(f"{d}/part_{f:02d}.parquet", _part(f))
    return d


def _collect(ds) -> pa.Table:
    import ray

    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def _oracle(d: str, flt=None) -> pa.Table:
    files = sorted(
        os.path.join(r, f) for r, _, fs in os.walk(d) for f in fs if f.endswith(".parquet")
        and f != nio.MANIFEST_NAME
    )
    return pq.read_table(files, filters=flt)


def _same(got: pa.Table, want: pa.Table) -> None:
    assert got.num_rows == want.num_rows
    for c in ("k", "v"):
        if c in want.column_names:
            assert pc.sum(got[c]).as_py() == pc.sum(want[c]).as_py()
    assert sorted(got["k"].to_pylist()) == sorted(want["k"].to_pylist())


def test_packed_full_scan(ray_session, two_slots, parts):
    ds = nio.read_par1_dataset(parts).materialize()
    assert "2 tasks executed" in ds.stats()
    _same(_collect(ds), _oracle(parts))


def test_packed_predicate_empties_some_files_of_a_task(ray_session, two_slots, parts):
    # keys < 1.5 files: the first task (files 0-2) keeps rows of files 0
    # and 1 only, the second task (files 3-5) yields nothing but its empty
    ds = nio.read_par1_dataset(parts, predicate=("k", "<", ROWS + ROWS // 2))
    _same(_collect(ds), _oracle(parts, [("k", "<", ROWS + ROWS // 2)]))


def test_packed_all_rows_pruned_is_typed_empty(ray_session, two_slots, parts):
    got = _collect(nio.read_par1_dataset(parts, columns=["k", "v"], predicate=("k", ">", 10**9)))
    assert got.num_rows == 0
    assert got.schema.names == ["k", "v"]
    assert got.schema.field("k").type == pa.int64()


def test_packed_split_row_groups(ray_session, two_slots, parts):
    ds = nio.read_par1_dataset(parts, predicate=("k", ">=", 250), split_row_groups=True)
    _same(_collect(ds), _oracle(parts, [("k", ">=", 250)]))


def test_packed_union_by_name_missing_column(ray_session, two_slots, tmp_path):
    d = str(tmp_path / "evo")
    for f in range(N_FILES):
        _write(f"{d}/part_{f:02d}.parquet", _part(f, with_v=f % 3 != 0))
    got = _collect(nio.read_par1_dataset(d, columns=["k", "v"], union_by_name=True))
    want = pa.concat_tables(
        [_part(f).select(["k", "v"]) for f in range(N_FILES)]
    )
    assert got.num_rows == want.num_rows
    assert pc.sum(got["k"]).as_py() == pc.sum(want["k"]).as_py()
    assert got["v"].null_count == 2 * ROWS  # files 0 and 3 lack v
    kept = pc.sum(pa.concat_tables(
        [_part(f).select(["v"]) for f in range(N_FILES) if f % 3]
    )["v"]).as_py()
    assert pc.sum(got["v"]).as_py() == kept


def test_packed_partitions(ray_session, two_slots, tmp_path):
    d = str(tmp_path / "hive")
    for f in range(N_FILES):
        _write(f"{d}/p={'a' if f % 2 else 'b'}/part_{f:02d}.parquet", _part(f))
    got = _collect(nio.read_par1_dataset(d, partitions={"p": "a"}))
    _same(got, _oracle(f"{d}/p=a"))


def test_packed_manifest_pruned_scan(ray_session, two_slots, parts):
    nio.build_par1_manifest(parts)
    ex = nio.explain_par1_scan(parts, predicate=("k", "<", ROWS + 10))
    assert ex["files_after_manifest"] == 2 < ex["files_total"] == N_FILES
    got = _collect(nio.read_par1_dataset(parts, predicate=("k", "<", ROWS + 10)))
    _same(got, _oracle(parts, [("k", "<", ROWS + 10)]))


# -- unknown columns fail fast, in the driver ---------------------------------


def test_unknown_projected_column_raises_value_error(ray_session, parts):
    with pytest.raises(ValueError, match="nope"):
        nio.read_par1_dataset(parts, columns=["k", "nope"])


def test_unknown_predicate_column_raises_value_error(ray_session, parts):
    with pytest.raises(ValueError, match="nope"):
        nio.read_par1_dataset(parts, predicate=("nope", "==", 1))


# -- compaction: one bin-packer, bins packed into CPU-slot tasks --------------

# sha256 over (relative path, bytes) of every compacted part; taken from the
# one-task-per-bin compactors these replaced, so the bins, the part names
# and the part bytes are pinned unchanged
COMPACT_DIGEST = "6ec6c0ad0dfe2ad5094a566bf24ee02859825dcce7742927ec76fcd089f2f255"
TABLE_COMPACT_DIGEST = "7072af3eb1feea633ee666423ba998a9684f826f9d880341183470dae23884a8"


def _parts_digest(d: str) -> str:
    import hashlib

    h = hashlib.sha256()
    for r, _, fs in sorted(os.walk(d)):
        for f in sorted(fs):
            if f.endswith(".parquet") and f != nio.MANIFEST_NAME:
                p = os.path.join(r, f)
                h.update(os.path.relpath(p, d).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


@pytest.fixture()
def small_parts(tmp_path):
    """Twelve small parts in two hive partitions (p=a holds 8, p=b 4)."""
    d = str(tmp_path / "small")
    for f in range(12):
        _write(f"{d}/p={'a' if f % 3 else 'b'}/part_{f:02d}.parquet", _part(f))
    return d


def test_pack_bins_group_local_greedy():
    entries = [("b", "x", 5), ("a", "p", 4), ("a", "q", 4), ("a", "r", 1), ("b", "y", 20)]
    assert nio._pack_bins(entries, 8) == [
        ("a", ["p", "q"], 8), ("a", ["r"], 1), ("b", ["x"], 5), ("b", ["y"], 20)
    ]
    # table buckets: ints sort, the unbucketed None group goes last
    assert [g for g, _p, _b in nio._pack_bins([(None, "n", 1), (1, "k", 1), (0, "j", 1)], 8)] == [
        0, 1, None
    ]


def _spy_fan_out(monkeypatch) -> list:
    """Record (items, tasks) of every `_fan_out` call from now on."""
    fanned = []
    real = nio._fan_out

    def spy(items, sizes, task_cpus=1):
        ds = real(items, sizes, task_cpus=task_cpus)
        fanned.append((len(items), _tasks(ds)))
        return ds

    monkeypatch.setattr(nio, "_fan_out", spy)
    return fanned


def test_compact_packs_bins_into_slot_tasks(ray_session, two_slots, small_parts, tmp_path):
    out = str(tmp_path / "compacted")
    sizes = nio._ls_parquet(small_parts)
    target = 2 * max(sizes.values())
    bins = nio._pack_bins(
        [(nio._rel_subdir(p, small_parts), p, b) for p, b in sizes.items()], target
    )
    assert len(bins) == 6
    ds = nio.compact_par1_dataset(small_parts, out, target_bytes=target, cluster_by=["g", "v"])
    ds = ds.materialize()
    assert "2 tasks executed" in ds.stats()
    man = _collect(ds)
    assert man.num_rows == len(bins) and sum(man["rows"].to_pylist()) == 12 * ROWS
    assert sorted(man["partition"].to_pylist()) == sorted(g for g, _p, _b in bins)
    _same(_collect(nio.read_par1_dataset(out)), _oracle(small_parts).select(["k", "g", "v"]))
    assert _parts_digest(out) == COMPACT_DIGEST


def test_table_compact_packs_bins_into_slot_tasks(ray_session, two_slots, monkeypatch, tmp_path):
    import ray.data as rd

    from parquet_go_ray.pipelines import table

    d = str(tmp_path / "tbl")
    table.table_write(
        rd.from_arrow([_part(f) for f in range(10)]), d, txn_id="w0", page_rows=64
    )
    table.table_delete(d, ("k", "<", 100), txn_id="d0")
    fanned = _spy_fan_out(monkeypatch)
    # one part per bin; test_table_compact_bins_ignore_manifest_row_order
    # checks two-part bins
    table.table_compact(d, target_bytes=1, txn_id="c0", sort_by="v")
    monkeypatch.undo()
    assert (10, 2) in fanned  # ten one-part bins, two tasks
    assert len(os.listdir(f"{d}/{table.DATA_DIR}/c0")) == 10
    got = _collect(table.table_scan(d))
    assert got.num_rows == 10 * ROWS - 100
    assert _parts_digest(f"{d}/{table.DATA_DIR}/c0") == TABLE_COMPACT_DIGEST


def test_table_compact_bins_ignore_manifest_row_order(ray_session, monkeypatch, tmp_path):
    """The table manifest lists parts in the order Ray finished the write
    tasks; two-part bins must pair the same parts whatever that order is."""
    import shutil

    import ray.data as rd

    from parquet_go_ray.pipelines import table

    d = str(tmp_path / "tbl")
    table.table_write(
        rd.from_arrow([_part(f) for f in range(10)]), d, txn_id="w0", page_rows=64
    )
    rotated = str(tmp_path / "rotated")
    shutil.copytree(d, rotated)
    live = table._live_entries
    target = 2 * max(e["bytes"] for e in live(d, table.load_snapshot(d)))
    digests = []
    for tdir, shift in ((d, 0), (rotated, 1)):
        monkeypatch.setattr(
            table, "_live_entries", lambda *a, s=shift: live(*a)[s:] + live(*a)[:s]
        )
        table.table_compact(tdir, target_bytes=target, txn_id="c0", sort_by="v")
        assert len(os.listdir(f"{tdir}/{table.DATA_DIR}/c0")) == 5  # two parts a bin
        digests.append(_parts_digest(f"{tdir}/{table.DATA_DIR}/c0"))
    assert digests[0] == digests[1]


# -- the sink: blocks packed into CPU-slot tasks -----------------------------

# sha256 over (relative path, bytes) of the parts written from
# `_sink_blocks(case)`; taken from the one-task-per-block sink this
# replaced, so the part layout, names and bytes are pinned unchanged
SINK_DIGESTS = {
    "sort_by": "49b5c0a0014b55599303bb16118792cbf131af009dcc8a46623d67c839b7c012",
    "cluster_by": "a42f491544a7b09e76d0fc8027225d837739cb6719662aab7a6c538c0587a869",
    "partition_by": "9721171b1e5adffe5c59514981dad3475f614495bee120fc21db32a496323b49",
    "empty_block": "0e0f5ad8736f11c6df9826aa23631ea2c41fbb367f2e805bfdf3af6a73407c7e",
}
SINK_CASES = {
    "sort_by": {"sort_by": "v"},
    "cluster_by": {"cluster_by": ["g", "v"]},
    "partition_by": {"partition_by": "p"},
    "empty_block": {"sort_by": "k"},
}


def _sink_blocks(case: str) -> list[pa.Table]:
    """Eight blocks of `_part` rows in descending key order, plus a column
    `p` = k & 1; the "empty_block" case empties the fourth."""
    blocks = []
    for f in range(8):
        t = _part(f).take(pa.array(range(ROWS - 1, -1, -1)))
        blocks.append(t.append_column("p", pc.bit_wise_and(t["k"], 1)))
    if case == "empty_block":
        blocks[3] = blocks[3].slice(0, 0)
    return blocks


def _sink(blocks: list[pa.Table], out: str, **kw) -> pa.Table:
    """The sink's manifest rows.  Ray Data stores an empty UDF output as an
    empty block without columns, so empty blocks are dropped before the
    concat."""
    import ray
    import ray.data as rd

    ds = nio.write_par1_dataset(rd.from_arrow(blocks), out, page_rows=64, **kw)
    return pa.concat_tables([t for t in ray.get(ds.to_arrow_refs()) if t.num_rows])


def test_sink_packs_blocks_into_slot_tasks(ray_session, two_slots, monkeypatch, tmp_path):
    fanned = _spy_fan_out(monkeypatch)
    man = _sink(_sink_blocks("sort_by"), str(tmp_path / "sink"), sort_by="v")
    monkeypatch.undo()
    assert fanned == [(8, 2)]  # eight blocks, two tasks
    assert man.num_rows == 8 and sum(man["rows"].to_pylist()) == 8 * ROWS


@pytest.mark.parametrize("case", sorted(SINK_CASES))
def test_sink_parts_match_the_per_block_writer(ray_session, two_slots, tmp_path, case):
    blocks, out = _sink_blocks(case), str(tmp_path / case)
    man = _sink(blocks, out, **SINK_CASES[case])
    assert sum(man["rows"].to_pylist()) == sum(b.num_rows for b in blocks)
    assert not any(man["skipped"].to_pylist())
    assert _parts_digest(out) == SINK_DIGESTS[case]
    again = _sink(blocks, out, **SINK_CASES[case])  # a rerun skips every part
    assert all(again["skipped"].to_pylist())
    assert sorted(again["path"].to_pylist()) == sorted(man["path"].to_pylist())
    assert _parts_digest(out) == SINK_DIGESTS[case]


def test_table_scan_packs_its_clean_files(ray_session, two_slots, monkeypatch, tmp_path):
    import ray.data as rd

    from parquet_go_ray.pipelines import table

    d = str(tmp_path / "tbl")
    table.table_write(rd.from_arrow([_part(f) for f in range(8)]), d, txn_id="w0", page_rows=64)
    fanned = _spy_fan_out(monkeypatch)
    ds = table.table_scan(d)
    monkeypatch.undo()
    assert fanned == [(8, 2)]  # eight delete-free files, two tasks
    _same(_collect(ds), _oracle(f"{d}/{table.DATA_DIR}"))


# -- the partitioned encode: fragments packed into CPU-slot tasks ------------

# sha256 over (part id, chunks.parquet bytes) of every part the encode
# below writes; taken from the one-task-per-fragment encode this replaced,
# whose part ids came from the map task's index
ENCODE_DIGEST = "778a79f22980dc7ed9c2a5001d8ba98f2c9ed7e18ab360c89addaaa0920e26a0"


def _lineage_digest(out: str) -> str:
    import hashlib

    from parquet_go_ray.state import lineage as lin

    h = hashlib.sha256()
    for part in sorted(lin.done_parts(out)):
        h.update(str(part).encode())
        with open(os.path.join(lin.part_dir(out, part), "chunks.parquet"), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def test_encode_packs_fragments_into_slot_tasks(ray_session, two_slots, monkeypatch, tmp_path):
    import ray.data as rd

    from parquet_go_ray.config import EngineConfig
    from parquet_go_ray.sources.synth import make_code_table

    t = make_code_table(800, seed=11)
    cuts = [0, 266, 533, 800]  # three input blocks, none aligned to a fragment
    src = [t.slice(lo, hi - lo) for lo, hi in zip(cuts, cuts[1:])]
    out, cfg = str(tmp_path / "enc"), EngineConfig(batch_size_rows=64)
    fanned = _spy_fan_out(monkeypatch)
    m = _collect(ep.encode_partitioned(rd.from_arrow(src), out, cfg, num_parts=8))
    monkeypatch.undo()
    assert fanned == [(8, 2)]  # eight fragments, two tasks
    assert m.num_rows == 8 and sum(m["rows"].to_pylist()) == 800
    assert _lineage_digest(out) == ENCODE_DIGEST
    again = ep.encode_partitioned(rd.from_arrow(src), out, cfg, num_parts=8)
    assert again.count() == 0  # a rerun skips every part
    assert _lineage_digest(out) == ENCODE_DIGEST


def _tree_bytes(root: str) -> dict:
    files = {}
    for here, _dirs, names in os.walk(root):
        for name in names:
            with open(os.path.join(here, name), "rb") as f:
                files[os.path.relpath(os.path.join(here, name), root)] = f.read()
    return files


def test_encode_writes_the_same_bytes_twice(ray_session, tmp_path):
    """Two encodes of the same input into two directories write the same
    files byte for byte, the lineage markers included: a marker holds no
    wall time (that goes in the metrics row)."""
    import ray.data as rd

    from parquet_go_ray.config import EngineConfig
    from parquet_go_ray.sources.synth import make_code_table

    t = make_code_table(300, seed=3)
    cfg = EngineConfig(batch_size_rows=64)
    trees = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        m = _collect(ep.encode_partitioned(rd.from_arrow(t), out, cfg, num_parts=3))
        assert m.num_rows == 3 and all(s >= 0 for s in m["encode_sec"].to_pylist())
        trees.append(_tree_bytes(out))
    assert sum(p.endswith("lineage.json") for p in trees[0]) == 3
    assert trees[0] == trees[1]


def test_decode_packs_parts_and_keeps_every_chunk_in_one_block(ray_session, two_slots, monkeypatch, tmp_path):
    """decode_partitions reads two parts in each of two slot tasks, and no
    chunk's column rows span two blocks.  The parts hold 0.8 and 1.3 MB of
    incompressible PLAIN chunks, four chunks of two columns each: yielding
    them under a block-size target of the largest file merges two parts and
    re-slices them mid-chunk."""
    from parquet_go_ray.config import EngineConfig
    from parquet_go_ray.stages.encode import encode_table, reassemble_blocks
    from parquet_go_ray.state import lineage as lin

    cfg = EngineConfig(per_column_codec={c: ("plain", "none") for c in "ab"})
    rng = np.random.default_rng(19)
    out, inputs = str(tmp_path / "enc"), []
    for part, mb in enumerate([0.8, 1.3, 0.8, 1.3]):
        width = int(mb * MB / 32)  # 4 chunks x 2 columns x 4 values
        chunks = []
        for _ in range(4):
            t = pa.table({c: pa.array([rng.bytes(width) for _ in range(4)], pa.binary()) for c in "ab"})
            inputs.append(t)
            chunks.append(encode_table(t, cfg, part=part))
        assert set(pa.concat_tables(chunks)["codec"].to_pylist()) == {"plain"}
        lin.write_partition(out, part, pa.concat_tables(chunks), {"rows": 16})
    fanned, sized = _spy_fan_out(monkeypatch), []
    spy = nio._fan_out
    monkeypatch.setattr(nio, "_fan_out", lambda items, sizes, **kw: sized.append(sizes) or spy(items, sizes, **kw))
    ds = ep.decode_partitions(out).materialize()
    monkeypatch.undo()
    assert fanned == [(4, 2)]
    assert sized == [list(nio._ls_parquet(out).values())]
    blocks = [ray.get(ref) for b in ds.iter_internal_ref_bundles() for ref, _ in b.blocks]
    where = {}
    for k, block in enumerate(blocks):
        for cid in block["chunk_id"].to_pylist():
            where.setdefault(cid, []).append(k)
    assert len(where) == 16
    assert all(len(ks) == 2 and ks[0] == ks[1] for ks in where.values())
    back = pa.concat_tables([reassemble_blocks(b) for b in blocks])
    want = pa.concat_tables(inputs)
    assert sorted(zip(*back.to_pydict().values())) == sorted(zip(*want.to_pydict().values()))


def test_no_engine_module_imports_ray_internals():
    """Engine code reaches Ray through its public API only: no module under
    parquet_go_ray/ imports from ray.data._internal (a logger name is a
    string, not an import)."""
    import ast
    import pathlib

    import parquet_go_ray

    root = pathlib.Path(parquet_go_ray.__file__).parent
    bad = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            bad += [
                f"{path.relative_to(root)}:{node.lineno} {n}"
                for n in names
                if n == "ray.data._internal" or n.startswith("ray.data._internal.")
            ]
    assert not bad, bad


def test_only_the_sources_module_touches_ray_blocks():
    """Writers read their input through `parquet_source(ds) or
    block_source(ds)`: no module under parquet_go_ray/ but sources/io.py
    names `iter_internal_ref_bundles` or `BlockAccessor`."""
    import ast
    import pathlib

    import parquet_go_ray

    root = pathlib.Path(parquet_go_ray.__file__).parent
    bad = []
    for path in sorted(root.rglob("*.py")):
        if path == root / "sources" / "io.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rsplit(".", 1)[-1]
            else:
                continue
            if name in ("iter_internal_ref_bundles", "BlockAccessor"):
                bad.append(f"{path.relative_to(root)}:{getattr(node, 'lineno', '?')} {name}")
    assert not bad, bad


# -- Parquet inputs read inside the slot tasks --------------------------------


def _parquet_files(d: str, tables: list, rg_rows: int | None = None) -> list[str]:
    """`tables` as pyarrow-written files part_00.parquet, ... under `d`."""
    os.makedirs(d, exist_ok=True)
    paths = []
    for f, t in enumerate(tables):
        paths.append(os.path.join(d, f"part_{f:02d}.parquet"))
        pq.write_table(t, paths[-1], row_group_size=rg_rows)
    return paths


def _materialize_path(monkeypatch):
    """Hand every writer's input to the materialize path."""
    monkeypatch.setattr(nio, "parquet_source", lambda ds: None)
    monkeypatch.setattr(ep, "parquet_source", lambda ds: None)


def _code_layout(rng, rows: list[int]) -> list[pa.Table]:
    from parquet_go_ray.sources.synth import make_code_table

    t = make_code_table(max(sum(rows), 1), seed=int(rng.integers(1 << 16)))
    cuts = np.cumsum([0] + rows)
    return [t.slice(lo, hi - lo) for lo, hi in zip(cuts, cuts[1:])]


def test_split_ranges_match_the_split_repartition(ray_session, tmp_path):
    """Over random layouts — empty files, one to three row groups a file,
    1 to 9 parts, more parts than rows — the fragments cut from a Parquet
    read's footers, and from the blocks of `from_arrow` over the same
    tables (empty blocks included) through `block_source`, equal the
    non-empty blocks of `repartition(k).materialize()` row for row, in
    order, with equal part ids."""
    import ray.data as rd

    from parquet_go_ray.sources.io import block_source, parquet_source, read_parquet_any, row_range

    rng = np.random.default_rng(17)
    for layout in range(6):
        n_files = int(rng.integers(1, 5))
        rows = [int(rng.choice([0, 1, 2, 5, 40, 97])) for _ in range(n_files)]
        rows[int(rng.integers(n_files))] += 3  # never an empty input
        d = str(tmp_path / f"l{layout}")
        tables = [
            pa.table({"k": pa.array(rng.integers(0, 1000, n), pa.int64()),
                      "s": pa.array([f"v{x}" for x in rng.integers(0, 50, n)])})
            for n in rows
        ]
        _parquet_files(d, tables, rg_rows=int(rng.integers(1, 40)))
        inputs = {"parquet": lambda: read_parquet_any(d), "blocks": lambda: rd.from_arrow(tables)}
        sources = {"parquet": parquet_source(inputs["parquet"]()), "blocks": block_source(inputs["blocks"]())}
        assert sources["parquet"] is not None
        assert [g[2] for g in sources["blocks"].row_groups()] == rows
        ks = sorted({1, 2, 9, int(rng.integers(3, 9)), sum(rows) + 1} - {0})
        for name, src in sources.items():
            groups = src.row_groups()
            assert sum(g[2] for g in groups) == sum(rows)
            for k in ks:
                ordered = inputs[name]()
                ordered.context.execution_options.preserve_order = True  # as block_source sets it
                split = ordered.repartition(k).materialize()
                want = [t for t in ray.get(split.to_arrow_refs()) if t.num_rows]
                got = [src.read(row_range(groups, lo, hi)) for lo, hi in ep._split_ranges(sum(rows), k)]
                assert len(got) == len(want), (name, rows, k)
                for i, (g, w) in enumerate(zip(got, want)):
                    assert g.schema == w.schema and g.equals(w), (name, rows, k, i)
                    assert ep._part_id(i, g) == ep._part_id(i, w)


@pytest.mark.parametrize("parts", [1, 3, 7])
def test_encode_parquet_read_matches_the_materialized_split(ray_session, monkeypatch, tmp_path, parts):
    """The footer path writes the parts, part ids and chunks.parquet bytes
    of the materialized split; row groups straddle the fragment cuts."""
    from parquet_go_ray.config import EngineConfig
    from parquet_go_ray.sources.io import parquet_source, read_parquet_any

    d = str(tmp_path / "in")
    _parquet_files(d, _code_layout(np.random.default_rng(parts), [0, 90, 7, 203]), rg_rows=40)
    cfg = EngineConfig(batch_size_rows=64)
    assert parquet_source(read_parquet_any(d)) is not None
    fast = _collect(ep.encode_partitioned(read_parquet_any(d), str(tmp_path / "fast"), cfg, num_parts=parts))
    with monkeypatch.context() as m:
        _materialize_path(m)
        slow = _collect(ep.encode_partitioned(read_parquet_any(d), str(tmp_path / "slow"), cfg, num_parts=parts))
    assert sorted(fast["part"].to_pylist()) == sorted(slow["part"].to_pylist())
    assert sum(fast["rows"].to_pylist()) == 300
    assert _lineage_digest(str(tmp_path / "fast")) == _lineage_digest(str(tmp_path / "slow"))


@pytest.mark.parametrize("case", sorted(SINK_CASES))
def test_sink_parts_match_the_per_block_writer_on_a_parquet_read(ray_session, two_slots, tmp_path, case):
    """`_sink_blocks` written as one file each and read one block per file:
    the sink reads the files in its tasks and writes the pinned parts."""
    from parquet_go_ray.sources.io import parquet_source, read_parquet_any

    files = _parquet_files(str(tmp_path / "in"), _sink_blocks(case))
    ds = read_parquet_any(files, override_num_blocks=len(files))
    assert parquet_source(ds) is not None
    out = str(tmp_path / case)
    man = pa.concat_tables(
        [t for t in ray.get(nio.write_par1_dataset(ds, out, page_rows=64, **SINK_CASES[case]).to_arrow_refs())
         if t.num_rows]
    )
    assert not any(man["skipped"].to_pylist())
    assert _parts_digest(out) == SINK_DIGESTS[case]


def _sink_rows(d: str) -> pa.Table:
    """Every row of the sink's parts under `d`, in one sorted order."""
    parts = sorted(
        os.path.join(r, f) for r, _, fs in os.walk(d) for f in fs
        if f.endswith(".parquet") and f != nio.MANIFEST_NAME
    )
    t = pa.concat_tables(pq.read_table(p) for p in parts)
    return t.sort_by([(c, "ascending") for c in t.column_names])


def _spy_materialize(monkeypatch) -> list:
    import ray.data as rd

    calls = []
    real = rd.Dataset.materialize

    def spy(self, *a, **kw):
        calls.append(self)
        return real(self, *a, **kw)

    monkeypatch.setattr(rd.Dataset, "materialize", spy)
    return calls


@pytest.mark.parametrize("how", ["plain", "columns", "pandas", "transformed", "from_arrow", "hive", "kwarg"])
def test_only_untransformed_parquet_reads_skip_the_materialize(ray_session, monkeypatch, tmp_path, how):
    """A plain read, one with `columns=` and one of pandas-written files
    (schema metadata) go to the slot tasks unmaterialized; a transformed
    read, `from_arrow`, a hive directory and a read with another keyword
    are materialized.  The encode writes the materialize path's bytes; the
    sink writes its rows (its parts follow the files, not Ray's blocks)."""
    import ray.data as rd

    from parquet_go_ray.config import EngineConfig
    from parquet_go_ray.sources.io import parquet_source, read_parquet_any

    tables = _code_layout(np.random.default_rng(3), [60, 0, 45, 95])
    d = str(tmp_path / ("in/shard=x" if how == "hive" else "in"))
    if how == "pandas":
        tables = [pa.Table.from_pandas(t.to_pandas()) for t in tables]
        assert tables[0].schema.metadata
    _parquet_files(d, tables, rg_rows=50)

    def source():
        if how == "from_arrow":
            return rd.from_arrow([t for t in tables if t.num_rows])
        if how == "kwarg":
            return read_parquet_any(d, ray_remote_args={"num_cpus": 1})
        ds = read_parquet_any(d, columns=["repo", "path", "content"] if how == "columns" else None)
        return ds.map_batches(lambda b: b, batch_format="pyarrow") if how == "transformed" else ds

    fast = how in ("plain", "columns", "pandas")
    assert (parquet_source(source()) is not None) == fast
    cfg = EngineConfig(batch_size_rows=64)
    outs = {}
    for path in ("spied", "materialized"):
        with monkeypatch.context() as m:
            if path == "materialized":
                _materialize_path(m)
            calls = _spy_materialize(m)
            out = str(tmp_path / path)
            man = _collect(nio.write_par1_dataset(source(), out + "/sink", sort_by="path", page_rows=64))
            enc = _collect(ep.encode_partitioned(source(), out + "/enc", cfg, num_parts=3))
        if path == "spied":
            assert bool(calls) != fast, calls
        outs[path] = (_sink_rows(out + "/sink"), _lineage_digest(out + "/enc"),
                      sum(man["rows"].to_pylist()), sum(enc["rows"].to_pylist()))
    assert outs["spied"][0].equals(outs["materialized"][0])
    assert outs["spied"][1:] == outs["materialized"][1:]
    assert outs["spied"][2:] == (200, 200)


def test_parquet_read_resumes_a_materialized_write(ray_session, monkeypatch, tmp_path):
    """An output directory the materialize path wrote is skipped in full by
    the slot-task read: every sink part (unsorted, from row groups Ray
    reads in several batches, one block per file) and every encode part is
    already done."""
    from parquet_go_ray.config import EngineConfig
    from parquet_go_ray.sources.io import read_parquet_any

    rng = np.random.default_rng(9)
    big = pa.table({"k": pa.array(rng.integers(0, 1 << 40, 25_000), pa.int64())})
    files = _parquet_files(str(tmp_path / "in"), [big, big.slice(0, 7), big.slice(0, 0)], rg_rows=12_000)
    sink, enc, cfg = str(tmp_path / "sink"), str(tmp_path / "enc"), EngineConfig(batch_size_rows=4096)

    def per_file():
        return read_parquet_any(files, override_num_blocks=len(files))

    with monkeypatch.context() as m:
        _materialize_path(m)
        first = _collect(nio.write_par1_dataset(per_file(), sink, page_rows=4096))
        done = _collect(ep.encode_partitioned(read_parquet_any(files), enc, cfg, num_parts=4))
    assert not any(first["skipped"].to_pylist()) and done.num_rows == 4
    before = (_parts_digest(sink), _lineage_digest(enc))
    again = _collect(nio.write_par1_dataset(per_file(), sink, page_rows=4096))
    assert again.num_rows == first.num_rows and all(again["skipped"].to_pylist())
    assert sorted(again["path"].to_pylist()) == sorted(first["path"].to_pylist())
    assert ep.encode_partitioned(read_parquet_any(files), enc, cfg, num_parts=4).count() == 0
    assert (_parts_digest(sink), _lineage_digest(enc)) == before
