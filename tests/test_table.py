"""Snapshot/transaction layer (pipelines/table.py): commits, time travel,
merge-on-read position deletes, compaction, rollback, vacuum."""

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from parquet_go_ray.pipelines import native_io as nio
from parquet_go_ray.pipelines import table as T


def _mk(n0: int, n1: int) -> pa.Table:
    idx = np.arange(n0, n1)
    return pa.table(
        {
            "k": pa.array(idx, pa.int64()),
            "v": pa.array((idx * 7) % 100, pa.int64()),
            "s": pa.array([f"row{i:05d}" for i in idx]),
        }
    )


@pytest.fixture()
def tdir(tmp_path):
    d = str(tmp_path / "tbl")
    yield d
    shutil.rmtree(d, ignore_errors=True)


def _scan_pd(d, **kw):
    df = T.table_scan(d, **kw).to_pandas()
    return df.sort_values("k").reset_index(drop=True)


def test_append_and_time_travel(ray_session, tdir):
    v1 = T.table_write(rd.from_arrow(_mk(0, 1000)).repartition(3), tdir)
    v2 = T.table_write(rd.from_arrow(_mk(1000, 1400)).repartition(2), tdir)
    assert (v1, v2) == (1, 2)
    assert len(_scan_pd(tdir, version=1)) == 1000
    assert len(_scan_pd(tdir)) == 1400
    hist = T.table_history(tdir).to_pylist()
    assert [h["op"] for h in hist] == ["append", "append"]
    assert hist[1]["parent"] == 1


def test_overwrite_keeps_history(ray_session, tdir):
    T.table_write(rd.from_arrow(_mk(0, 500)), tdir)
    T.table_write(rd.from_arrow(_mk(900, 1000)), tdir, mode="overwrite")
    assert list(_scan_pd(tdir)["k"]) == list(range(900, 1000))
    assert list(_scan_pd(tdir, version=1)["k"]) == list(range(500))


def test_mor_delete_and_predicate(ray_session, tdir):
    T.table_write(rd.from_arrow(_mk(0, 2000)).repartition(4), tdir)
    v = T.table_delete(tdir, ("v", "<", 20))
    assert v == 2
    exp = _mk(0, 2000).to_pandas()
    exp = exp[~(exp.v < 20)]
    got = _scan_pd(tdir)
    assert list(got.k) == sorted(exp.k)
    # predicate over the deleted table composes (MoR path re-filters exactly)
    got2 = _scan_pd(tdir, predicate=[("k", ">=", 100), ("k", "<", 1500)])
    exp2 = exp[(exp.k >= 100) & (exp.k < 1500)]
    assert list(got2.k) == sorted(exp2.k)
    # pre-delete version still intact
    assert len(_scan_pd(tdir, version=1)) == 2000


def test_delete_noop_and_second_delete_unions(ray_session, tdir):
    T.table_write(rd.from_arrow(_mk(0, 300)), tdir)
    v = T.table_delete(tdir, ("k", ">=", 10_000))  # matches nothing
    assert v == 1  # no-op: no new commit
    T.table_delete(tdir, ("k", "<", 50))
    T.table_delete(tdir, [("k", ">=", 250)])
    got = _scan_pd(tdir)
    assert list(got.k) == list(range(50, 250))


def test_compact_applies_deletes(ray_session, tdir):
    T.table_write(rd.from_arrow(_mk(0, 1200)).repartition(6), tdir)
    T.table_delete(tdir, ("v", ">=", 80))
    v = T.table_compact(tdir, target_bytes=1 << 20, sort_by="k")
    snap = T.load_snapshot(tdir, v)
    assert snap["op"] == "compact" and snap["deletes"] == []
    exp = _mk(0, 1200).to_pandas()
    exp = exp[~(exp.v >= 80)]
    assert list(_scan_pd(tdir).k) == sorted(exp.k)
    # fewer live files than before, and the summary tracks the survivors
    assert snap["summary"]["files"] < 6
    assert snap["summary"]["rows"] == len(exp)


def test_rollback(ray_session, tdir):
    T.table_write(rd.from_arrow(_mk(0, 400)), tdir)
    T.table_delete(tdir, ("k", "<", 100))
    assert len(_scan_pd(tdir)) == 300
    v = T.table_rollback(tdir, 1)
    assert len(_scan_pd(tdir)) == 400
    hist = T.table_history(tdir).to_pylist()
    assert hist[-1]["op"] == "rollback" and hist[-1]["version"] == v


def test_vacuum_orphans_and_expiry(ray_session, tdir):
    T.table_write(rd.from_arrow(_mk(0, 600)).repartition(2), tdir)
    T.table_write(rd.from_arrow(_mk(600, 900)), tdir)
    # orphan: a data file from a txn that never committed
    orphan_dir = os.path.join(tdir, T.DATA_DIR, "deadbeef0000")
    os.makedirs(orphan_dir)
    orphan = os.path.join(orphan_dir, "part_junk.parquet")
    with open(orphan, "wb") as f:
        f.write(b"PAR1junkPAR1")
    # default grace keeps a FRESH never-referenced file (it could be an
    # in-flight txn's part); min_age_s=0 asserts no active writers
    assert T.table_vacuum(tdir) == []
    assert os.path.exists(orphan)
    removed = T.table_vacuum(tdir, min_age_s=0)
    assert [os.path.basename(r) for r in removed] == ["part_junk.parquet"]
    assert not os.path.exists(orphan)
    # overwrite, then expire old versions: their exclusive files go
    T.table_write(rd.from_arrow(_mk(0, 10)), tdir, mode="overwrite")
    removed = T.table_vacuum(tdir, keep_last=1)
    assert any(r.startswith(T.DATA_DIR) for r in removed)
    assert T.table_versions(tdir) == [3]
    assert len(_scan_pd(tdir)) == 10


def test_commit_conflict_retries(ray_session, tdir):
    T.table_write(rd.from_arrow(_mk(0, 100)), tdir)
    # simulate a concurrent committer claiming version 2 mid-commit
    s1 = T.load_snapshot(tdir, 1)
    claim = dict(s1, version=2, parent=1, op="append")
    os.makedirs(T._snap_dir(tdir), exist_ok=True)
    with open(T._snap_path(tdir, 2), "w") as f:
        json.dump(claim, f)
    v = T.table_write(rd.from_arrow(_mk(100, 200)), tdir)
    assert v == 3  # retried past the claimed version
    snap = T.load_snapshot(tdir, 3)
    assert snap["parent"] == 2
    # claimed v2 carried v1's manifest list; v3 appended 100 more rows on top
    assert len(_scan_pd(tdir)) == 200
    assert len(set(snap["manifests"])) == len(snap["manifests"])


def test_scan_prunes_files_from_snapshot_stats(ray_session, tdir):
    # two disjoint key ranges in separate commits -> separate files; a
    # predicate on one range must only admit that file set
    T.table_write(rd.from_arrow(_mk(0, 500)), tdir)
    T.table_write(rd.from_arrow(_mk(10_000, 10_500)), tdir)
    snap = T.load_snapshot(tdir)
    _types, branches = T._table_plan(tdir, snap, ("k", "<", 100))
    assert len(T.table_files(tdir)) == 2
    admitted, _known = nio._manifest_admit(T._manifest_paths(tdir, snap), branches)
    assert len(admitted) == 1
    got = _scan_pd(tdir, predicate=("k", "<", 100))
    assert list(got.k) == list(range(100))


def test_delete_respects_null_semantics(ray_session, tdir):
    tbl = pa.table(
        {
            "k": pa.array(range(10), pa.int64()),
            "v": pa.array([None if i % 2 else i for i in range(10)], pa.int64()),
        }
    )
    T.table_write(rd.from_arrow(tbl), tdir)
    T.table_delete(tdir, ("v", "<", 100))  # null v never matches -> survives
    got = _scan_pd(tdir)
    assert list(got.k) == [1, 3, 5, 7, 9]
    assert got.v.isna().all()


def test_multi_row_group_positions(ray_session, tdir):
    # tiny row groups force positions to span many groups per file
    T.table_write(
        rd.from_arrow(_mk(0, 4000)).repartition(2), tdir, row_group_rows=256,
        page_rows=64,
    )
    T.table_delete(tdir, [[("k", "<", 10)], [("k", ">=", 3990)], [("v", "==", 55)]])
    exp = _mk(0, 4000).to_pandas()
    exp = exp[~((exp.k < 10) | (exp.k >= 3990) | (exp.v == 55))]
    assert list(_scan_pd(tdir).k) == sorted(exp.k)


def test_distributed_manifest_admission_matches_inline(ray_session, tdir, monkeypatch):
    T.table_write(rd.from_arrow(_mk(0, 500)).repartition(3), tdir)
    T.table_write(rd.from_arrow(_mk(20_000, 20_500)).repartition(2), tdir)
    snap = T.load_snapshot(tdir)
    _types, branches = T._table_plan(tdir, snap, [[("k", "<", 100)], [("k", ">=", 20_400)]])
    mpaths = T._manifest_paths(tdir, snap)
    inline = sorted(nio._manifest_admit(mpaths, branches)[0])
    monkeypatch.setattr(nio, "_MANIFEST_DISTRIBUTE_THRESHOLD", 0)
    dist = sorted(nio._manifest_admit(mpaths, branches)[0])
    assert dist == inline and 0 < len(dist) < len(T.table_files(tdir))


def test_upsert_updates_and_inserts_atomically(ray_session, tdir):
    T.table_write(rd.from_arrow(_mk(0, 500)).repartition(2), tdir)
    up = pa.table(
        {
            "k": pa.array([10, 20, 999], pa.int64()),  # 10/20 update, 999 inserts
            "v": pa.array([-1, -2, -3], pa.int64()),
            "s": pa.array(["u10", "u20", "new"]),
        }
    )
    v = T.table_upsert(rd.from_arrow(up), tdir, key="k")
    assert v == 2 and T.load_snapshot(tdir)["op"] == "upsert"
    got = _scan_pd(tdir)
    assert len(got) == 501
    assert got.set_index("k").loc[10].s == "u10"
    assert got.set_index("k").loc[999].v == -3
    assert got.set_index("k").loc[11].s == "row00011"  # untouched
    # summary counts the inserts+updates as appended rows
    assert T.load_snapshot(tdir)["summary"]["rows"] == 503


def test_changes_between_versions(ray_session, tdir):
    T.table_write(rd.from_arrow(_mk(0, 100)), tdir)
    T.table_write(rd.from_arrow(_mk(100, 250)), tdir)
    T.table_write(rd.from_arrow(_mk(250, 300)), tdir)
    ch = T.table_changes(tdir, 1).to_pandas()
    assert sorted(ch.k) == list(range(100, 300))
    ch12 = T.table_changes(tdir, 1, to_version=2).to_pandas()
    assert sorted(ch12.k) == list(range(100, 250))
    none = T.table_changes(tdir, 3)
    # empty-Dataset to_pandas drops columns (Ray quirk): assert via schema()
    assert none.count() == 0 and none.schema().names == ["k", "v", "s"]


def test_equality_delete_gates_by_txn(ray_session, tdir):
    """An equality delete retracts matching rows from files committed
    BEFORE it, never from later appends with the same keys."""
    T.table_write(rd.from_arrow(_mk(0, 1000)).repartition(3), tdir)
    v = T.table_delete(tdir, ("k", "<", 100), mode="equality")
    assert v == 2 and T.load_snapshot(tdir)["deletes"][0]["kind"] == "eq"
    assert list(_scan_pd(tdir)["k"]) == list(range(100, 1000))
    # re-append some of the deleted keys: they must survive
    T.table_write(rd.from_arrow(_mk(0, 50)), tdir)
    got = list(_scan_pd(tdir)["k"])
    assert got == list(range(50)) + list(range(100, 1000))
    # time travel to before the delete sees everything
    assert len(_scan_pd(tdir, version=1)) == 1000
    # composes with a scan predicate (evaluated after the delete)
    got2 = _scan_pd(tdir, predicate=("k", "<", 200))
    assert list(got2["k"]) == list(range(50)) + list(range(100, 200))


def test_equality_delete_null_semantics(ray_session, tdir):
    t = pa.table(
        {
            "k": pa.array([0, 1, 2, 3], pa.int64()),
            "v": pa.array([10, None, 30, None], pa.int64()),
            "s": pa.array(["a", "b", "c", "d"]),
        }
    )
    T.table_write(rd.from_arrow(t), tdir)
    T.table_delete(tdir, ("v", "<", 50), mode="equality")
    # null comparisons never delete -> nulls survive
    assert list(_scan_pd(tdir)["k"]) == [1, 3]


def test_equality_delete_stats_keep_untouched_files_clean(ray_session, tdir):
    T.table_write(rd.from_arrow(_mk(0, 100)), tdir)
    T.table_write(rd.from_arrow(_mk(5000, 5100)), tdir)
    T.table_delete(tdir, ("k", "<", 10), mode="equality")
    snap = T.load_snapshot(tdir)
    ents = {e["path"]: e for e in T.table_files(tdir)}
    dirty = [
        rel
        for rel, e in ents.items()
        if T._eq_deletes_for_file(snap, rel, e.get("stats"))
    ]
    # only the low-key file can contain matching rows
    assert len(dirty) == 1
    lo = nio._stats_from_json(ents[dirty[0]]["stats"])["k"]["min"]
    assert lo == 0
    assert list(_scan_pd(tdir)["k"]) == list(range(10, 100)) + list(
        range(5000, 5100)
    )


def test_equality_upsert_matches_position_upsert(ray_session, tmp_path):
    """deletes='equality' and deletes='position' MERGEs land the same
    logical table; the equality path reads no data file at upsert time."""
    up = pa.table(
        {
            "k": pa.array([10, 20, 999], pa.int64()),
            "v": pa.array([-1, -2, -3], pa.int64()),
            "s": pa.array(["u10", "u20", "new"]),
        }
    )
    frames = {}
    for mode in ("position", "equality"):
        d = str(tmp_path / mode)
        T.table_write(rd.from_arrow(_mk(0, 500)).repartition(2), d)
        T.table_upsert(rd.from_arrow(up), d, key="k", deletes=mode)
        frames[mode] = _scan_pd(d)
        dels = T.load_snapshot(d)["deletes"]
        kinds = {e.get("kind", "pos") for e in dels}
        assert kinds == ({"pos"} if mode == "position" else {"eqfile"})
        shutil.rmtree(d, ignore_errors=True)
    assert frames["position"].equals(frames["equality"])


def test_equality_deletes_fold_on_compact_and_vacuum(ray_session, tdir):
    T.table_write(rd.from_arrow(_mk(0, 800)).repartition(2), tdir)
    T.table_delete(tdir, [[("v", "<", 10)], [("s", "==", "row00500")]],
                   mode="equality")
    up = pa.table(
        {
            "k": pa.array([600], pa.int64()),
            "v": pa.array([77], pa.int64()),
            "s": pa.array(["u600"]),
        }
    )
    T.table_upsert(rd.from_arrow(up), tdir, key="k", deletes="equality")
    before = _scan_pd(tdir)
    T.table_compact(tdir, sort_by="k")
    assert T.load_snapshot(tdir)["deletes"] == []
    assert _scan_pd(tdir).equals(before)
    removed = T.table_vacuum(tdir, keep_last=1)
    # the eqfile delete parts are unreferenced now and must be reclaimed
    assert any(r.startswith("_deletes/") for r in removed)
    assert _scan_pd(tdir).equals(before)


def test_bucketed_write_and_join(ray_session, tmp_path):
    rng = np.random.default_rng(7)
    lt = pa.table({"k": np.arange(2000) % 300, "lx": np.arange(2000)})
    rt = pa.table({"k2": np.arange(0, 300, 3), "ry": rng.integers(0, 10, 100)})
    dl, dr = str(tmp_path / "l"), str(tmp_path / "r")
    T.table_write(rd.from_arrow(lt).repartition(4), dl, bucket_by=("k", 8))
    T.table_write(rd.from_arrow(rt).repartition(2), dr, bucket_by=("k2", 8))
    j = (
        T.table_bucket_join(dl, dr, "k", "k2")
        .to_pandas()
        .sort_values(["k", "lx"])
        .reset_index(drop=True)
    )
    exp = (
        lt.to_pandas()
        .merge(rt.to_pandas(), left_on="k", right_on="k2")
        .drop(columns=["k2"])
        .sort_values(["k", "lx"])
        .reset_index(drop=True)
    )
    assert j[["k", "lx", "ry"]].equals(
        exp[["k", "lx", "ry"]].astype(j[["k", "lx", "ry"]].dtypes.to_dict())
    )
    # left join keeps unmatched left rows as nulls
    j3 = T.table_bucket_join(dl, dr, "k", "k2", how="left").to_pandas()
    assert len(j3) == 2000 and j3.ry.isna().sum() > 0


def test_bucket_spec_enforced(ray_session, tmp_path):
    d = str(tmp_path / "t")
    T.table_write(rd.from_arrow(_mk(0, 100)), d, bucket_by=("k", 4))
    with pytest.raises(ValueError, match="rebucket"):
        T.table_write(rd.from_arrow(_mk(100, 200)), d, bucket_by=("k", 8))
    # plain append inherits the spec
    T.table_write(rd.from_arrow(_mk(100, 200)), d)
    assert all(
        T._bucket_of(e["path"]) is not None for e in T.table_files(d)
    )
    d2 = str(tmp_path / "u")
    T.table_write(rd.from_arrow(_mk(0, 100)), d2)
    with pytest.raises(ValueError, match="unbucketed"):
        T.table_write(rd.from_arrow(_mk(100, 200)), d2, bucket_by=("k", 4))
    with pytest.raises(ValueError, match="bucket_by on both"):
        T.table_bucket_join(d, d2, "k", "k")


def test_bucket_join_composes_with_mor(ray_session, tmp_path):
    """Upsert on the left, equality delete on the right: the bucket join
    sees the reconciled state of both sides without any compaction."""
    lt = pa.table({"k": np.arange(500), "lx": np.arange(500) * 2})
    rt = pa.table({"k": np.arange(0, 500, 5), "ry": np.arange(100)})
    dl, dr = str(tmp_path / "l"), str(tmp_path / "r")
    T.table_write(rd.from_arrow(lt).repartition(3), dl, bucket_by=("k", 4))
    T.table_write(rd.from_arrow(rt), dr, bucket_by=("k", 4))
    up = pa.table({"k": pa.array([10, 9999], pa.int64()),
                   "lx": pa.array([-1, -2], pa.int64())})
    T.table_upsert(rd.from_arrow(up), dl, key="k", deletes="equality")
    T.table_delete(dr, ("ry", ">=", 50), mode="equality")
    got = (
        T.table_bucket_join(dl, dr, "k")
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    lpd = lt.to_pandas()
    lpd = lpd[lpd.k != 10]
    lpd = (
        __import__("pandas")
        .concat([lpd, up.to_pandas()])
        .reset_index(drop=True)
    )
    rpd = rt.to_pandas()
    rpd = rpd[rpd.ry < 50]
    exp = lpd.merge(rpd, on="k").sort_values("k").reset_index(drop=True)
    assert got[["k", "lx", "ry"]].equals(
        exp[["k", "lx", "ry"]].astype(got[["k", "lx", "ry"]].dtypes.to_dict())
    )


def test_bucket_ids_string_keys_and_nulls(ray_session):
    a = pa.array(["alpha", "beta", None, "alpha", ""])
    b = T._bucket_ids(a, 16)
    assert b[0] == b[3]          # deterministic per value
    assert b[2] == 0             # nulls -> bucket 0
    # int width independence: int32 and int64 of the same value co-bucket
    i32 = T._bucket_ids(pa.array([7, 42], pa.int32()), 16)
    i64 = T._bucket_ids(pa.array([7, 42], pa.int64()), 16)
    assert list(i32) == list(i64)


def test_explain_table_scan(ray_session, tmp_path):
    d = str(tmp_path / "t")
    T.table_write(rd.from_arrow(_mk(0, 1000)).repartition(2), d)
    T.table_write(rd.from_arrow(_mk(5000, 6000)).repartition(2), d)
    T.table_delete(d, ("k", "<", 100), mode="equality")
    ex = T.explain_table_scan(d, predicate=("k", ">=", 5000))
    assert ex["files_live"] == 4
    assert ex["files_admitted"] == 2          # manifest stats drop low-k files
    assert ex["files_clean"] == 2             # eq delete can't touch k>=5000
    assert ex["files_merge_on_read"] == 0
    assert ex["delete_entries_equality"] == 1
    ex2 = T.explain_table_scan(d, predicate=("k", "<", 200))
    # only the file whose key range overlaps [0,200) is admitted, and the
    # equality delete makes exactly that file take the merge-on-read path
    assert ex2["files_admitted"] == ex2["files_merge_on_read"] >= 1
    assert ex2["files_clean"] == 0


def test_wap_branch_staging_and_publish(ray_session, tdir):
    T.table_write(rd.from_arrow(_mk(0, 500)), tdir)
    T.table_write(rd.from_arrow(_mk(500, 800)), tdir, branch="audit")
    assert len(_scan_pd(tdir)) == 500          # invisible to main
    assert T.table_scan(tdir, branch="audit").count() == 800  # fork + stage
    T.table_write(rd.from_arrow(_mk(800, 900)), tdir, branch="audit")
    assert len(_scan_pd(tdir)) == 500
    T.table_fast_forward(tdir, "audit")
    assert list(_scan_pd(tdir)["k"]) == list(range(900))
    hist = T.table_history(tdir).to_pylist()
    assert [h["branch"] for h in hist] == ["main", "audit", "audit", "main"]
    assert hist[-1]["op"] == "publish"
    # expiring the branch snapshots must NOT reclaim published files
    T.table_vacuum(tdir, keep_last=1)
    assert len(_scan_pd(tdir)) == 900


def test_main_appends_build_on_main_not_branch(ray_session, tdir):
    T.table_write(rd.from_arrow(_mk(0, 100)), tdir)
    T.table_write(rd.from_arrow(_mk(100, 300)), tdir, branch="b")
    v = T.table_write(rd.from_arrow(_mk(300, 350)), tdir)
    snap = T.load_snapshot(tdir, v)
    assert snap["parent"] == 1                  # main head, not the branch
    assert len(_scan_pd(tdir)) == 150
    assert T.table_scan(tdir, branch="b").count() == 300


def test_compact_merges_concurrent_append(ray_session, tdir, monkeypatch):
    """A commit landing between compaction's snapshot read and its publish
    must survive: appends merge, they are not clobbered by the rewrite."""
    T.table_write(rd.from_arrow(_mk(0, 500)).repartition(2), tdir)
    T.table_write(rd.from_arrow(_mk(500, 800)).repartition(2), tdir)
    real_commit = T._commit
    state = {"raced": False}

    def racing_commit(table_dir, op, build, branch="main"):
        if op == "compact" and not state["raced"]:
            state["raced"] = True
            T.table_write(rd.from_arrow(_mk(800, 900)), table_dir)
        return real_commit(table_dir, op, build, branch)

    monkeypatch.setattr(T, "_commit", racing_commit)
    T.table_compact(tdir, target_bytes=64 << 20)
    df = _scan_pd(tdir)
    assert len(df) == 900  # concurrent append's 100 rows survived
    assert df["k"].tolist() == list(range(900))
    snap = T.load_snapshot(tdir)
    assert snap["summary"]["rows"] == 900


def test_compact_conflicts_with_concurrent_delete(ray_session, tdir, monkeypatch):
    """A concurrent delete targeting compacted files cannot merge soundly
    (positions moved / equality sequence gates break) -> loud conflict."""
    T.table_write(rd.from_arrow(_mk(0, 500)).repartition(2), tdir)
    real_commit = T._commit
    state = {"raced": False}

    def racing_commit(table_dir, op, build, branch="main"):
        if op == "compact" and not state["raced"]:
            state["raced"] = True
            T.table_delete(table_dir, [[("k", "<", 10)]])
        return real_commit(table_dir, op, build, branch)

    monkeypatch.setattr(T, "_commit", racing_commit)
    with pytest.raises(RuntimeError, match="conflict"):
        T.table_compact(tdir, target_bytes=64 << 20)
    # and the table still honors the delete that won
    assert len(_scan_pd(tdir)) == 490


def test_equality_delete_scan_reads_each_manifest_once(ray_session, tdir, monkeypatch):
    """An equality delete refines by the per-file stats the manifest
    admission already read: the scan reads the manifest part once for the
    schema (`_table_plan`) and once for admission, never a third time."""
    T.table_write(rd.from_arrow([_mk(i * 300, (i + 1) * 300) for i in range(4)]), tdir)
    T.table_delete(tdir, ("k", "<", 100), mode="equality")
    reads = []
    for mod in (T, nio):
        real = mod.read_par1

        def spy(path, *a, _real=real, **kw):
            if f"/{T.MANIFEST_DIR}/" in path:
                reads.append(path)
            return _real(path, *a, **kw)

        monkeypatch.setattr(mod, "read_par1", spy)
    ex = T.explain_table_scan(tdir, predicate=("k", ">=", 500))
    assert (ex["files_admitted"], ex["files_clean"]) == (3, 3)  # stats clear the delete
    reads.clear()
    got = T.table_scan(tdir, predicate=("k", ">=", 500)).to_pandas()
    assert len(reads) == 2 and len(set(reads)) == 1
    assert sorted(got["k"]) == list(range(500, 1200))
