"""Snapshot/transaction layer over native PAR1 dataset directories.

The reference engine's lifecycle ends at one file (`writer/writer.go`
Flush/WriteStop close a single PAR1 stream); a 100 TB corpus instead lives
as a DIRECTORY of immutable parts that must evolve — appends land while
scans run, bad records need retraction, small files need compaction, and a
botched job needs rollback.  This module adds the minimal
Iceberg/Delta-style mechanics (public designs) over the engine's own
files, all Ray-Data-first:

* **Snapshot log** — ``<table>/_snapshots/v0000000001.json`` etc.  Each
  snapshot holds only O(commit-count) state: a list of PARQUET MANIFEST
  files (one set per committing txn, written distributedly through the
  engine's own sink with per-file stats), the delete-file list, and a
  rows/bytes summary.  The live data-file set is the union of the
  manifests — the driver never serializes a 10^6-entry file list into
  JSON, and an append commit costs O(its own new files), not O(table).
  Commits are atomic and optimistically concurrent: the snapshot body is
  published to its version name with ``uri.publish(keep_first=True)`` — a
  concurrent committer losing the race sees the name taken and retries
  against the new parent, so two writers never tear a snapshot
  and concurrent appends merge instead of clobbering.
* **Time travel** — ``table_scan(dir, version=N)`` reads the table exactly
  as committed at version N; ``table_rollback`` makes an old state current
  with a new commit (history is never rewritten).
* **Merge-on-read deletes** — ``table_delete(dir, predicate)`` writes
  POSITION-delete parquet files ``(file_path, pos)`` through the engine's
  own sink (Iceberg v2 position-delete analog); scans subtract the
  positions per data file.  Data files are never rewritten at delete time;
  ``table_compact`` later folds the deletes in and restores full
  page-pruned scans.
* **Vacuum** — removes files NO retained snapshot references (failed-txn
  orphans, compacted-away parts and their manifests), never anything a
  live version still needs.

Scans prune whole files from the manifests' per-file stats before any
data task spawns, through the rung datasets use (``native_io.
_manifest_admit``, the predicate typed against the table schema) — inline
for small tables, fanned out over the manifest parts' row groups past
``_MANIFEST_DISTRIBUTE_THRESHOLD`` so the driver only ever holds the
admitted path listing.  Clean files then
take ``read_par1_dataset``'s full pruning ladder; position-deleted files
take a row-group-streamed merge path.
"""

from __future__ import annotations

import json
import math
import os
import uuid

import numpy as np
import pyarrow as pa

import ray.data as rd

from .. import uri
from ..formats.par1 import (
    _normalize_predicate,
    _schema_tree,
    dnf_mask,
    read_par1,
    read_par1_meta,
    read_par1_pruned,
)
from .native_io import (
    _block_writer,
    _fan_out,
    _manifest_admit,
    _manifest_admits_file,
    _manifest_table,
    _pack_bins,
    _run_in_slots,
    _stats_from_json,
    _stream,
    from_json_stat,
    read_par1_dataset,
    to_json_stat,
    write_par1_dataset,
)

SNAP_DIR = "_snapshots"
DATA_DIR = "data"
DELETE_DIR = "_deletes"
MANIFEST_DIR = "_manifests"

# manifest rows per manifest part: one row group's worth of listing per
# distributed-admission task, a few MB of stats JSON per part
_MANIFEST_PART_ROWS = 65536


def _snap_dir(table_dir: str) -> str:
    return os.path.join(table_dir, SNAP_DIR)


def _snap_path(table_dir: str, version: int) -> str:
    return os.path.join(_snap_dir(table_dir), f"v{version:010d}.json")


def table_versions(table_dir: str) -> list[int]:
    """Committed snapshot versions, ascending ([] for a fresh directory)."""
    d = _snap_dir(table_dir)
    if not os.path.isdir(d):
        return []
    out = []
    for n in os.listdir(d):
        if n.startswith("v") and n.endswith(".json") and ".tmp." not in n:
            out.append(int(n[1:-5]))
    return sorted(out)


def load_snapshot(
    table_dir: str, version: int | None = None, branch: str = "main"
) -> dict:
    """The snapshot dict at `version`, or the HEAD of `branch` (default:
    main — commits staged on other branches are invisible to it).
    Snapshots written before branching existed carry no branch field and
    read as main."""
    if version is not None:
        with open(_snap_path(table_dir, version)) as f:
            return json.load(f)
    vs = table_versions(table_dir)
    if not vs:
        raise FileNotFoundError(f"no snapshots under {table_dir}")
    for v in reversed(vs):
        with open(_snap_path(table_dir, v)) as f:
            snap = json.load(f)
        if snap.get("branch", "main") == branch:
            return snap
    raise FileNotFoundError(f"no snapshots on branch {branch!r} under {table_dir}")


def _commit(table_dir: str, op: str, build, branch: str = "main") -> int:
    """Atomic optimistic commit: ``build(parent_snapshot_or_None)`` returns
    {"manifests": [...], "deletes": [...], "summary": {...}} for the new
    snapshot.  The keep-first publish is all-or-nothing; losing a race
    re-reads the parent and rebuilds, so appends merge instead of
    clobbering each other.  The table's bucket spec (a layout property,
    fixed at creation) carries over from the parent unless the body sets
    it explicitly.  `branch` commits build on that branch's head (a NEW
    branch forks from main's head) while version numbers stay one global
    sequence — main readers skip branch snapshots."""
    while True:
        vs = table_versions(table_dir)
        parent = None
        if vs:
            try:
                parent = load_snapshot(table_dir, branch=branch)
            except FileNotFoundError:
                parent = load_snapshot(table_dir)  # fork from main head
        body = build(parent)
        if "bucket" not in body and parent and parent.get("bucket"):
            body = {**body, "bucket": parent["bucket"]}
        v = (vs[-1] + 1) if vs else 1
        snap = {
            "version": v,
            "parent": parent["version"] if parent else None,
            "op": op,
            "branch": branch,
            **body,
        }

        def write(target):
            with uri.open_any(target, "w") as f:
                json.dump(snap, f)
                f.flush()
                os.fsync(f.fileno())

        if uri.publish(_snap_path(table_dir, v), write, keep_first=True):
            return v
        # a concurrent committer won this version; retry on the new parent


def _sink_manifest(
    table_dir: str, txn: str, man: rd.Dataset
) -> tuple[list[str], dict]:
    """Persist a sink's manifest rows as PARQUET MANIFEST PARTS under
    ``_manifests/<txn>/`` — distributed through the engine's own writer, so
    the driver holds only the (tiny) manifest-of-manifests listing, never
    the per-data-file rows.  Paths are stored RELATIVE to the table root
    (relocatable).  Returns (manifest rel paths, {"files","rows","bytes"}
    summary)."""
    man = man.filter(expr="rows > 0").materialize()
    n = man.count()
    if n == 0:
        return [], {"files": 0, "rows": 0, "bytes": 0}
    summary = {
        "files": n,
        "rows": int(man.sum("rows")),
        "bytes": int(man.sum("bytes")),
    }

    def relativize(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        rels = pa.array(
            [os.path.relpath(p, table_dir) for p in batch["path"].to_pylist()],
            pa.string(),
        )
        return batch.set_column(batch.schema.get_field_index("path"), "path", rels)

    mm = write_par1_dataset(
        man.repartition(max(1, math.ceil(n / _MANIFEST_PART_ROWS))).map_batches(
            relativize, batch_format="pyarrow"
        ),
        os.path.join(table_dir, MANIFEST_DIR, txn),
        codec="zstd",
        encodings={"path": "delta_ba", "partition": "dict"},
        row_group_rows=8192,
    ).take_all()
    rels = [
        os.path.relpath(r["path"], table_dir) for r in mm if r["rows"] > 0
    ]
    return sorted(rels), summary


def _live_entries(table_dir: str, snap: dict) -> list[dict]:
    """Driver-side listing of the snapshot's live data files: the union of
    its manifest parts, with per-file stats.  O(file count) — the same
    scale of state every distributed scan already holds to spawn tasks."""
    out: list[dict] = []
    for m in snap["manifests"]:
        t = read_par1(
            os.path.join(table_dir, m), columns=["path", "rows", "bytes", "stats"]
        )
        out.extend(t.to_pylist())
    return out


def _manifest_paths(table_dir: str, snap: dict) -> list[str]:
    return [os.path.join(table_dir, m) for m in snap["manifests"]]


def _table_plan(table_dir: str, snap: dict, predicate) -> tuple[dict, list]:
    """(the table schema's column types, the predicate as DNF typed against
    them).  The schema is the first live data file's ({} for a snapshot
    with no data files)."""
    types: dict = {}
    if snap["manifests"]:
        first = read_par1(
            _manifest_paths(table_dir, snap)[0], columns=["path"], row_groups=[0]
        )["path"][0].as_py()
        nodes = _schema_tree(read_par1_meta(os.path.join(table_dir, first)))
        types = {n.name: n.type for n in nodes}
    return types, _normalize_predicate(predicate, types)


BUCKET_COL = "_bucket"


def _bucket_ids(arr, n: int) -> np.ndarray:
    """Stable bucket assignment: spec-stable XXH64 (the engine's own
    bloom-filter hash — golden-vector tested, never polars/python hash)
    over the key's plain-encoded bytes, mod n.  Integer keys hash as
    int64 LE regardless of storage width; string/binary keys hash raw
    bytes; nulls land in bucket 0."""
    import pyarrow.compute as pc

    from ..formats.bloom import hash_arrow_values
    from ..formats.parquet_meta import PT_BYTE_ARRAY, PT_INT64

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    t = arr.type
    if pa.types.is_integer(t):
        pt, fill = PT_INT64, pa.scalar(0, pa.int64())
        arr = arr.cast(pa.int64())
    elif pa.types.is_string(t) or pa.types.is_large_string(t) or pa.types.is_binary(t):
        pt, fill = PT_BYTE_ARRAY, pa.scalar("", t)
    else:
        raise ValueError(f"bucket_by supports integer and string/binary keys, not {t}")
    nulls = None
    if arr.null_count:
        nulls = pc.is_null(arr).to_numpy(zero_copy_only=False)
        arr = arr.fill_null(fill)
    h = hash_arrow_values(arr, pt)
    b = (h % np.uint64(n)).astype(np.int64)
    if nulls is not None:
        b[nulls] = 0
    return b


def _apply_bucketing(ds: rd.Dataset, spec: dict) -> rd.Dataset:
    col, n = spec["col"], int(spec["n"])

    def add(batch: pa.Table) -> pa.Table:
        if BUCKET_COL in batch.schema.names:
            return batch
        return batch.append_column(
            BUCKET_COL, pa.array(_bucket_ids(batch[col], n), pa.int64())
        )

    return ds.map_batches(add, batch_format="pyarrow")


def _bucket_of(rel: str) -> int | None:
    for part in rel.replace(os.sep, "/").split("/"):
        if part.startswith(f"{BUCKET_COL}="):
            return int(part.split("=", 1)[1])
    return None


def table_write(
    ds: rd.Dataset,
    table_dir: str,
    mode: str = "append",
    txn_id: str | None = None,
    bucket_by: tuple[str, int] | None = None,
    branch: str = "main",
    **write_kwargs,
) -> int:
    """Commit a Dataset into the table: data parts stream through
    ``write_par1_dataset`` into ``data/<txn>/`` (content-named, atomic,
    skip-existing — re-running a failed txn with the same `txn_id` resumes
    its encode), their manifest rows stream into parquet manifest parts
    under ``_manifests/<txn>/``, then ONE snapshot publishes the manifest
    refs.  `mode="append"` adds to the parent's manifest list;
    `mode="overwrite"` replaces it (old files stay on disk for time travel
    until vacuumed).

    `bucket_by=(col, n)` declares a BUCKETED layout at table creation (or
    overwrite): every commit hash-partitions its rows by the stable bucket
    of `col` into ``_bucket=<i>/`` hive directories (the ``_bucket``
    column stays in the files).  Appends inherit and enforce the spec —
    two tables bucketed the same way join bucket-to-bucket with NO
    shuffle (``table_bucket_join``), the co-partitioned layout a 100 TB
    fact-to-fact join needs.

    `branch`: write-audit-publish staging — a commit on a non-main branch
    is INVISIBLE to main readers until ``table_fast_forward`` publishes
    the branch head (a new branch forks from main's current state).
    Returns the new version."""
    if mode not in ("append", "overwrite"):
        raise ValueError(f"mode {mode!r}")
    spec = (
        {"col": bucket_by[0], "n": int(bucket_by[1])} if bucket_by is not None else None
    )
    vs = table_versions(table_dir)
    parent_spec = None
    if vs:
        try:
            parent_spec = load_snapshot(table_dir, branch=branch).get("bucket")
        except FileNotFoundError:
            parent_spec = load_snapshot(table_dir).get("bucket")
    if mode == "append" and vs:
        if parent_spec:
            if spec is not None and spec != parent_spec:
                raise ValueError(
                    f"table is bucketed by {parent_spec}; append cannot rebucket"
                )
            spec = parent_spec
        elif spec is not None:
            raise ValueError(
                "bucket_by on append to an unbucketed table; use mode='overwrite'"
            )
    if spec:
        ds = _apply_bucketing(ds, spec)
        write_kwargs = {**write_kwargs, "partition_by": BUCKET_COL}
    txn = txn_id or uuid.uuid4().hex[:12]
    out = os.path.join(table_dir, DATA_DIR, txn)
    man = write_par1_dataset(ds, out, **write_kwargs)
    rels, summary = _sink_manifest(table_dir, txn, man)
    if not rels and mode == "append":
        raise ValueError("table_write: empty dataset append")

    def build(parent):
        if mode == "overwrite" or parent is None:
            return {
                "manifests": rels, "deletes": [], "summary": summary,
                "bucket": spec,
            }
        have = set(parent["manifests"])
        return {
            "manifests": parent["manifests"] + [r for r in rels if r not in have],
            "deletes": list(parent["deletes"]),
            "summary": {
                k: parent["summary"][k] + summary[k] for k in ("files", "rows", "bytes")
            },
        }

    return _commit(table_dir, mode, build, branch=branch)


def _stat_bound(stats_json: str, col: str, which: str):
    v = _stats_from_json(stats_json).get(col, {}).get(which)
    return v.decode("utf-8", "replace") if isinstance(v, bytes) else v


def _write_position_deletes(
    table_dir: str, snap: dict, branches, txn: str
) -> list[dict]:
    """Find and persist the position-delete files for a DNF over the
    snapshot's live data: the manifest-admitted data files go out through
    ``_fan_out``; each file's exact mask is evaluated row-group by row-group
    into global row POSITIONS, which land as engine-written
    ``(file_path, pos)`` parquet files sorted by file_path (tight stats ->
    scans load only the delete files covering their data file).  Returns
    the new delete entries ([] when nothing matched)."""
    pcols = sorted({c for br in branches for c, _op, _v in br})
    cand, _known = _manifest_admit(_manifest_paths(table_dir, snap), branches)
    if not cand:
        return []

    def positions(rel: str) -> pa.Table:
        fps: list[str] = []
        poss: list[int] = []
        p = os.path.join(table_dir, rel)
        base = 0
        for rg_i, rg in enumerate(read_par1_meta(p)["row_groups"]):
            tbl, _st = read_par1_pruned(p, pcols, None, row_groups=[rg_i])
            m = dnf_mask(tbl, branches)
            if m is None:
                hit = np.arange(tbl.num_rows, dtype=np.int64)
            else:
                if isinstance(m, pa.ChunkedArray):
                    m = m.combine_chunks()
                hit = np.flatnonzero(m.fill_null(False).to_numpy(zero_copy_only=False))
            fps.extend([rel] * len(hit))
            poss.extend((hit + base).tolist())
            base += rg["num_rows"]
        return pa.table(
            {"file_path": pa.array(fps, pa.string()), "pos": pa.array(poss, pa.int64())}
        )

    no_hits = pa.table(
        {"file_path": pa.array([], pa.string()), "pos": pa.array([], pa.int64())}
    )

    def find_positions(batch: pa.Table):
        return _stream(map(positions, batch["path"].to_pylist()), no_hits)

    pos_ds = _fan_out(
        [{"path": p} for p in cand], list(cand.values())
    ).map_batches(find_positions, batch_format="pyarrow", batch_size=None)
    n_parts = max(1, len(cand) // 64)
    man = write_par1_dataset(
        pos_ds.repartition(n_parts),
        os.path.join(table_dir, DELETE_DIR, txn),
        codec="zstd",
        encodings={"file_path": "dict", "pos": "delta_bp"},
        sort_by="file_path",
    ).take_all()
    new_del = []
    for r in man:
        if r["rows"] == 0:
            continue
        new_del.append(
            {
                "path": os.path.relpath(r["path"], table_dir),
                "rows": r["rows"],
                "min_file": _stat_bound(r["stats"], "file_path", "min"),
                "max_file": _stat_bound(r["stats"], "file_path", "max"),
            }
        )
    return new_del


def table_delete(
    table_dir: str, predicate, txn_id: str | None = None, mode: str = "position"
) -> int:
    """Merge-on-read row deletion (``dnf_mask`` exact semantics — SQL null
    comparisons never delete).  ``mode="position"`` scans the affected
    files NOW and lands exact position-delete files (reads stay cheap);
    ``mode="equality"`` records only the predicate plus the set of txns it
    applies to — an O(1) commit that never touches a data file (the
    Iceberg v2 equality-delete trade: cheap writes, scans re-evaluate the
    predicate on affected files until compaction folds it in).  Rows
    appended AFTER an equality delete are never retracted by it, even when
    they match.  No data file is rewritten in either mode.  Returns the
    new version (a position delete that matches nothing is a no-op, not a
    commit)."""
    if mode not in ("position", "equality"):
        raise ValueError(f"mode {mode!r}")
    snap = load_snapshot(table_dir)
    _types, branches = _table_plan(table_dir, snap, predicate)
    if not branches:
        raise ValueError("table_delete needs a predicate")
    if mode == "equality":
        pred_json = _pred_to_json(branches)

        def build_eq(parent):
            if parent is None:
                raise RuntimeError("delete against a vanished table")
            entry = {
                "kind": "eq",
                "pred": pred_json,
                "txns": sorted({_txn_of(m) for m in parent["manifests"]}),
            }
            return {
                "manifests": list(parent["manifests"]),
                "deletes": list(parent["deletes"]) + [entry],
                "summary": dict(parent["summary"]),
            }

        return _commit(table_dir, "delete", build_eq)
    txn = txn_id or uuid.uuid4().hex[:12]
    new_del = _write_position_deletes(table_dir, snap, branches, txn)
    if not new_del:
        return snap["version"]

    def build(parent):
        if parent is None:
            raise RuntimeError("delete against a vanished table")
        return {
            "manifests": list(parent["manifests"]),
            "deletes": list(parent["deletes"]) + new_del,
            "summary": dict(parent["summary"]),
        }

    return _commit(table_dir, "delete", build)


def table_upsert(
    ds: rd.Dataset,
    table_dir: str,
    key: str,
    txn_id: str | None = None,
    deletes: str = "position",
    **write_kwargs,
) -> int:
    """MERGE-style atomic upsert by key: rows of `ds` REPLACE existing rows
    with the same `key` value and INSERT otherwise, in ONE commit — a
    reader never observes the deleted-but-not-reinserted intermediate
    state.

    ``deletes="position"``: the incoming key set (upsert-batch-sized, held
    once on the driver and shipped as an `in` predicate) drives
    position-delete files over manifest-admitted data files — the upsert
    READS the key column of every admitted data file now, and scans stay
    cheap.  ``deletes="equality"``: the key column of `ds` itself lands as
    Iceberg-v2-style EQUALITY-delete files — the commit cost is O(upsert
    batch) and NO existing data file is read (the streaming-CDC-ingest
    shape); scans anti-join affected files against the key sets until
    compaction folds the debt in.  Either way, matched old rows stay
    physically present for time travel until compaction/vacuum.  Incoming
    keys must be unique (the caller's contract, as in Iceberg MERGE);
    duplicate keys in `ds` would land as duplicate rows."""
    if deletes not in ("position", "equality"):
        raise ValueError(f"deletes {deletes!r}")
    snap = load_snapshot(table_dir)
    txn = txn_id or uuid.uuid4().hex[:12]
    spec = snap.get("bucket")
    if spec:  # bucketed layout is a table invariant: upserted rows follow it
        ds = _apply_bucketing(ds, spec)
        write_kwargs = {**write_kwargs, "partition_by": BUCKET_COL}
    ds = ds.materialize()  # consumed twice: key collection + the sink
    if deletes == "equality":
        kman = write_par1_dataset(
            ds.select_columns([key]),
            os.path.join(table_dir, DELETE_DIR, txn),
            codec="zstd",
            sort_by=key,
        ).take_all()
        new_del = []
        for r in kman:
            if r["rows"] == 0:
                continue
            st = json.loads(r["stats"]).get(key, {})
            new_del.append(
                {
                    "kind": "eqfile",
                    "col": key,
                    "path": os.path.relpath(r["path"], table_dir),
                    "rows": r["rows"],
                    "min_key": st.get("min"),  # already JSON-safe (b64 dict for bytes)
                    "max_key": st.get("max"),
                }
            )
        if not new_del:
            raise ValueError("table_upsert: empty dataset")
    else:
        keys = ds.unique(key)
        if not keys:
            raise ValueError("table_upsert: empty dataset")
        _types, branches = _table_plan(table_dir, snap, (key, "in", keys))
        new_del = _write_position_deletes(table_dir, snap, branches, txn)
    man = write_par1_dataset(
        ds, os.path.join(table_dir, DATA_DIR, txn), **write_kwargs
    )
    rels, summary = _sink_manifest(table_dir, txn, man)

    def build(parent):
        if parent is None:
            raise RuntimeError("upsert against a vanished table")
        have = set(parent["manifests"])
        dels = list(new_del)
        if deletes == "equality":
            txns = sorted({_txn_of(m) for m in parent["manifests"]})
            dels = [{**d, "txns": txns} for d in dels]
        return {
            "manifests": parent["manifests"] + [r for r in rels if r not in have],
            "deletes": list(parent["deletes"]) + dels,
            "summary": {
                k: parent["summary"][k] + summary[k] for k in ("files", "rows", "bytes")
            },
        }

    return _commit(table_dir, "upsert", build)


def table_changes(
    table_dir: str,
    from_version: int,
    to_version: int | None = None,
    columns: list[str] | None = None,
) -> rd.Dataset:
    """Incremental (CDC-style) scan: the rows ADDED by commits after
    `from_version` up to `to_version` (default head) — exactly the files
    in manifests the later snapshot has and the earlier lacks, read
    as-written (append-time content, before any later deletes; retractions
    travel separately as the snapshots' delete entries).  This is how a
    downstream consumer tails a 100 TB ingest table without rescanning
    it."""
    to_snap = load_snapshot(table_dir, to_version)
    from_snap = load_snapshot(table_dir, from_version)
    new_manifests = [
        m for m in to_snap["manifests"] if m not in set(from_snap["manifests"])
    ]
    if not new_manifests:
        types, _ = _table_plan(table_dir, to_snap, None)
        if not types:
            raise ValueError("table_changes: empty table")
        names = list(columns) if columns is not None else list(types)
        return rd.from_arrow(
            pa.table({nm: pa.chunked_array([], type=types[nm]) for nm in names})
        )
    paths: list[str] = []
    for m in new_manifests:
        paths.extend(
            read_par1(os.path.join(table_dir, m), columns=["path"])["path"].to_pylist()
        )
    return read_par1_dataset(
        [os.path.join(table_dir, p) for p in paths], columns=columns
    )


def _deletes_for_file(snap: dict, rel: str) -> list[str]:
    """POSITION-delete-file rel paths whose [min_file, max_file] key range
    admits this data file (bounds come from the delete part's own column
    stats — sound under the writer's 64-byte truncation)."""
    out = []
    for d in snap["deletes"]:
        if d.get("kind", "pos") != "pos":
            continue
        lo, hi = d.get("min_file"), d.get("max_file")
        if (lo is None or lo <= rel) and (hi is None or rel <= hi):
            out.append(d["path"])
    return out


def _txn_of(rel: str) -> str:
    """The committing txn id encoded in a data/manifest/delete rel path
    (``data/<txn>/...``, ``_manifests/<txn>/...``, ``_deletes/<txn>/...``)."""
    return rel.replace(os.sep, "/").split("/")[1]


def _pred_to_json(branches) -> list:
    """Normalized DNF branches -> JSON-safe nesting (``to_json_stat``)."""
    return [[[c, op, to_json_stat(v)] for c, op, v in br] for br in branches]


def _pred_from_json(obj) -> list[list[tuple[str, str, object]]]:
    return [[(c, op, from_json_stat(v)) for c, op, v in br] for br in obj]


def _eq_deletes_for_file(snap: dict, rel: str, stats_json: str | None = None):
    """EQUALITY-delete entries applicable to this data file.  Sequence
    gating is by txn: an equality delete records the txns whose manifests
    were live when it committed, so rows APPENDED AFTER the delete (a new
    txn) are never retracted — Iceberg v2 sequence-number semantics.  When
    the caller has the file's manifest stats, entries whose predicate /
    key range provably can't match any row in the file are dropped (the
    file stays clean and keeps the full pruning ladder)."""
    txn = _txn_of(rel)
    stats = None
    if stats_json:
        try:
            stats = _stats_from_json(stats_json)
        except Exception:
            stats = None
    out = []
    for d in snap["deletes"]:
        kind = d.get("kind", "pos")
        if kind not in ("eq", "eqfile"):
            continue
        if txn not in set(d["txns"]):
            continue
        if stats is not None:
            if kind == "eq" and not _manifest_admits_file(
                stats, _pred_from_json(d["pred"])
            ):
                continue
            if kind == "eqfile":
                lo = _json_bound(d.get("min_key"))
                hi = _json_bound(d.get("max_key"))
                br = [(d["col"], ">=", lo)] if lo is not None else []
                if hi is not None:
                    br.append((d["col"], "<=", hi))
                if br and not _manifest_admits_file(stats, [br]):
                    continue
        out.append(d)
    return out


_json_bound = from_json_stat  # bucket-bound values use the same wire encoding


def _eq_value_sets(table_dir: str, eq_dels: list[dict]) -> list:
    """Materialize each applicable equality delete as an evaluator input:
    ("pred", branches) for inline predicates, ("vals", col, pa.Array) for
    key-set delete files (the file is delete-batch-sized, read once per
    data-file task)."""
    out = []
    for d in eq_dels:
        if d.get("kind") == "eq":
            out.append(("pred", _pred_from_json(d["pred"])))
        else:
            t = read_par1(os.path.join(table_dir, d["path"]), columns=[d["col"]])
            out.append(("vals", d["col"], t[d["col"]].combine_chunks()))
    return out


def _apply_eq_deletes(tbl: pa.Table, evals: list) -> pa.Table:
    """Subtract equality-deleted rows: a row goes iff the delete predicate
    is TRUE for it (SQL semantics — null comparisons never delete)."""
    import pyarrow.compute as pc

    from ..formats.par1 import dnf_mask as _dnf

    for ev in evals:
        if tbl.num_rows == 0:
            break
        if ev[0] == "pred":
            m = _dnf(tbl, ev[1])
            if m is None:  # predicate matches every row
                tbl = tbl.slice(0, 0)
                continue
            if isinstance(m, pa.ChunkedArray):
                m = m.combine_chunks()
            tbl = tbl.filter(pc.invert(m.fill_null(False)))
        else:
            _tag, col, vals = ev
            if len(vals) == 0:
                continue
            hit = pc.is_in(tbl[col], value_set=vals)
            tbl = tbl.filter(pc.invert(hit.fill_null(False)))
    return tbl


def _positions_for_file(table_dir: str, del_paths: list[str], rel: str):
    pos: list[np.ndarray] = []
    for dp in del_paths:
        tbl, _st = read_par1_pruned(
            os.path.join(table_dir, dp), ["pos"], ("file_path", "==", rel)
        )
        if tbl.num_rows:
            pos.append(tbl["pos"].to_numpy(zero_copy_only=False))
    if not pos:
        return None
    return np.unique(np.concatenate(pos))


def _read_file_with_deletes(
    table_dir: str,
    rel: str,
    del_paths: list[str],
    columns: list[str],
    branches,
    eq_dels: list[dict] | None = None,
) -> pa.Table:
    """Full-fidelity read of one delete-affected data file: each row group
    reads whole (positions are file-global, so page pruning is off for
    dirty files — compaction restores it), the position mask drops deleted
    rows, applicable equality deletes subtract matching rows, then the
    exact scan DNF applies.  Row-group streaming keeps the working set one
    row group, not one file."""
    p = os.path.join(table_dir, rel)
    meta = read_par1_meta(p)
    need = list(columns)
    for br in branches:
        for c, _op, _v in br:
            if c not in need:
                need.append(c)
    evals = _eq_value_sets(table_dir, eq_dels or [])
    for ev in evals:
        cols = [c for br in ev[1] for c, _o, _v in br] if ev[0] == "pred" else [ev[1]]
        for c in cols:
            if c not in need:
                need.append(c)
    positions = _positions_for_file(table_dir, del_paths, rel)
    out: list[pa.Table] = []
    base = 0
    for rg_i, rg in enumerate(meta["row_groups"]):
        n = rg["num_rows"]
        tbl, _st = read_par1_pruned(p, need, None, row_groups=[rg_i])
        if positions is not None:
            loc = positions[(positions >= base) & (positions < base + n)] - base
            if len(loc):
                keep = np.ones(n, dtype=bool)
                keep[loc] = False
                tbl = tbl.filter(pa.array(keep))
        if evals and tbl.num_rows:
            tbl = _apply_eq_deletes(tbl, evals)
        if branches and tbl.num_rows:
            m = dnf_mask(tbl, branches)
            if m is not None:
                tbl = tbl.filter(m)
        out.append(tbl.select(columns))
        base += n
    return pa.concat_tables(out)


def _admit_split(
    table_dir: str, snap: dict, branches
) -> tuple[dict[str, int], set[str], list[str], list[tuple[str, list[str], list[dict]]]]:
    """({admitted rel: bytes}, every listed rel, delete-free rels, merge-on-read
    (rel, position delete files, equality deletes)) of the snapshot's live
    files under `branches` (``_manifest_admit``).  Equality deletes refine
    by the per-file stats the inline admission read; past its threshold
    they gate by txn only (more merge-on-read files, never a wrong row)."""
    stats = {} if any(d.get("kind") in ("eq", "eqfile") for d in snap["deletes"]) else None
    admitted, known = _manifest_admit(_manifest_paths(table_dir, snap), branches, stats)
    clean: list[str] = []
    dirty: list[tuple[str, list[str], list[dict]]] = []
    for rel in admitted:
        dels = _deletes_for_file(snap, rel)
        eqs = _eq_deletes_for_file(snap, rel, (stats or {}).get(rel))
        (dirty.append((rel, dels, eqs)) if dels or eqs else clean.append(rel))
    return admitted, known, clean, dirty


def table_scan(
    table_dir: str,
    version: int | None = None,
    columns: list[str] | None = None,
    predicate=None,
    branch: str = "main",
    **read_kwargs,
) -> rd.Dataset:
    """Snapshot-consistent distributed scan (optionally time-traveled via
    `version`, or of a staging `branch` head).
    The manifests ARE the scan index: per-file stats prune whole files
    before any data task spawns (inline or distributed — ``_manifest_admit``,
    under the predicate typed against the table schema).
    Files untouched by deletes go through ``read_par1_dataset``'s full
    pruning ladder (row-group stats, ColumnIndex pages, blooms);
    position-deleted files take the merge-on-read path, packed into tasks
    by ``_fan_out`` from their manifest bytes.  The two streams union."""
    snap = load_snapshot(table_dir, version, branch=branch)
    if not snap["manifests"]:
        raise ValueError(f"snapshot v{snap['version']} has no data files")
    types, branches = _table_plan(table_dir, snap, predicate)
    live, _known, clean, dirty = _admit_split(table_dir, snap, branches)
    names = list(columns) if columns is not None else list(types)
    if not live:
        return rd.from_arrow(
            pa.table({nm: pa.chunked_array([], type=types[nm]) for nm in names})
        )
    parts: list[rd.Dataset] = []
    if clean:
        parts.append(
            read_par1_dataset(
                {os.path.join(table_dir, r): live[r] for r in clean},
                columns=names,
                predicate=predicate,
                **read_kwargs,
            )
        )
    if dirty:
        empty = pa.table({nm: pa.chunked_array([], type=types[nm]) for nm in names})

        def read_dirty(batch: pa.Table):
            return _stream(
                (
                    _read_file_with_deletes(
                        table_dir, rel, list(dps), names, branches,
                        eq_dels=json.loads(eqj),
                    )
                    for rel, dps, eqj in zip(
                        batch["path"].to_pylist(),
                        batch["dels"].to_pylist(),
                        batch["eqs"].to_pylist(),
                    )
                ),
                empty,
            )

        items = _fan_out(
            [{"path": r, "dels": d, "eqs": json.dumps(e)} for r, d, e in dirty],
            [live[r] for r, _d, _e in dirty],
        )
        parts.append(
            items.map_batches(read_dirty, batch_format="pyarrow", batch_size=None)
        )
    return parts[0] if len(parts) == 1 else parts[0].union(*parts[1:])


def table_bucket_join(
    left_dir: str,
    right_dir: str,
    left_on: str,
    right_on: str | None = None,
    left_columns: list[str] | None = None,
    right_columns: list[str] | None = None,
    how: str = "inner",
    left_version: int | None = None,
    right_version: int | None = None,
) -> rd.Dataset:
    """SHUFFLE-FREE equi-join of two bucketed tables: both sides were
    hash-partitioned at write time by the same stable bucket function
    (``table_write(bucket_by=(key, n))``), so every join key pair lives in
    the same bucket id on both sides — each bucket joins independently
    (read left bucket files + right bucket files, one vectorized Arrow hash
    join) in tasks ``_fan_out`` packs by the buckets' bytes, with NO
    all-to-all exchange.  This is
    the co-partitioned fact-to-fact join: at 100 TB the alternative
    ``groupby``-style join moves every byte of both tables across the
    cluster; this moves nothing but the output.  Merge-on-read deletes on
    either side apply exactly (dirty files take the delete-merging path
    inside the bucket task).  ``how``: "inner" or "left".  Bucket counts
    must match; integer keys hash width-independently (int64 LE), so an
    int32 key joins an int64 key correctly."""
    if how not in ("inner", "left"):
        raise ValueError(f"how {how!r}")
    right_on = right_on or left_on
    lsnap = load_snapshot(left_dir, left_version)
    rsnap = load_snapshot(right_dir, right_version)
    lspec, rspec = lsnap.get("bucket"), rsnap.get("bucket")
    if not lspec or not rspec:
        raise ValueError("table_bucket_join needs bucket_by on both tables")
    if lspec["col"] != left_on or rspec["col"] != right_on:
        raise ValueError(
            f"join keys ({left_on}, {right_on}) must be the bucket columns "
            f"({lspec['col']}, {rspec['col']})"
        )
    if int(lspec["n"]) != int(rspec["n"]):
        raise ValueError(
            f"bucket counts differ: {lspec['n']} vs {rspec['n']} — rebucket one side"
        )

    def side(table_dir, snap, on, cols):
        live, _known, clean, dirty = _admit_split(table_dir, snap, [])
        if not live:
            raise ValueError(f"{table_dir}: no live data files")
        types, _ = _table_plan(table_dir, snap, None)
        names = list(types)
        sel = [c for c in (cols if cols is not None else names) if c != BUCKET_COL]
        if on not in sel:
            sel = [on] + sel
        unknown = [c for c in sel if c not in names]
        if unknown:
            raise ValueError(f"{table_dir}: unknown columns {unknown}")
        by_bucket: dict[int, list] = {}
        for rel in clean:
            b = _bucket_of(rel)
            if b is None:
                raise ValueError(f"{table_dir}: unbucketed data file {rel}")
            by_bucket.setdefault(b, []).append((rel, [], []))
        for rel, dels, eqs in dirty:
            b = _bucket_of(rel)
            if b is None:
                raise ValueError(f"{table_dir}: unbucketed data file {rel}")
            by_bucket.setdefault(b, []).append((rel, dels, eqs))
        empty = pa.table({c: pa.chunked_array([], type=types[c]) for c in sel})
        return by_bucket, sel, empty, live

    lbuckets, lsel, lempty, lbytes = side(left_dir, lsnap, left_on, left_columns)
    rbuckets, rsel, rempty, rbytes = side(right_dir, rsnap, right_on, right_columns)
    overlap = (set(lsel) & set(rsel)) - ({left_on} if left_on == right_on else set())
    if overlap:
        raise ValueError(
            f"output column collision {sorted(overlap)}: project with "
            "left_columns/right_columns"
        )
    join_type = "inner" if how == "inner" else "left outer"
    out_schema = lempty.join(
        rempty, keys=[left_on], right_keys=[right_on], join_type=join_type
    ).schema
    out_empty = pa.table(
        {f.name: pa.chunked_array([], type=f.type) for f in out_schema}
    )

    if how == "inner":
        todo = sorted(set(lbuckets) & set(rbuckets))
    else:
        todo = sorted(lbuckets)

    def read_side(table_dir, files, cols, empty):
        tabs = []
        for rel, dels, eqs in files:
            if dels or eqs:
                t = _read_file_with_deletes(table_dir, rel, list(dels), cols, [],
                                            eq_dels=list(eqs))
            else:
                t = read_par1(os.path.join(table_dir, rel), columns=cols)
            if t.num_rows:
                tabs.append(t)
        return pa.concat_tables(tabs) if tabs else empty

    lfiles = {b: lbuckets.get(b, []) for b in todo}
    rfiles = {b: rbuckets.get(b, []) for b in todo}

    def join_one(b: int) -> pa.Table | None:
        lt = read_side(left_dir, lfiles[b], lsel, lempty)
        rt = read_side(right_dir, rfiles[b], rsel, rempty)
        if lt.num_rows == 0 or (how == "inner" and rt.num_rows == 0):
            return None
        j = lt.join(rt, keys=[left_on], right_keys=[right_on], join_type=join_type)
        return j.select(out_schema.names).cast(out_schema)

    def join_bucket(batch: pa.Table):
        return _stream(map(join_one, batch["b"].to_pylist()), out_empty)

    if not todo:
        return rd.from_arrow(out_empty)
    return _fan_out(
        [{"b": b} for b in todo],
        [
            sum(lbytes[f[0]] for f in lfiles[b]) + sum(rbytes[f[0]] for f in rfiles[b])
            for b in todo
        ],
    ).map_batches(join_bucket, batch_format="pyarrow", batch_size=None)


def table_compact(
    table_dir: str,
    target_bytes: int = 128 << 20,
    txn_id: str | None = None,
    codec: str | dict = "snappy",
    encodings: dict | None = None,
    page_rows: int = 65536,
    bloom=None,
    sort_by: str | list[str] | None = None,
    page_bytes: int | None = None,
) -> int:
    """Copy-on-write maintenance: bin-pack the live files into
    ~`target_bytes` outputs, FOLDING IN every position delete (the
    merge-on-read debt is paid here, once), and commit the rewritten state
    as one fresh-manifest snapshot with an empty delete list.  Bins
    (``_pack_bins``, bucket-local) run in ``_fan_out`` tasks through the
    sink's block writer; the driver holds only the (path, bytes) listing.
    Old parts stay for time travel until ``table_vacuum``."""
    snap = load_snapshot(table_dir)
    entries = _live_entries(table_dir, snap)
    if not entries:
        raise ValueError("nothing to compact")
    txn = txn_id or uuid.uuid4().hex[:12]
    out_dir = os.path.join(table_dir, DATA_DIR, txn)
    # a bucketed layout is a table invariant: bin-pack WITHIN each bucket
    # and keep outputs under their _bucket=<i>/ directory
    bucketed = snap.get("bucket") is not None
    # bins follow path order, not the manifest's row order (the order in
    # which Ray finished the sink's write tasks): the same table always
    # compacts into the same parts
    bins = _pack_bins(
        [(_bucket_of(e["path"]) if bucketed else None, e["path"], e["bytes"])
         for e in sorted(entries, key=lambda e: e["path"])],
        target_bytes,
    )
    write = _block_writer(
        dict(codec=codec, encodings=encodings, page_rows=page_rows, bloom=bloom,
             page_bytes=page_bytes),
        sort_by=sort_by,
    )
    dels_by_file = {e["path"]: _deletes_for_file(snap, e["path"]) for e in entries}
    eqs_by_file = {
        e["path"]: _eq_deletes_for_file(snap, e["path"], e.get("stats"))
        for e in entries
    }
    first = os.path.join(table_dir, entries[0]["path"])
    all_cols = [n.name for n in _schema_tree(read_par1_meta(first))]

    def write_bin(_i: int, bin_: tuple) -> pa.Table:
        bkt, rels, _bytes = bin_
        merged = pa.concat_tables(
            _read_file_with_deletes(
                table_dir, rel, dels_by_file[rel], all_cols, [], eq_dels=eqs_by_file[rel]
            )
            for rel in rels
        )
        dest = out_dir if bkt is None else os.path.join(out_dir, f"{BUCKET_COL}={bkt}")
        return _manifest_table(write(merged, dest))

    man = _run_in_slots(bins, [b for _g, _p, b in bins], write_bin, _manifest_table([]))
    rels, summary = _sink_manifest(table_dir, txn, man)

    base = snap  # the snapshot this rewrite was computed against
    compacted = {e["path"] for e in entries}

    def build(parent):
        # Optimistic-concurrency validation (Iceberg RewriteFiles
        # semantics): commits that landed between `base` and `parent` must
        # not be clobbered by publishing only the rewritten state.
        #   * concurrent APPENDS merge (their manifests carry over);
        #   * a concurrent rewrite of the files we consumed, an equality
        #     delete (its sequence gate would exempt our re-written, later-
        #     sequence files), or a position delete touching a compacted
        #     file all CONFLICT -> raise; the caller re-runs compaction on
        #     the new head.
        if parent is None or parent["version"] == base["version"]:
            return {"manifests": rels, "deletes": [], "summary": summary}
        parent_mans = set(parent["manifests"])
        missing = [m for m in base["manifests"] if m not in parent_mans]
        if missing:
            raise RuntimeError(
                "table_compact conflict: concurrent commit removed manifests "
                f"this compaction consumed (e.g. {missing[0]!r}); re-run"
            )
        base_mans = set(base["manifests"])
        new_mans = [m for m in parent["manifests"] if m not in base_mans]
        base_dels = {json.dumps(d, sort_keys=True) for d in base["deletes"]}
        carried = []
        for d in parent["deletes"]:
            if json.dumps(d, sort_keys=True) in base_dels:
                continue  # folded into the rewrite
            if d.get("kind", "pos") != "pos":
                raise RuntimeError(
                    "table_compact conflict: concurrent equality delete "
                    "committed during compaction; re-run"
                )
            lo, hi = d.get("min_file"), d.get("max_file")
            if any(
                (lo is None or lo <= p) and (hi is None or p <= hi)
                for p in compacted
            ):
                raise RuntimeError(
                    "table_compact conflict: concurrent position delete "
                    "targets a compacted file; re-run"
                )
            carried.append(d)
        delta = {
            k: parent["summary"][k] - base["summary"][k]
            for k in ("files", "rows", "bytes")
        }
        return {
            "manifests": rels + new_mans,
            "deletes": carried,
            "summary": {k: summary[k] + delta[k] for k in ("files", "rows", "bytes")},
        }

    return _commit(table_dir, "compact", build)


def explain_table_scan(
    table_dir: str, version: int | None = None, predicate=None
) -> dict:
    """Observability for a snapshot scan's planning decisions WITHOUT
    reading data: how many live files the manifests hold, how many the
    per-file stats admit for this predicate, and how the admitted set
    splits into clean files (full pruning ladder) vs merge-on-read files
    (with their delete kinds).  All numbers come from snapshot JSON +
    manifest parquet only."""
    snap = load_snapshot(table_dir, version)
    _types, branches = _table_plan(table_dir, snap, predicate)
    admitted, live_all, clean, dirty = _admit_split(table_dir, snap, branches)
    kinds = {"pos": 0, "eq": 0, "eqfile": 0}
    for d in snap["deletes"]:
        kinds[d.get("kind", "pos")] += 1
    return {
        "version": snap["version"],
        "files_live": len(live_all),
        "files_admitted": len(admitted),
        "files_clean": len(clean),
        "files_merge_on_read": len(dirty),
        "delete_files_position": kinds["pos"],
        "delete_entries_equality": kinds["eq"] + kinds["eqfile"],
        "rows_committed": snap["summary"]["rows"],
        "bucket": snap.get("bucket"),
    }


def table_rollback(table_dir: str, version: int) -> int:
    """Make an earlier state current AGAIN via a new commit (append-only
    history — nothing is rewritten, so the rolled-back-from state stays
    inspectable)."""
    old = load_snapshot(table_dir, version)

    def build(parent):
        return {
            "manifests": list(old["manifests"]),
            "deletes": list(old["deletes"]),
            "summary": dict(old["summary"]),
            "bucket": old.get("bucket"),
        }

    return _commit(table_dir, "rollback", build)


def table_fast_forward(table_dir: str, branch: str) -> int:
    """Write-audit-publish: PUBLISH a staging branch's head to main in one
    atomic commit.  The audit workflow — stage appends on
    ``table_write(..., branch="audit")``, validate them with
    ``table_scan(..., branch="audit")`` while main readers see nothing,
    then fast-forward — is how a 100 TB ingest pipeline gates bad data out
    of the serving table (Iceberg WAP analog).  The branch history stays
    inspectable; vacuum retains files any snapshot still references."""
    head = load_snapshot(table_dir, branch=branch)

    def build(parent):
        return {
            "manifests": list(head["manifests"]),
            "deletes": list(head["deletes"]),
            "summary": dict(head["summary"]),
            "bucket": head.get("bucket"),
        }

    return _commit(table_dir, "publish", build)


def table_history(table_dir: str) -> pa.Table:
    """One row per committed snapshot: version, parent, op, manifest /
    delete-file counts and the commit's live rows/bytes summary — all from
    the O(commit-count) snapshot JSONs, no manifest reads."""
    rows = [load_snapshot(table_dir, v) for v in table_versions(table_dir)]
    return pa.table(
        {
            "version": pa.array([s["version"] for s in rows], pa.int64()),
            "parent": pa.array([s["parent"] for s in rows], pa.int64()),
            "op": pa.array([s["op"] for s in rows], pa.string()),
            "branch": pa.array([s.get("branch", "main") for s in rows], pa.string()),
            "data_files": pa.array(
                [s["summary"]["files"] for s in rows], pa.int64()
            ),
            "delete_files": pa.array([len(s["deletes"]) for s in rows], pa.int64()),
            "rows": pa.array([s["summary"]["rows"] for s in rows], pa.int64()),
            "bytes": pa.array([s["summary"]["bytes"] for s in rows], pa.int64()),
        }
    )


def table_files(table_dir: str, version: int | None = None) -> list[dict]:
    """Live data-file entries {path, rows, bytes, stats} at a version —
    the manifest union, for tooling and tests."""
    return _live_entries(table_dir, load_snapshot(table_dir, version))


def table_vacuum(
    table_dir: str, keep_last: int | None = None, min_age_s: float = 600.0
) -> list[str]:
    """Physically remove files NO retained snapshot references — failed-txn
    orphans and compacted-away parts plus their manifests.  `keep_last=N`
    first expires all but the newest N snapshots (their exclusive files
    become removable and time travel to them stops); default retains every
    snapshot, so only true orphans go.  Returns removed rel paths.

    `min_age_s` is the orphan-retention grace (Iceberg
    remove_orphan_files' older_than): an IN-FLIGHT transaction's parts are
    on disk but referenced by no snapshot until its commit lands, so
    unreferenced files younger than the grace are kept.  Pass 0 only when
    no writer can be active."""
    import time as _time

    cutoff = _time.time() - min_age_s
    vs = table_versions(table_dir)
    if not vs:
        return []
    retained = vs if keep_last is None else vs[-keep_last:]
    expired = [v for v in vs if v not in set(retained)]
    referenced: set[str] = set()
    ever_referenced: set[str] = set()  # incl. expired snapshots: these files
    # provably belong to COMMITTED txns, so the in-flight grace never applies
    for v in vs:
        s = load_snapshot(table_dir, v)
        refs: set[str] = set(s["manifests"])
        refs.update(d["path"] for d in s["deletes"] if "path" in d)
        refs.update(e["path"] for e in _live_entries(table_dir, s))
        ever_referenced.update(refs)
        if v in set(retained):
            referenced.update(refs)
    removed: list[str] = []
    for sub in (DATA_DIR, DELETE_DIR, MANIFEST_DIR):
        root = os.path.join(table_dir, sub)
        if not os.path.isdir(root):
            continue
        for dirpath, _dn, fns in os.walk(root):
            for fn in fns:
                p = os.path.join(dirpath, fn)
                rel = os.path.relpath(p, table_dir)
                if rel not in referenced:
                    if rel not in ever_referenced:
                        # never referenced by ANY snapshot: could be an
                        # in-flight transaction about to commit — only
                        # remove past the grace age
                        try:
                            if os.path.getmtime(p) > cutoff:
                                continue
                        except OSError:
                            continue
                    os.remove(p)
                    removed.append(rel)
    for v in expired:
        os.remove(_snap_path(table_dir, v))
        removed.append(os.path.relpath(_snap_path(table_dir, v), table_dir))
    # drop now-empty txn directories so listings stay clean
    for sub in (DATA_DIR, DELETE_DIR, MANIFEST_DIR):
        root = os.path.join(table_dir, sub)
        if os.path.isdir(root):
            for dirpath, dn, fns in list(os.walk(root, topdown=False)):
                if not dn and not fns and dirpath != root:
                    os.rmdir(dirpath)
    return sorted(removed)


# ---------------------------------------------------------------------------
# driver queries (oracled at sf0.01 by __ray_entry__.oracle_sql)


def _snap_tagged(ds: rd.Dataset, snap: int) -> rd.Dataset:
    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "snap", pa.array(np.full(batch.num_rows, snap, np.int64))
        )

    return ds.map_batches(tag, batch_format="pyarrow")


def table_time_travel(sf_dir: str) -> rd.Dataset:
    """Snapshot isolation under the oracle: two appends then a ROLLBACK to
    v1; the result unions the scan AT v1, AT v2, and at the post-rollback
    head (which must equal v1 bit-for-bit).  Every row crosses the engine's
    encoders, the snapshot log, and the engine's decoders."""
    from ..sources.io import read_parquet_any

    d = f"/tmp/pgr_table_tt_{uuid.uuid4().hex[:8]}"
    cols = ["o_orderkey", "o_custkey", "o_totalprice"]
    orders = read_parquet_any(f"{sf_dir}/orders.parquet", columns=cols)

    def keep(rem: int):
        def f(batch: pa.Table) -> pa.Table:
            k = batch["o_orderkey"].to_numpy(zero_copy_only=False)
            return batch.filter(pa.array(k % 3 == rem))

        return f

    enc = {"o_orderkey": "delta_bp", "o_totalprice": "byte_stream_split"}
    table_write(
        orders.map_batches(keep(0), batch_format="pyarrow").repartition(3),
        d, encodings=enc,
    )
    table_write(
        orders.map_batches(keep(1), batch_format="pyarrow").repartition(2),
        d, encodings=enc,
    )
    table_rollback(d, 1)
    parts = [
        _snap_tagged(table_scan(d, version=1, columns=cols), 1),
        _snap_tagged(table_scan(d, version=2, columns=cols), 2),
        _snap_tagged(table_scan(d, columns=cols), 3),  # head == v1 again
    ]
    return parts[0].union(*parts[1:])


def table_mor_delete(sf_dir: str) -> rd.Dataset:
    """Merge-on-read deletes composed with a pruned scan, under the oracle:
    position-delete files retract `l_quantity < 10`, then a predicate scan
    on ANOTHER column runs over the deleted table — surviving rows must
    equal SQL `WHERE NOT (deleted) AND predicate` exactly."""
    from ..sources.io import read_parquet_any

    d = f"/tmp/pgr_table_mor_{uuid.uuid4().hex[:8]}"
    cols = ["l_orderkey", "l_quantity", "l_extendedprice", "l_returnflag"]
    li = read_parquet_any(f"{sf_dir}/lineitem.parquet", columns=cols).repartition(8)
    table_write(
        li, d, row_group_rows=4096, page_rows=1024,
        encodings={"l_orderkey": "delta_bp", "l_returnflag": "dict",
                   "l_extendedprice": "byte_stream_split"},
    )
    table_delete(d, ("l_quantity", "<", 10.0))
    return table_scan(d, columns=cols, predicate=("l_returnflag", "==", "R"))


def table_compact_vacuum(sf_dir: str) -> rd.Dataset:
    """The maintenance tail of the table lifecycle, oracled: two appends, a
    DNF delete (OR of range + equality branches), copy-on-write compaction
    that folds the position deletes in, then vacuum(keep_last=1) which must
    physically remove the superseded parts and delete files while the final
    scan still returns exactly the SQL survivors."""
    from ..sources.io import read_parquet_any

    d = f"/tmp/pgr_table_cv_{uuid.uuid4().hex[:8]}"
    docs = read_parquet_any(f"{sf_dir}/documents.parquet")

    def keep(rem: int):
        def f(batch: pa.Table) -> pa.Table:
            k = batch["doc_id"].to_numpy(zero_copy_only=False)
            return batch.filter(pa.array(k % 2 == rem))

        return f

    enc = {"doc_id": "delta_bp", "lang": "dict", "source": "dict"}
    table_write(docs.map_batches(keep(0), batch_format="pyarrow").repartition(4),
                d, encodings=enc)
    table_write(docs.map_batches(keep(1), batch_format="pyarrow").repartition(4),
                d, encodings=enc)
    table_delete(d, [[("doc_id", "<", 50)], [("lang", "==", "de")]])
    table_compact(d, target_bytes=64 << 20, sort_by="doc_id", encodings=enc)
    removed = table_vacuum(d, keep_last=1)
    assert removed, "vacuum must reclaim the compacted-away parts"
    assert len(table_versions(d)) == 1
    hist = table_history(d)
    assert hist["op"].to_pylist() == ["compact"]
    return table_scan(d)


def table_upsert_scan(sf_dir: str) -> rd.Dataset:
    """Atomic MERGE-by-key under the oracle: one upsert commit UPDATES
    every 5th order's price (+100000) and INSERTS shifted-key rows; the
    final scan must equal the SQL three-way reconciliation exactly —
    replaced rows gone, updated values present, inserts present."""
    import pyarrow.compute as pc

    from ..sources.io import read_parquet_any

    d = f"/tmp/pgr_table_up_{uuid.uuid4().hex[:8]}"
    cols = ["o_orderkey", "o_custkey", "o_totalprice"]
    orders = read_parquet_any(f"{sf_dir}/orders.parquet", columns=cols)
    enc = {"o_orderkey": "delta_bp", "o_totalprice": "byte_stream_split"}
    table_write(orders.repartition(4), d, encodings=enc)

    def updates(batch: pa.Table) -> pa.Table:
        k = batch["o_orderkey"].to_numpy(zero_copy_only=False)
        m = batch.filter(pa.array(k % 5 == 0))
        return m.set_column(
            m.schema.get_field_index("o_totalprice"),
            "o_totalprice",
            pc.add(m["o_totalprice"], pa.scalar(100000.0, pa.float64())),
        )

    def inserts(batch: pa.Table) -> pa.Table:
        k = batch["o_orderkey"].to_numpy(zero_copy_only=False)
        m = batch.filter(pa.array(k < 500))
        return pa.table(
            {
                "o_orderkey": pc.add(m["o_orderkey"], pa.scalar(10_000_000)),
                "o_custkey": m["o_custkey"],
                "o_totalprice": pa.array(
                    np.full(m.num_rows, 1.0), pa.float64()
                ),
            }
        )

    up = orders.map_batches(updates, batch_format="pyarrow").union(
        orders.map_batches(inserts, batch_format="pyarrow")
    )
    table_upsert(up, d, key="o_orderkey", encodings=enc)
    hist = table_history(d)
    assert hist["op"].to_pylist() == ["append", "upsert"]
    return table_scan(d, columns=cols)


def table_eq_delete_scan(sf_dir: str) -> rd.Dataset:
    """EQUALITY deletes under the oracle: the even doc_ids commit, an O(1)
    equality-delete commit (no data file read or written) retracts
    ``doc_id < 100``, then the odd doc_ids append — re-introducing keys
    the earlier delete must NOT touch (txn sequence gating).  The final
    scan composes the merge-on-read anti-join with a pruning-ladder
    predicate on another column."""
    from ..sources.io import read_parquet_any

    d = f"/tmp/pgr_table_eq_{uuid.uuid4().hex[:8]}"
    docs = read_parquet_any(f"{sf_dir}/documents.parquet")

    def keep(rem: int):
        def f(batch: pa.Table) -> pa.Table:
            k = batch["doc_id"].to_numpy(zero_copy_only=False)
            return batch.filter(pa.array(k % 2 == rem))

        return f

    enc = {"doc_id": "delta_bp", "lang": "dict", "source": "dict"}
    table_write(docs.map_batches(keep(0), batch_format="pyarrow").repartition(3),
                d, encodings=enc)
    table_delete(d, ("doc_id", "<", 100), mode="equality")
    table_write(docs.map_batches(keep(1), batch_format="pyarrow").repartition(2),
                d, encodings=enc)
    assert [e.get("kind") for e in load_snapshot(d)["deletes"]] == ["eq"]
    return table_scan(
        d, columns=["doc_id", "lang", "source"], predicate=("lang", "!=", "de")
    )


def table_merge_eq_scan(sf_dir: str) -> rd.Dataset:
    """Streaming-CDC-shaped MERGE under the oracle: the upsert's key set
    lands as Iceberg-v2-style EQUALITY-delete files — the commit cost is
    O(upsert batch) and NO existing data file is read — yet the scan must
    equal the SQL three-way reconciliation exactly (updates applied,
    replaced rows gone, inserts present)."""
    import pyarrow.compute as pc

    from ..sources.io import read_parquet_any

    d = f"/tmp/pgr_table_meq_{uuid.uuid4().hex[:8]}"
    cols = ["o_orderkey", "o_custkey", "o_totalprice"]
    orders = read_parquet_any(f"{sf_dir}/orders.parquet", columns=cols)
    enc = {"o_orderkey": "delta_bp", "o_totalprice": "byte_stream_split"}
    table_write(orders.repartition(4), d, encodings=enc)

    def updates(batch: pa.Table) -> pa.Table:
        k = batch["o_orderkey"].to_numpy(zero_copy_only=False)
        m = batch.filter(pa.array(k % 7 == 0))
        return m.set_column(
            m.schema.get_field_index("o_totalprice"),
            "o_totalprice",
            pc.add(m["o_totalprice"], pa.scalar(50000.0, pa.float64())),
        )

    def inserts(batch: pa.Table) -> pa.Table:
        k = batch["o_orderkey"].to_numpy(zero_copy_only=False)
        m = batch.filter(pa.array(k < 300))
        return pa.table(
            {
                "o_orderkey": pc.add(m["o_orderkey"], pa.scalar(20_000_000)),
                "o_custkey": m["o_custkey"],
                "o_totalprice": pa.array(np.full(m.num_rows, 2.0), pa.float64()),
            }
        )

    up = orders.map_batches(updates, batch_format="pyarrow").union(
        orders.map_batches(inserts, batch_format="pyarrow")
    )
    table_upsert(up, d, key="o_orderkey", deletes="equality", encodings=enc)
    dels = load_snapshot(d)["deletes"]
    assert dels and all(e.get("kind") == "eqfile" for e in dels)
    return table_scan(d, columns=cols)


def bucket_join_orders_customer(sf_dir: str) -> rd.Dataset:
    """Shuffle-free co-partitioned join under the oracle: orders and
    customer land as tables bucketed by the SAME stable hash of their join
    keys (16 buckets), an equality delete retracts negative-balance
    customers merge-on-read, and ``table_bucket_join`` joins bucket to
    bucket — each bucket joined inside one Ray task, no all-to-all
    exchange — matching
    SQL ``orders JOIN customer``."""
    from ..sources.io import read_parquet_any

    tag = uuid.uuid4().hex[:8]
    do = f"/tmp/pgr_bj_orders_{tag}"
    dc = f"/tmp/pgr_bj_customer_{tag}"
    orders = read_parquet_any(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    )
    customer = read_parquet_any(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_mktsegment", "c_acctbal"],
    )
    table_write(
        orders.repartition(4), do, bucket_by=("o_custkey", 16),
        encodings={"o_orderkey": "delta_bp", "o_totalprice": "byte_stream_split"},
    )
    table_write(customer.repartition(2), dc, bucket_by=("c_custkey", 16),
                encodings={"c_mktsegment": "dict"})
    table_delete(dc, ("c_acctbal", "<", 0.0), mode="equality")
    return table_bucket_join(
        do, dc, "o_custkey", "c_custkey",
        left_columns=["o_orderkey", "o_custkey", "o_totalprice"],
        right_columns=["c_mktsegment"],
    )


def table_wap_publish(sf_dir: str) -> rd.Dataset:
    """Write-audit-publish under the oracle: a third of documents commits
    to main, the other two thirds STAGE on an audit branch in two commits
    (main's scan count must not move), then one fast-forward publishes —
    and the final scan must equal SQL `SELECT * FROM documents`."""
    from ..sources.io import read_parquet_any

    d = f"/tmp/pgr_table_wap_{uuid.uuid4().hex[:8]}"
    docs = read_parquet_any(f"{sf_dir}/documents.parquet")

    def keep(rem: int):
        def f(batch: pa.Table) -> pa.Table:
            k = batch["doc_id"].to_numpy(zero_copy_only=False)
            return batch.filter(pa.array(k % 3 == rem))

        return f

    enc = {"doc_id": "delta_bp", "lang": "dict", "source": "dict"}
    table_write(docs.map_batches(keep(0), batch_format="pyarrow").repartition(2),
                d, encodings=enc)
    base = table_scan(d).count()
    for rem in (1, 2):
        table_write(
            docs.map_batches(keep(rem), batch_format="pyarrow").repartition(2),
            d, branch="audit", encodings=enc,
        )
    assert table_scan(d).count() == base, "staged commits leaked to main"
    table_fast_forward(d, "audit")
    hist = table_history(d)
    assert hist["op"].to_pylist()[-1] == "publish"
    assert hist["branch"].to_pylist() == ["main", "audit", "audit", "main"]
    return table_scan(d)


def table_changes_scan(sf_dir: str) -> rd.Dataset:
    """Incremental-consumption (CDC) under the oracle: three append
    commits partition documents by doc_id % 3; ``table_changes(d, 1)``
    must return EXACTLY the rows commits 2 and 3 added — the tail a
    downstream consumer reads without rescanning the table."""
    from ..sources.io import read_parquet_any

    d = f"/tmp/pgr_table_ch_{uuid.uuid4().hex[:8]}"
    docs = read_parquet_any(f"{sf_dir}/documents.parquet")

    def keep(rem: int):
        def f(batch: pa.Table) -> pa.Table:
            k = batch["doc_id"].to_numpy(zero_copy_only=False)
            return batch.filter(pa.array(k % 3 == rem))

        return f

    enc = {"doc_id": "delta_bp", "lang": "dict", "source": "dict"}
    for rem in (0, 1, 2):
        table_write(
            docs.map_batches(keep(rem), batch_format="pyarrow").repartition(2),
            d, encodings=enc,
        )
    return table_changes(d, 1)
