"""Per-partition lineage + metrics checkpoints and resume.

The reference has no checkpointing (SURVEY §4); the north rule requires it.
Layout (resumable-output pattern): one directory per partition, written
atomically, holding the partition's chunk table and a lineage record:

    out_dir/
      part=00042/
        chunks.parquet       # chunk table rows (blobs + metadata)
        lineage.json         # inputs, codec choices, metrics, sha256s
      _manifest.json         # driver-side roll-up after the run

On resume, partitions with a lineage.json are skipped (their metrics are
loaded from the checkpoint instead of recomputed).

`out_dir` may be a local path or any fsspec URI (s3://, gs://, hdfs://,
memory://, file://) — the storage-pluggability analog of the reference's
source backends (source/source.go:9-16).  Atomicity: local paths use
tmp-dir + rename; object stores have no atomic rename, so the completion
MARKER (lineage.json) is written last — a partition without its marker is
recomputed on resume, never half-read."""

from __future__ import annotations

import json
import os
import shutil
import tempfile


def _is_uri(path: str) -> bool:
    return "://" in path and not path.startswith("file://")


def _norm(path: str) -> str:
    """file:// URIs become plain local paths — the local branch would
    otherwise os.makedirs a LITERAL './file:/...' directory that no
    file://-resolving reader (pyarrow, resolve_filesystem) ever finds."""
    return path[len("file://") :] if path.startswith("file://") else path


def _fs(path):
    import fsspec

    return fsspec.core.url_to_fs(path)


def part_dir(out_dir: str, part: int) -> str:
    out_dir = _norm(out_dir)
    if _is_uri(out_dir):
        return out_dir.rstrip("/") + f"/part={part:05d}"
    return os.path.join(out_dir, f"part={part:05d}")


def is_done(out_dir: str, part: int) -> bool:
    out_dir = _norm(out_dir)
    if _is_uri(out_dir):
        fs, root = _fs(part_dir(out_dir, part))
        return fs.exists(root + "/lineage.json")
    return os.path.exists(os.path.join(part_dir(out_dir, part), "lineage.json"))


def done_parts(out_dir: str) -> set[int]:
    out_dir = _norm(out_dir)
    if _is_uri(out_dir):
        fs, root = _fs(out_dir)
        if not fs.exists(root):
            return set()
        out = set()
        for entry in fs.ls(root, detail=False):
            name = entry.rstrip("/").rsplit("/", 1)[-1]
            if name.startswith("part=") and fs.exists(entry.rstrip("/") + "/lineage.json"):
                out.add(int(name.split("=")[1]))
        return out
    if not os.path.isdir(out_dir):
        return set()
    out = set()
    for name in os.listdir(out_dir):
        if name.startswith("part=") and os.path.exists(
            os.path.join(out_dir, name, "lineage.json")
        ):
            out.add(int(name.split("=")[1]))
    return out


def write_partition(out_dir: str, part: int, chunk_table, lineage: dict) -> str:
    """Atomically write one partition's chunks + lineage record."""
    import pyarrow.parquet as pq

    out_dir = _norm(out_dir)
    final = part_dir(out_dir, part)
    if _is_uri(out_dir):
        fs, froot = _fs(final)
        if fs.exists(froot + "/lineage.json"):  # idempotent retry
            return final
        fs.makedirs(froot, exist_ok=True)
        with fs.open(froot + "/chunks.parquet", "wb") as f:
            pq.write_table(chunk_table, f)
        # marker LAST: presence == partition complete (object stores have no
        # atomic directory rename)
        with fs.open(froot + "/lineage.json", "w") as f:
            f.write(json.dumps(lineage, indent=1))
        return final
    os.makedirs(out_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f".part{part}-", dir=out_dir)
    try:
        pq.write_table(chunk_table, os.path.join(tmp, "chunks.parquet"))
        with open(os.path.join(tmp, "lineage.json"), "w") as f:
            json.dump(lineage, f, indent=1)
        if os.path.exists(final):  # idempotent retry: keep the first writer
            shutil.rmtree(tmp)
        else:
            os.replace(tmp, final)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return final


def read_lineage(out_dir: str, part: int) -> dict:
    out_dir = _norm(out_dir)
    if _is_uri(out_dir):
        fs, root = _fs(part_dir(out_dir, part))
        with fs.open(root + "/lineage.json", "r") as f:
            return json.load(f)
    with open(os.path.join(part_dir(out_dir, part), "lineage.json")) as f:
        return json.load(f)


def write_manifest(out_dir: str, manifest: dict) -> None:
    if _is_uri(out_dir):
        fs, root = _fs(out_dir)
        with fs.open(root + "/_manifest.json", "w") as f:
            f.write(json.dumps(manifest, indent=1))
        return
    tmp = os.path.join(out_dir, "_manifest.json.tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1)
    os.replace(tmp, os.path.join(out_dir, "_manifest.json"))


def collect_manifest(out_dir: str) -> dict:
    parts = sorted(done_parts(out_dir))
    recs = [read_lineage(out_dir, p) for p in parts]
    return {
        "partitions": len(parts),
        "rows": sum(r["rows"] for r in recs),
        "raw_bytes": sum(r["raw_bytes"] for r in recs),
        "enc_bytes": sum(r["enc_bytes"] for r in recs),
        "ref_bytes": sum(r.get("ref_bytes", 0) for r in recs),
        "parts": parts,
    }


def read_plan(out_dir: str) -> dict | None:
    """The run's partitioning plan (_plan.json), or None if absent."""
    out_dir = _norm(out_dir)
    if _is_uri(out_dir):
        fs, root = _fs(out_dir)
        p = root.rstrip("/") + "/_plan.json"
        if not fs.exists(p):
            return None
        with fs.open(p, "r") as f:
            return json.load(f)
    p = os.path.join(out_dir, "_plan.json")
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return json.load(f)


def write_plan(out_dir: str, plan: dict) -> None:
    """Persist the partitioning plan FIRST (before any partition encodes):
    resume must reuse the original num_parts — it derives from live cluster
    CPUs and size estimates, so a resume on different hardware would split
    the input into different fragments and re-encode every row under new
    part ids beside the old ones."""
    out_dir = _norm(out_dir)
    if _is_uri(out_dir):
        fs, root = _fs(out_dir)
        fs.makedirs(root, exist_ok=True)
        with fs.open(root.rstrip("/") + "/_plan.json", "w") as f:
            f.write(json.dumps(plan))
        return
    os.makedirs(out_dir, exist_ok=True)
    tmp = os.path.join(out_dir, f".plan.{os.getpid()}.tmp")
    with open(tmp, "w") as f:
        json.dump(plan, f)
    os.replace(tmp, os.path.join(out_dir, "_plan.json"))
