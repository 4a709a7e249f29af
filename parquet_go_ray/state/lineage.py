"""Per-partition lineage + metrics checkpoints and resume.

The reference has no checkpointing (SURVEY §4); the north rule requires it.
Layout (resumable-output pattern): one directory per partition holding the
partition's chunk table and a lineage record:

    out_dir/
      part=00042/
        chunks.parquet       # chunk table rows (blobs + metadata)
        lineage.json         # inputs, codec choices, metrics, sha256s
      _plan.json             # the run's partitioning plan, written first
      _manifest.json         # driver-side roll-up after the run

`out_dir` may be a local path or any fsspec URI (s3://, gs://, hdfs://,
memory://, file://) — the storage-pluggability analog of the reference's
source backends (source/source.go:9-16).  Every file goes through
`uri.publish`, so each appears whole or not at all, and one marker-last
protocol serves every backend: `chunks.parquet` is published first, then
the completion MARKER `lineage.json` (first writer wins).  A partition
without its marker is recomputed on resume, never half-read; one with it
is skipped and its metrics are loaded from the checkpoint."""

from __future__ import annotations

import json

import pyarrow.parquet as pq

from .. import uri


def _publish_json(path: str, obj, keep_first: bool = False, **dump_kw) -> bool:
    def write(target):
        with uri.open_any(target, "w") as f:
            json.dump(obj, f, **dump_kw)

    return uri.publish(path, write, keep_first=keep_first)


def _read_json(path: str):
    with uri.open_any(path, "r") as f:
        return json.load(f)


def _under(out_dir: str, name: str) -> str:
    return uri.norm(out_dir).rstrip("/") + "/" + name


def part_dir(out_dir: str, part: int) -> str:
    return _under(out_dir, f"part={part:05d}")


def is_done(out_dir: str, part: int) -> bool:
    return uri.exists(part_dir(out_dir, part) + "/lineage.json")


def done_parts(out_dir: str) -> set[int]:
    """Ids of the parts whose marker is published, from one glob of
    ``part=*/lineage.json`` (one request on an object store, not one per
    part; a staged ``lineage.json.tmp.*`` does not match)."""
    return {
        int(path.rsplit("/", 2)[-2].split("=")[1])
        for path in uri.glob(out_dir, "part=*/lineage.json")
    }


def write_partition(out_dir: str, part: int, chunk_table, lineage: dict) -> str:
    """Publish one partition's chunks, then its lineage marker; a partition
    whose marker exists is left as the first writer made it."""
    final = part_dir(out_dir, part)
    marker = final + "/lineage.json"
    if not uri.exists(marker):

        def write_chunks(target):
            with uri.open_any(target, "wb") as f:
                pq.write_table(chunk_table, f)

        uri.publish(final + "/chunks.parquet", write_chunks)
        _publish_json(marker, lineage, keep_first=True, indent=1)
    return final


def read_lineage(out_dir: str, part: int) -> dict:
    return _read_json(part_dir(out_dir, part) + "/lineage.json")


def write_manifest(out_dir: str, manifest: dict) -> None:
    _publish_json(_under(out_dir, "_manifest.json"), manifest, indent=1)


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
    p = _under(out_dir, "_plan.json")
    return _read_json(p) if uri.exists(p) else None


def write_plan(out_dir: str, plan: dict) -> None:
    """Persist the partitioning plan FIRST (before any partition encodes):
    resume must reuse the original num_parts — it derives from live cluster
    CPUs and size estimates, so a resume on different hardware would split
    the input into different fragments and re-encode every row under new
    part ids beside the old ones."""
    _publish_json(_under(out_dir, "_plan.json"), plan)
