"""The workloads: one write phase, then read phases over its output.

Each run of a phase is one operation.  It fails when it raises or when the
check on its output fails.  Timed regions hold only calls into the program
and the consumption of their results; checks run after the clock stops.
"""

from __future__ import annotations

import os
import re
import shutil
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd

from parquet_go_ray.config import EngineConfig
from parquet_go_ray.pipelines import encode_pipeline, native_io
from parquet_go_ray.sources.io import read_parquet_any
from parquet_go_ray.stages import encode as stages_encode

from perfbench.inputs import CODE_PARTITIONS, PAR1_BLOOM, PAR1_PAGE_ROWS, PAR1_SORT_BY
from perfbench.trace import dir_bytes

PAR1_ENCODINGS = {
    "l_orderkey": "delta_bp",
    "l_partkey": "delta_bp",
    "l_suppkey": "delta_bp",
    "l_quantity": "byte_stream_split",
    "l_extendedprice": "byte_stream_split",
    "l_discount": "byte_stream_split",
    "l_tax": "byte_stream_split",
}

# read phases are short next to a write: each runs this many times per
# iteration, so their medians rest on as many samples
READ_REPEATS = 3
# the in-process code_corpus pruned scan takes milliseconds: it runs this
# many times per read repeat
SCAN_REPEATS = 5


def chunk_files(out_dir: str) -> list[str]:
    """The per-partition chunk tables an encode_partitioned run wrote."""
    return sorted(os.path.join(d, "chunks.parquet") for d, _s, files in os.walk(out_dir) if "chunks.parquet" in files)


def scan_chunks(out_dir: str, column: str, value) -> int:
    """Column-pruned scan of the RCC1 chunk tables, in this process: read
    only `column`'s chunk rows, decode them and count the values equal to
    `value`."""
    rows = pq.read_table(chunk_files(out_dir), columns=["blob"], filters=[("column", "==", column)],
                         partitioning=None)
    n = 0
    for blob in rows["blob"].to_pylist():
        n += pc.sum(pc.equal(stages_encode.decode_column_chunk(blob), value)).as_py() or 0
    return n


def summarize_rows(batch: pa.Table) -> pa.Table:
    """Row count and integer key sums of one scanned block."""
    return pa.table(
        {
            "rows": pa.array([batch.num_rows], pa.int64()),
            "sum_orderkey": pa.array([pc.sum(batch["l_orderkey"]).as_py() or 0], pa.int64()),
            "sum_partkey": pa.array([pc.sum(batch["l_partkey"]).as_py() or 0], pa.int64()),
        }
    )


def collect(ds: rd.Dataset) -> pa.Table:
    """Execute `ds` once and bring its (small) output to the driver."""
    return pa.Table.from_pylist(ds.take_all())


_UNIT_S = {"us": 1e-6, "ms": 1e-3, "s": 1.0, "min": 60.0}


def _seconds(text: str) -> float:
    m = re.match(r"([\d.]+)(us|ms|s|min)$", text.strip())
    return float(m.group(1)) * _UNIT_S[m.group(2)] if m else 0.0


def operator_stats(stats_text: str) -> list[dict]:
    """Parse ``Dataset.stats()`` into one dict per top-level operator:
    name, wall seconds, summed remote CPU seconds of it and its
    sub-operators, and the first reported output byte total."""
    ops: list[dict] = []
    for line in stats_text.splitlines():
        m = re.match(r"Operator \d+ (.+?): .*?(?:executed|produced) in ([\d.]+)s", line)
        if m:
            ops.append({"name": m.group(1), "wall_s": float(m.group(2)), "cpu_s": 0.0, "out_bytes": None})
            continue
        if not ops:
            continue
        m = re.search(r"Remote cpu time: .*, ([\d.]+(?:us|ms|s|min)) total", line)
        if m:
            ops[-1]["cpu_s"] += _seconds(m.group(1))
        m = re.search(r"Output size bytes per block: .*, (\d+) total", line)
        if m and ops[-1]["out_bytes"] is None:
            ops[-1]["out_bytes"] = int(m.group(1))
    return ops


def stats_layers(ds: rd.Dataset) -> dict:
    """sources.read_s and the exchange figures from a dataset's stats."""
    ops = operator_stats(ds.stats())
    out = {"sources.read_s": sum(o["wall_s"] for o in ops if o["name"].startswith("ReadParquet"))}
    shuffles = [o for o in ops if o["name"].startswith(("Shuffle", "Repartition", "Aggregate"))]
    out["encode_pipeline.exchange_s"] = sum(o["wall_s"] for o in shuffles)
    out["encode_pipeline.exchange_cpu_s"] = sum(o["cpu_s"] for o in shuffles)
    out["encode_pipeline.exchange_mb"] = sum((o["out_bytes"] or 0) for o in shuffles) / 1e6
    return out


class Phases:
    """Runs the operations of one iteration and records their outcome and,
    per phase name, the wall of each run.  `settle()`, when given, is
    called before a timed run: it readies idle Ray workers and waits until
    the Ray processes are idle, and returns the seconds it took."""

    def __init__(self, read_repeats: int, settle=None):
        self.read_repeats = read_repeats
        self.settle = settle
        self.settle_s = 0.0
        self.ops: list[dict] = []
        self.walls: dict[str, list[float]] = {}

    def run(self, name: str, fn, check, repeat: int = 1, settle_each: bool = True):
        """Time `fn()` `repeat` times and check each result with
        `check(result)` after the clock stops.  Each run settles first, or
        only the first when `settle_each` is False (in-process phases).
        An exception fails the operation and is re-raised, which ends the
        iteration.  Returns the last result (None when `repeat` is 0)."""
        result = None
        for i in range(repeat):
            if self.settle is not None and (settle_each or i == 0):
                self.settle_s += self.settle()
            t0 = time.perf_counter()
            try:
                result = fn()
            except Exception as exc:
                self.ops.append({"op": name, "ok": False, "s": time.perf_counter() - t0, "error": repr(exc)[:300]})
                raise
            s = time.perf_counter() - t0
            self.walls.setdefault(name, []).append(s)
            self.check(name, check(result), s)
        return result

    def check(self, name: str, ok: bool, s: float = 0.0) -> None:
        self.ops.append({"op": name, "ok": bool(ok), "s": s})


def _chunks_ok(decoded: pa.Table, columns: list[str], rows: int) -> bool:
    """Every chunk decodes bit-identically and each column has all rows."""
    if not decoded.num_rows or not pc.all(decoded["ok"]).as_py():
        return False
    per_col = decoded.group_by("column").aggregate([("rows", "sum")])
    got = dict(zip(per_col["column"].to_pylist(), per_col["rows_sum"].to_pylist()))
    return got == {c: rows for c in columns}


def code_corpus(inp: dict, out_dir: str, ph: Phases, rec: dict) -> None:
    """encode_partitioned with lineage / decode_partitions + ChunkDecoder."""
    layers = rec["layers"]

    def write():
        ds = read_parquet_any(inp["paths"])
        metrics = encode_pipeline.encode_partitioned(ds, out_dir, EngineConfig(partitions=CODE_PARTITIONS))
        return collect(metrics), metrics

    table, metrics_ds = ph.run("write", write, lambda r: pc.sum(r[0]["rows"]).as_py() == inp["rows"])
    layers.update(stats_layers(metrics_ds))
    rows = table["rows"].to_pylist()
    rec["stored_bytes"] = dir_bytes(out_dir)
    rec["enc_bytes"] = pc.sum(table["enc_bytes"]).as_py()
    rec["ref_bytes"] = pc.sum(table["ref_bytes"]).as_py()
    layers["encode_pipeline.partition_skew"] = max(rows) * len(rows) / sum(rows)
    layers["encode_pipeline.empty_partitions"] = CODE_PARTITIONS - sum(1 for r in rows if r > 0)
    layers["encode_pipeline.encode_sec"] = pc.sum(table["encode_sec"]).as_py()
    meta = pq.read_table(chunk_files(out_dir), columns=["enc_bytes", "ref_bytes"], partitioning=None)
    ph.check("floor", pc.all(pc.less_equal(meta["enc_bytes"], meta["ref_bytes"])).as_py())

    def read():
        chunks = encode_pipeline.decode_partitions(out_dir)
        return collect(chunks.map_batches(stages_encode.ChunkDecoder(recompute_sha=True), batch_format="pyarrow"))

    ph.run("read", read, lambda r: _chunks_ok(r, inp["columns"], inp["rows"]), ph.read_repeats)

    ph.run("pruned_scan", lambda: scan_chunks(out_dir, **inp["scan"]), lambda n: n == inp["scan_rows"],
           ph.read_repeats * SCAN_REPEATS, settle_each=False)


def lineitem_par1(inp: dict, out_dir: str, ph: Phases, rec: dict) -> None:
    """write_par1_dataset / read_par1_dataset, a selective DNF scan and a
    full scan."""

    def write():
        ds = read_parquet_any(inp["paths"], override_num_blocks=len(inp["paths"]))
        manifest = native_io.write_par1_dataset(
            ds, out_dir, codec="snappy", encodings=PAR1_ENCODINGS, page_rows=PAR1_PAGE_ROWS,
            bloom=PAR1_BLOOM, sort_by=PAR1_SORT_BY,
        )
        return collect(manifest), manifest

    table, manifest_ds = ph.run("write", write, lambda r: pc.sum(r[0]["rows"]).as_py() == inp["rows"])
    rec["layers"].update(stats_layers(manifest_ds))
    rec["enc_bytes"] = rec["stored_bytes"] = pc.sum(table["bytes"]).as_py()
    rec["ref_bytes"] = inp["ref_bytes"]

    def scan(predicate=None):
        ds = native_io.read_par1_dataset(out_dir, predicate=predicate)
        got = collect(ds.map_batches(summarize_rows, batch_format="pyarrow"))
        return {k: pc.sum(got[k]).as_py() for k in ("rows", "sum_orderkey", "sum_partkey")}

    ph.run("pruned_scan", lambda: scan(inp["predicate"]), lambda r: r["rows"] == inp["scan_rows"], ph.read_repeats)
    want = {"rows": inp["rows"], "sum_orderkey": inp["sum_orderkey"], "sum_partkey": inp["sum_partkey"]}
    ph.run("read", scan, lambda r: r == want, ph.read_repeats)


def explain_par1(predicate: list, out_dir: str) -> dict:
    """Pruning-ladder fractions of the selective scan (traced runs)."""
    ex = native_io.explain_par1_scan(out_dir, predicate=predicate)
    return {
        "native_io.row_groups_read_frac": ex["row_groups_read"] / max(ex["row_groups_total"], 1),
        "native_io.pages_decoded_frac": ex["pages_decoded"] / max(ex["pages_total"], 1),
    }


WORKLOADS = {"code_corpus": code_corpus, "lineitem_par1": lineitem_par1}


def run_iteration(workload: str, inp: dict, out_dir: str, after=None, read_repeats: int = READ_REPEATS,
                  settle=None) -> dict:
    """One write + read cycle into a fresh `out_dir`, removed afterwards
    (the pipelines skip output that already exists).  `after(out_dir)`
    may add layer figures from the output before it is removed.  An
    exception ends the iteration; the operation it hit counts as failed."""
    ph = Phases(read_repeats, settle)
    rec: dict = {"ops": ph.ops, "walls": ph.walls, "layers": {}}
    try:
        WORKLOADS[workload](inp, out_dir, ph, rec)
        if after is not None:
            rec["layers"].update(after(out_dir))
    except Exception as exc:  # the run continues; the failure is counted
        if not ph.ops or ph.ops[-1]["ok"]:
            ph.ops.append({"op": "iteration", "ok": False, "s": 0.0, "error": repr(exc)[:300]})
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    rec["settle_s"] = ph.settle_s
    return rec
