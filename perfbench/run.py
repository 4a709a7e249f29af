"""Benchmark entry point.

    python3 perfbench/run.py --workload code_corpus --seed 1 --seconds 25 --trace 0

Generates the seeded inputs, runs ``perfbench/session.py`` in a child
process under a wall-clock limit, and prints, as the last line of standard
output, ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it records the host, versions, input size
and sample counts.  A child that outlives the limit is killed, Ray is
stopped with ``ray stop --force``, and the iteration it hung in counts as a
failed operation.  Every process the run started, Ray's included, is
stopped and waited for before it exits.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("code_corpus", "lineitem_par1")
RUN_LIMIT_S = 170.0  # the whole run, cleanup included, stays under 180 s
CLEANUP_RESERVE_S = 20.0
OUTER_CODECS = ("snappy", "zstd", "zstd7", "zstd9")


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _read_progress(path: str) -> list[dict]:
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


PHASES = ("write", "read", "pruned_scan")


def _complete(records: list[dict]) -> list[dict]:
    """Iterations that ran every phase."""
    return [r for r in records if r["kind"] == "iter" and all(p in r["walls"] for p in PHASES)]


def _walls(iters: list[dict], phase: str) -> list[float]:
    return [s for it in iters for s in it["walls"][phase]]


def _phase_s(it: dict) -> float:
    """Wall of one iteration: its write plus the median of each read phase."""
    return sum(statistics.median(it["walls"][p]) for p in PHASES)


def end_to_end(records: list[dict], inp: dict, failed: int, attempted: int) -> dict:
    iters = _complete(records)
    raw = inp["raw_bytes"]
    rss = [r["peak_mb"] for r in records if r["kind"] == "rss"]
    return {
        "setup_s": _median([r["s"] for r in records if r["kind"] == "setup"]),
        "write_mb_s": _median([raw / 1e6 / s for s in _walls(iters, "write")]),
        "read_mb_s": _median([raw / 1e6 / s for s in _walls(iters, "read")]),
        "pruned_scan_s": _median(_walls(iters, "pruned_scan")),
        "stored_per_raw": _median([it["stored_bytes"] / raw for it in iters]),
        "size_vs_reference": _median([it["enc_bytes"] / it["ref_bytes"] for it in iters]),
        "peak_rss_mb": rss[0] if rss else 0.0,
        "ok_frac": 1.0 - failed / max(attempted, 1),
    }


def per_layer(records: list[dict]) -> dict:
    from perfbench.kernels import KERNELS

    iters = _complete(records)
    traced = [it for it in iters if it["traced"]]
    untraced = [it for it in iters if not it["traced"]]
    n = max(len(traced), 1)
    spans = next((r["totals"] for r in records if r["kind"] == "spans"), {})

    def span(name: str, field: str = "s") -> float:
        return spans.get(name, {}).get(field, 0) / n

    def layer(name: str) -> float:
        return _median([it["layers"][name] for it in traced if name in it["layers"]])

    out = {name: layer(name) for name in (
        "sources.read_s", "encode_pipeline.exchange_s",
        "encode_pipeline.exchange_cpu_s", "encode_pipeline.exchange_mb",
        "encode_pipeline.partition_skew", "encode_pipeline.empty_partitions",
    )}
    table = spans.get("stages.encode.encode_table", {})
    encode_sec = sum(it["layers"].get("encode_pipeline.encode_sec", 0.0) for it in traced)
    out.update({
        "encode_pipeline.plan_s": span("encode_pipeline.plan"),
        "stages.encode.encode_table_s": span("stages.encode.encode_table"),
        "stages.encode.floor_trials_s": span("stages.encode.floor_trial"),
        "stages.encode.floor_fallback_frac": table.get("fallbacks", 0) / max(table.get("chunks", 0), 1),
        "stages.encode.encode_sec_agreement": table.get("s", 0.0) / encode_sec if encode_sec else 0.0,
        "selector.select_codec_s": span("selector.select_codec"),
        "selector.trials": span("selector.select_codec", "trials"),
        "selector.trial_compress_s": span("selector.trial_compress"),
        "chunk.encode_column_chunk_s": span("chunk.encode_column_chunk"),
        "chunk.column_sha256_s": span("chunk.column_sha256"),
        "chunk.decode_column_chunk_s": span("chunk.decode_column_chunk"),
        "chunk.outer_compress_s": sum(span(f"chunk.outer_compress.{o}") for o in OUTER_CODECS),
        "chunk.outer_compress_mb": sum(span(f"chunk.outer_compress.{o}", "bytes") for o in OUTER_CODECS) / 1e6,
        "state.lineage.write_partition_s": span("state.lineage.write_partition"),
        "state.lineage.bytes_written": span("state.lineage.write_partition", "written"),
        "formats.par1.write_s": span("formats.par1.write"),
        "formats.par1.read_pruned_s": span("formats.par1.read_pruned"),
        "formats.par1.read_full_s": span("formats.par1.read_full"),
        "native_io.row_groups_read_frac": layer("native_io.row_groups_read_frac"),
        "native_io.pages_decoded_frac": layer("native_io.pages_decoded_frac"),
    })
    for o in OUTER_CODECS:
        out[f"chunk.outer_compress.{o}_s"] = span(f"chunk.outer_compress.{o}")
        out[f"chunk.outer_compress.{o}_mb"] = span(f"chunk.outer_compress.{o}", "bytes") / 1e6
    for k in KERNELS:
        out[f"codecs.{k}.encode_s"] = span(f"codecs.{k}.encode")
        out[f"codecs.{k}.encode_mb"] = span(f"codecs.{k}.encode", "bytes") / 1e6
        out[f"codecs.{k}.decode_s"] = span(f"codecs.{k}.decode")
    for r in records:
        if r["kind"] == "kernels":
            out.update(r["metrics"])
    base = _median([_phase_s(it) for it in untraced])
    out["trace_overhead_frac"] = _median([_phase_s(it) for it in traced]) / base - 1.0 if base else 0.0
    return out


def _stop_ray() -> None:
    with contextlib.suppress(subprocess.TimeoutExpired):
        subprocess.run(["ray", "stop", "--force"], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                       timeout=CLEANUP_RESERVE_S / 2, check=False)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t_start = time.perf_counter()
    if not os.path.isfile(os.path.join(ROOT, "parquet_go_ray", "__init__.py")):
        print(f"perfbench: no parquet_go_ray package under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    from perfbench import procs
    from perfbench.inputs import prepare

    procs.become_subreaper()

    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    child = None
    try:
        inputs = prepare(args.workload, args.seed, os.path.join(work, "inputs"))
        prepare_s = time.perf_counter() - t_start
        with open(os.path.join(work, "inputs.json"), "w") as f:
            json.dump(inputs, f)
        env = dict(os.environ, RAY_USAGE_STATS_ENABLED="0")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (ROOT, env.get("PYTHONPATH")) if p)
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "session.py"), "--workload", args.workload,
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", work]
        child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                                 start_new_session=True)
        limit = RUN_LIMIT_S - CLEANUP_RESERVE_S - (time.perf_counter() - t_start)
        try:
            hung = False
            child.wait(timeout=max(limit, 1.0))
        except subprocess.TimeoutExpired:
            hung = True
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
        records = _read_progress(os.path.join(work, "progress.jsonl"))
        finished = any(r["kind"] == "done" for r in records) and child.returncode == 0
        if not finished:
            _stop_ray()
    finally:
        if child is not None and child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
        # Ray's processes outlive ray.shutdown() by a moment, and those
        # whose parent exited are orphans: reparented here, stopped, reaped
        left = procs.stop_descendants()
        if left:
            print(f"perfbench: stopped {len(left)} leftover process(es)", file=sys.stderr)
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(os.path.join(ROOT, ".pbr"), ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))  # when no other run uses it

    for r in records:
        if "ops" in r:
            phases = " ".join(f"{op['op']}={op['s']:.2f}" for op in r["ops"] if op.get("s"))
            waited = f" settle={r['settle_s']:.2f}" if r.get("settle_s") else ""
            print(f"perfbench: t={r['t']:.1f} {r['kind']} {phases}{waited}", file=sys.stderr)
    ops = [op for r in records for op in r.get("ops", [])]
    if not finished:
        ops.append({"op": "hang" if hung else "session", "ok": False})
    attempted = len(ops)
    failed = sum(1 for op in ops if not op["ok"])
    for op in ops:
        if not op["ok"]:
            print(f"perfbench: failed {op['op']}: {op.get('error', '')}", file=sys.stderr)
    if not _complete(records):
        print("perfbench: no iteration completed", file=sys.stderr)
        return 1

    spec = _spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer(records) if args.trace else end_to_end(records, inputs["main"], failed, attempted)
    env_rec = next((r for r in records if r["kind"] == "env"), {})
    iters = [r for r in records if r["kind"] == "iter"]
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": env_rec.get("nproc"), "omp_num_threads": env_rec.get("omp_num_threads"), "ray_cpus": env_rec.get("ray_cpus"),
        "ray_version": env_rec.get("ray_version"), "pyarrow_version": env_rec.get("pyarrow_version"),
        "input_rows": inputs["main"]["rows"], "input_bytes": inputs["main"]["raw_bytes"],
        "setup_samples": sum(1 for r in records if r["kind"] == "setup"),
        "iterations": len(iters), "traced_iterations": sum(1 for r in iters if r["traced"]),
        "prepare_s": round(prepare_s, 2), "events_s": {r["kind"]: round(r["t"], 2) for r in records},
        "total_s": round(time.perf_counter() - t_start, 2),
    }
    print(json.dumps({"info": info}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
