"""One benchmark run inside a Ray session, started by ``perfbench/run.py``.

Appends one JSON record per event to ``<work>/progress.jsonl`` as it goes,
so the supervisor can still report the completed iterations when a later
one hangs and has to be killed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import ray  # noqa: E402
from ray.data import DataContext  # noqa: E402

from perfbench import procs, trace, workloads  # noqa: E402

# Two logical CPUs is the smallest session in which every workload
# completes: at one, encode_partitioned never schedules (NOTES.md).
RAY_CPUS = 2
OBJECT_STORE_BYTES = 400 << 20
SETUPS_UNTRACED = 3  # setup_s is the median of this many cold sessions
# Before each timed phase this many idle workers are made ready (a phase
# uses up to two actors and two tasks at once), so no phase starts a
# worker process: spawn and imports belong to set-up, not to a phase.
WARM_WORKERS = 4
WARM_HOLD_S = 0.05


@ray.remote(num_cpus=0)
def _warm_worker(hold_s: float) -> None:
    """Hold one worker for `hold_s`, with the program's modules imported."""
    import parquet_go_ray.pipelines.encode_pipeline  # noqa: F401
    import parquet_go_ray.pipelines.native_io  # noqa: F401

    time.sleep(hold_s)


class Progress:
    """Event log; each record carries its time `t` since the session began."""

    def __init__(self, path: str):
        self.path = path
        self.t0 = time.perf_counter()

    def write(self, kind: str, **fields) -> None:
        with open(self.path, "a") as f:
            f.write(json.dumps({"kind": kind, "t": time.perf_counter() - self.t0, **fields}) + "\n")


def _ray_temp_dir() -> str | None:
    """Ray's session directory inside the checkout when the path is short
    enough for its unix sockets (107 bytes with ~66 of session suffix)."""
    path = os.path.join(ROOT, ".pbr")
    return path if len(path) <= 40 else None


def start_ray(trace_dir: str | None) -> None:
    runtime_env = None
    if trace_dir is not None:
        runtime_env = {
            "env_vars": {trace.TRACE_DIR_ENV: trace_dir},
            "worker_process_setup_hook": "perfbench.trace.install_worker",
        }
    ray.init(
        address="local",
        num_cpus=RAY_CPUS,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        log_to_driver=False,
        logging_level="ERROR",
        runtime_env=runtime_env,
        _temp_dir=_ray_temp_dir(),
        # keep the readied workers: by default Ray kills idle workers
        # beyond one per logical CPU after a second
        _system_config={"num_workers_soft_limit": WARM_WORKERS},
    )
    DataContext.get_current().enable_progress_bars = False


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, required=True)
    ap.add_argument("--work", required=True)
    args = ap.parse_args()
    with open(os.path.join(args.work, "inputs.json")) as f:
        inputs = json.load(f)
    progress = Progress(os.path.join(args.work, "progress.jsonl"))
    traced = bool(args.trace)
    trace_dir = os.path.join(args.work, "trace") if traced else None
    if traced:
        os.makedirs(trace_dir, exist_ok=True)
    out_dir = os.path.join(args.work, "out")
    quiesce = procs.Quiesce()

    def settle() -> float:
        """Make the idle workers ready, then wait until the host is idle."""
        t0 = time.perf_counter()
        ray.get([_warm_worker.remote(WARM_HOLD_S) for _ in range(WARM_WORKERS)])
        return time.perf_counter() - t0 + quiesce()

    for i in range(1 if traced else SETUPS_UNTRACED):
        if i:
            ray.shutdown()
        t0 = time.perf_counter()
        start_ray(trace_dir)
        # the warm-up writes only: a first, cold read lands in the
        # measured loop as one sample among several and the median drops it
        rec = workloads.run_iteration(args.workload, inputs["warm"], out_dir, read_repeats=0)
        settle()  # the first measured phase finds its workers ready
        progress.write("setup", s=time.perf_counter() - t0, ops=rec["ops"])
    progress.write(
        "env",
        nproc=len(os.sched_getaffinity(0)),
        omp_num_threads=os.environ.get("OMP_NUM_THREADS"),
        ray_cpus=ray.cluster_resources().get("CPU", 0),
        ray_version=ray.__version__,
        pyarrow_version=__import__("pyarrow").__version__,
    )

    if traced:
        trace.install_driver(trace_dir)
    explained = args.workload != "lineitem_par1"

    def explain(path: str) -> dict:
        trace.set_enabled(trace_dir, False)  # keep its scans out of the spans
        return workloads.explain_par1(inputs["main"]["predicate"], path)

    rss = procs.RssSampler()
    rss.start()
    deadline = time.perf_counter() + args.seconds
    i = 0
    # traced runs alternate traced and untraced iterations and need one of each
    while time.perf_counter() < deadline or (traced and i < 2):
        on = traced and i % 2 == 0
        if traced:
            trace.set_enabled(trace_dir, on)
        after = None
        if on and not explained:
            after, explained = explain, True
        rec = workloads.run_iteration(args.workload, inputs["main"], out_dir, after=after, settle=settle)
        progress.write("iter", traced=on, **rec)
        i += 1
    progress.write("rss", peak_mb=rss.stop())
    ray.shutdown()

    if traced:
        trace.set_enabled(trace_dir, False)
        from perfbench import kernels

        metrics, ok = kernels.run(inputs["main"]["paths"])
        progress.write("kernels", metrics=metrics, ops=[{"op": "kernels", "ok": ok, "s": 0.0}])
        progress.write("spans", totals=trace.totals(trace.load_spans(trace_dir)))
    progress.write("done")
    return 0


if __name__ == "__main__":
    sys.exit(main())
