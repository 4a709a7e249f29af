"""Repository benchmark: two closed-loop workloads over the public pipeline
entry points, end-to-end metrics by default and per-layer metrics with
``--trace 1``.  Run from the repository root::

    python3 perfbench/run.py --workload code_corpus --seed 1 --seconds 25 --trace 0

See ``perfbench/NOTES.md`` for what each workload and metric means.
"""
