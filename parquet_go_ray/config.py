"""Engine configuration.

Defaults mirror the reference where a corresponding knob exists
(reference: writer/writer.go:63-65 — PageSize 8KB, RowGroupSize 128MB, SNAPPY)
re-tuned for Ray Data block granularity.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class EngineConfig:
    # codec selection
    sample_rows: int = 4096          # rows sampled per chunk for trial encoding
    sample_max_bytes: int = 1 << 20  # byte cap on the trial sample
    expensive_codecs: tuple = ("fsst",)
    expensive_trial_bytes: int = 128 << 10  # trial subsample for slow kernels
    outer_codecs: tuple = ("none", "snappy", "zstd", "zstd7", "zstd9")
    zstd_level: int = 3
    size_tolerance: float = 1.30  # hard guard: candidates more than 30% above
                                  # the smallest trial size are never eligible,
                                  # no matter how fast
    speed_weight: float = 0.7e-4  # cost-weighted pick among eligibles:
                                  # score = ratio + speed_weight * slowdown,
                                  # where slowdown is the STATIC calibrated
                                  # codec cost in memcpy-multiples (see
                                  # selector._STATIC_*).
                                  # Semantics: one memcpy-multiple of encode
                                  # time must save speed_weight fraction of
                                  # raw size.  At 0.7e-4 the zstd-class
                                  # outers win decisively over snappy on the
                                  # code corpus AND the zstd7->zstd9 step
                                  # (+60 memcpy-multiples for ~0.5% of raw)
                                  # pays on long text — a compression engine's
                                  # default leans ratio where the cost is one
                                  # parallelizable C kernel; truly slow
                                  # kernels (fsst on long text, delta_ba's
                                  # prefix matching) stay rejected.  0 = pure
                                  # min-size
    enforce_reference_floor: bool = True  # hard per-chunk <= reference-policy size
    per_column_codec: dict = field(default_factory=dict)  # name -> codec override
    plan_codecs_globally: bool = True  # one driver-side plan vs per-chunk trials
    plan_sample_rows: int = 20000
    page_rows: int | None = None     # sub-chunk page index (OffsetIndex analog,
                                     # reference: writer/writer.go:418-481): split
                                     # each scalar chunk into pages of this many
                                     # values, each independently compressed +
                                     # decodable, with per-page offsets in chunk
                                     # meta — row-range reads then decode ONLY the
                                     # overlapping pages (true row-skip for
                                     # dict/delta/rle chunks, not just PLAIN).
                                     # None = single-payload chunks (default)
    # pipeline shape
    cpus_per_encode_task: int = 4    # encode tasks are memory-bandwidth-heavy:
                                     # reserving >1 CPU keeps schedulers from
                                     # oversubscribing the memory bus
    batch_size_rows: int = 8192      # rows per encode batch (chunk granularity;
                                     # sized so a chunk stays cache-resident)
    target_chunk_bytes: int = 64 << 20
    partitions: int | None = None    # override output partition count
    sort_within_partition: bool = True  # sort by (repo, path) to help delta_ba
    bloom_bits_per_value: int = 0    # >0: per-chunk Bloom filter over int/
                                     # string values in the chunk header
                                     # (equality scans prune chunks whose
                                     # min/max span the probe but whose value
                                     # set misses it); 10 bits/value ~ 1% fpp.
                                     # Off by default: the filter bytes count
                                     # against encoded size
    # verification
    verify_sha256: bool = True


DEFAULT = EngineConfig()


def cluster_cpus() -> int:
    """Logical CPUs of the running Ray cluster — the one lookup behind the
    encode task reservation, the default encode part count and the read
    fan-out.  Without a started Ray (or a cluster reporting no CPUs) it is
    the host's CPU count, 8 if that is unknown; library code never starts
    Ray itself."""
    import os

    import ray

    try:
        return int(ray.cluster_resources().get("CPU", 0)) or (os.cpu_count() or 8)
    except Exception:
        return os.cpu_count() or 8
