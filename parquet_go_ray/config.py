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
    outer_codecs: tuple = ("none", "snappy", "zstd", "zstd7", "zstd9")
    size_tolerance: float = 1.30  # hard guard: candidates more than 30% above
                                  # the smallest trial size are never eligible,
                                  # no matter how fast
    enforce_reference_floor: bool = True  # hard per-chunk <= reference-policy size
    per_column_codec: dict = field(default_factory=dict)  # name -> codec override
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
    batch_size_rows: int = 8192      # rows per encode batch (chunk granularity;
                                     # sized so a chunk stays cache-resident)
    target_chunk_bytes: int = 64 << 20
    partitions: int | None = None    # override output partition count
    bloom_bits_per_value: int = 0    # >0: per-chunk split-block Bloom filter
                                     # (the parquet-format SBBF over XXH64 that
                                     # PAR1 files carry) over int/string/binary
                                     # values in the chunk header: equality
                                     # scans prune chunks whose min/max span
                                     # the probe but whose value set misses it.
                                     # This many bits per distinct value,
                                     # rounded up to a power-of-two size of at
                                     # most 1 MB; 10 ~ 1% fpp.  Off by default:
                                     # the filter bytes count against encoded
                                     # size
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
