"""Shared stage utilities."""

from __future__ import annotations

import functools

import pandas as pd
import pyarrow as pa


def pandas_to_arrow(df: pd.DataFrame) -> pa.Table:
    """pandas -> metadata-free Arrow.  Ray's own pandas->arrow block
    conversion attaches the b'pandas' schema blob, which makes the schema
    unhashable in this pyarrow: every downstream shuffle/sort reduce then
    logs 'Failed to hash the schemas' per block pair and falls back to O(n)
    schema unification.  Converting here keeps all blocks arrow + clean."""
    return pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)


def arrow_out(fn):
    """Wrap a pandas-batch fn so its pandas outputs leave as metadata-free
    Arrow blocks (see pandas_to_arrow)."""

    @functools.wraps(fn)
    def wrapped(batch, *args, **kwargs):
        out = fn(batch, *args, **kwargs)
        if isinstance(out, pd.DataFrame):
            return pandas_to_arrow(out)
        if isinstance(out, pa.Table) and out.schema.metadata:
            return out.replace_schema_metadata(None)
        return out

    return wrapped


def polars_mod():
    """Import polars defensively for use inside Ray worker UDFs.

    polars populates ``polars._reexport`` lazily; if a worker's first import
    is interrupted (task error / OOM mid-import), sys.modules caches the
    partially-initialized module and every later ``pl.from_arrow`` in that
    worker dies with ``module 'polars._reexport' has no attribute
    'DataFrame'`` (observed as a rare full-suite flake).  Detect the broken
    state and re-import from scratch."""
    import sys

    import polars as pl

    try:
        pl._reexport.DataFrame  # noqa: B018 — touch the lazy re-export
        return pl
    except AttributeError:
        for k in [k for k in sys.modules if k == "polars" or k.startswith("polars.")]:
            del sys.modules[k]
        import polars as pl  # noqa: F811

        return pl


def hash_part(keys, parts: int):
    """Knuth multiplicative-hash partitioner for int64 keys -> int64 part
    ids in [0, parts).  THE shared co-partitioning contract: every
    producer/consumer pair that must land matching keys in the same
    partition (window folds, session groups, as-of/range joins, grouped
    top-k, the hash-join prep) calls this one function — a constant or
    shift tweak applied anywhere else would silently break co-partitioning."""
    import numpy as np

    k = np.asarray(keys, dtype=np.int64)
    with np.errstate(over="ignore"):
        h = (k.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(33)
    return (h % np.uint64(parts)).astype(np.int64)
