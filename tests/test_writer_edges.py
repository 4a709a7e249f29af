"""Writer edge semantics mirroring the reference's writer tests
(writer/writer_test.go:145-239): zero rows, idempotent double-finalize,
error propagation on a failing sink, all-null columns."""

import os
import stat

import pyarrow as pa
import pytest

from parquet_go_ray.config import EngineConfig
from parquet_go_ray.sources.synth import make_code_table
from parquet_go_ray.stages.encode import encode_table
from parquet_go_ray.state import lineage as lin


def test_zero_row_table():
    t = make_code_table(50, seed=1).slice(0, 0)
    chunks = encode_table(t, EngineConfig())
    assert chunks.num_rows == len(t.column_names)
    assert all(r == 0 for r in chunks["rows"].to_pylist())
    from parquet_go_ray.stages.encode import reassemble_chunk

    out = reassemble_chunk(chunks)
    assert out.num_rows == 0
    assert set(out.column_names) == set(t.column_names)


def test_all_null_column_stats():
    t = pa.table({"x": pa.array([None] * 10, pa.int64())})
    chunks = encode_table(t, EngineConfig())
    assert chunks["nulls"].to_pylist() == [10]
    from parquet_go_ray.chunk import decode_column_chunk

    arr = decode_column_chunk(chunks["blob"][0].as_py())
    assert arr.null_count == 10


def _floor_table() -> pa.Table:
    import numpy as np

    n = 10000
    return pa.table({"ids": pa.array(np.arange(n, dtype=np.int64)), "flag": pa.array([7] * n, pa.int64())})


def test_reference_floor_replaces_losing_planned_codec():
    """A planned codec that loses to the reference policy on a chunk is
    replaced there; one that wins is kept."""
    plan = {"ids": ("delta_bp", "none"), "flag": ("plain", "none")}
    chunks = encode_table(_floor_table(), EngineConfig(), plan=plan)
    by_col = {r["column"]: r for r in chunks.select(["column", "codec", "outer", "enc_bytes", "ref_bytes"]).to_pylist()}
    assert (by_col["ids"]["codec"], by_col["ids"]["outer"]) == ("delta_bp", "none")
    assert (by_col["flag"]["codec"], by_col["flag"]["outer"]) != ("plain", "none")
    assert all(r["enc_bytes"] <= r["ref_bytes"] for r in by_col.values())


def test_per_column_codec_override_skips_reference_floor():
    """A caller's per_column_codec is honored as-is, even where it loses."""
    cfg = EngineConfig(per_column_codec={"flag": ("plain", "none")})
    chunks = encode_table(_floor_table(), cfg)
    row = [r for r in chunks.select(["column", "codec", "outer", "enc_bytes", "ref_bytes"]).to_pylist() if r["column"] == "flag"][0]
    assert (row["codec"], row["outer"]) == ("plain", "none")
    assert row["enc_bytes"] > row["ref_bytes"]


def test_double_finalize_idempotent(tmp_path):
    """Retrying write_partition keeps the first write (writer_test.go's
    double-WriteStop analog for distributed retries)."""
    out = str(tmp_path)
    t = pa.table({"a": pa.array([1, 2, 3])})
    chunks = encode_table(t, EngineConfig())
    lin.write_partition(out, 3, chunks, {"rows": 3, "raw_bytes": 1, "enc_bytes": 1})
    first = os.path.getmtime(os.path.join(lin.part_dir(out, 3), "chunks.parquet"))
    lin.write_partition(out, 3, chunks, {"rows": 3, "raw_bytes": 9, "enc_bytes": 9})
    assert os.path.getmtime(os.path.join(lin.part_dir(out, 3), "chunks.parquet")) == first
    assert lin.read_lineage(out, 3)["raw_bytes"] == 1


def test_failing_sink_propagates(tmp_path):
    """Unwritable sink raises instead of silently dropping the partition
    (writer_test.go:235-239 error-propagation analog)."""
    out = tmp_path / "ro"
    out.mkdir()
    os.chmod(out, stat.S_IRUSR | stat.S_IXUSR)
    t = pa.table({"a": pa.array([1])})
    chunks = encode_table(t, EngineConfig())
    try:
        if os.geteuid() == 0:
            pytest.skip("root ignores directory permissions")
        with pytest.raises(OSError):
            lin.write_partition(str(out), 0, chunks, {"rows": 1, "raw_bytes": 1, "enc_bytes": 1})
    finally:
        os.chmod(out, stat.S_IRWXU)
