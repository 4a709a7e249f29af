"""End-to-end: synth corpus -> map-only partitioned encode -> checkpointed
chunks -> decode-verify -> resume skips finished partitions.
Models the reference's writer round-trip tests (writer/writer_test.go:20-143)
at pipeline scale."""

import shutil

import numpy as np
import pyarrow as pa
import pytest

from parquet_go_ray.config import EngineConfig
from parquet_go_ray.sources.synth import make_code_table


def test_synth_determinism():
    a = make_code_table(500, seed=42)
    b = make_code_table(500, seed=42)
    assert a.equals(b)
    c = make_code_table(500, seed=43)
    assert not a.equals(c)
    assert a.column_names == ["repo", "path", "commit", "lang", "content"]


def test_encode_partitioned_and_resume(ray_session, tmp_path):
    import ray.data as rd

    from parquet_go_ray.pipelines.encode_pipeline import (
        decode_partitions,
        encode_partitioned,
    )
    from parquet_go_ray.stages.encode import ChunkDecoder, reassemble_chunk
    from parquet_go_ray.state import lineage as lin

    out = str(tmp_path / "enc")
    t = make_code_table(2000, seed=7)
    cfg = EngineConfig(batch_size_rows=1000)
    metrics = encode_partitioned(
        rd.from_arrow(t), out, cfg, num_parts=4
    ).to_pandas()
    assert metrics.rows.sum() == 2000
    assert metrics.enc_bytes.sum() < metrics.raw_bytes.sum()
    assert metrics.enc_bytes.sum() <= metrics.ref_bytes.sum()
    done = lin.done_parts(out)
    assert len(done) == len(metrics)

    # verify every chunk decodes bit-identically (sha match)
    ver = (
        decode_partitions(out)
        .map_batches(ChunkDecoder, batch_format="pyarrow", concurrency=2)
        .to_pandas()
    )
    assert ver.ok.all()

    # full reassembly: all rows come back (order-insensitive by content)
    import pandas as pd

    cdf = decode_partitions(out).to_pandas()
    parts = []
    for cid, g in cdf.groupby("chunk_id", sort=False):
        parts.append(reassemble_chunk(pa.Table.from_pandas(g)).to_pandas())
    got = pd.concat(parts, ignore_index=True)
    assert len(got) == 2000
    orig = t.to_pandas()
    key = ["repo", "path", "commit", "lang", "content"]
    got_s = got[key].sort_values(key).reset_index(drop=True)
    orig_s = orig[key].sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(got_s, orig_s)

    # resume: nothing left to do -> zero new partitions encoded
    m2 = encode_partitioned(rd.from_arrow(t), out, cfg, num_parts=4)
    assert m2.count() == 0


def _slices(t: pa.Table, k: int) -> list[pa.Table]:
    n = t.num_rows
    return [t.slice(i * n // k, (i + 1) * n // k - i * n // k) for i in range(k)]


def test_crash_resume_reencodes_only_lost_part(ray_session, tmp_path):
    """A lost partition is re-encoded alone and identically, even when the
    resume reads the same rows in a different block layout."""
    import pandas as pd
    import pyarrow.parquet as pq
    import ray.data as rd

    from parquet_go_ray.pipelines.encode_pipeline import (
        decode_partitions,
        encode_partitioned,
    )
    from parquet_go_ray.stages.encode import reassemble_blocks
    from parquet_go_ray.state import lineage as lin

    out = str(tmp_path / "enc")
    t = make_code_table(2000, seed=5)
    cfg = EngineConfig(batch_size_rows=300)
    first = encode_partitioned(rd.from_arrow(_slices(t, 3)), out, cfg, num_parts=4).to_pandas()
    assert len(first) == 4
    done = lin.done_parts(out)
    assert done == set(first.part)

    lost = sorted(done)[1]
    lost_chunks = pq.read_table(f"{lin.part_dir(out, lost)}/chunks.parquet")
    shutil.rmtree(lin.part_dir(out, lost))

    again = encode_partitioned(rd.from_arrow(_slices(t, 7)), out, cfg, num_parts=4).to_pandas()
    assert again.part.tolist() == [lost]
    assert lin.done_parts(out) == done
    assert pq.read_table(f"{lin.part_dir(out, lost)}/chunks.parquet").equals(lost_chunks)

    back = (
        decode_partitions(out)
        .map_batches(reassemble_blocks, batch_format="pyarrow", batch_size=None)
        .to_pandas()
    )
    key = list(t.column_names)
    assert len(back) == t.num_rows
    pd.testing.assert_frame_equal(
        back[key].sort_values(key).reset_index(drop=True),
        t.to_pandas()[key].sort_values(key).reset_index(drop=True),
    )


@pytest.mark.parametrize("halves,num_parts", [(2, 2), (1, 8)])
def test_identical_fragments_keep_every_row(ray_session, tmp_path, halves, num_parts):
    """Fragments with equal rows (a table of two identical halves) and
    empty fragments (fewer rows than parts) each keep their own part: every
    input row is encoded once, and a resume from another layout skips all."""
    import pandas as pd
    import ray.data as rd

    from parquet_go_ray.pipelines.encode_pipeline import (
        decode_partitions,
        encode_partitioned,
    )
    from parquet_go_ray.stages.encode import reassemble_blocks
    from parquet_go_ray.state import lineage as lin

    half = make_code_table(300 if halves == 2 else 3, seed=9)
    t = pa.concat_tables([half] * halves)
    out = str(tmp_path / "enc")
    cfg = EngineConfig(batch_size_rows=100)
    m = encode_partitioned(rd.from_arrow(t), out, cfg, num_parts=num_parts).to_pandas()
    assert m.rows.sum() == t.num_rows
    assert m.part.is_unique
    assert lin.done_parts(out) == set(m.part)

    back = (
        decode_partitions(out)
        .map_batches(reassemble_blocks, batch_format="pyarrow", batch_size=None)
        .to_pandas()
    )
    key = list(t.column_names)
    assert len(back) == t.num_rows
    pd.testing.assert_frame_equal(
        back[key].sort_values(key).reset_index(drop=True),
        t.to_pandas()[key].sort_values(key).reset_index(drop=True),
    )
    again = encode_partitioned(rd.from_arrow(_slices(t, 3)), out, cfg, num_parts=num_parts)
    assert again.count() == 0


_ONE_CPU_SCRIPT = """
import sys
import ray
import ray.data as rd
from parquet_go_ray.config import EngineConfig
from parquet_go_ray.pipelines.encode_pipeline import encode_partitioned
from parquet_go_ray.sources.synth import make_code_table

ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
rd.DataContext.get_current().enable_progress_bars = False
t = make_code_table(2000, seed=9)
m = encode_partitioned(rd.from_arrow(t), sys.argv[1], EngineConfig(batch_size_rows=500), num_parts=4)
assert sum(m.to_pandas().rows) == 2000
ray.shutdown()
print("OK")
"""


def test_encode_partitioned_one_cpu_completes(tmp_path):
    """A one-CPU session must finish the encode: there is no exchange whose
    actors hold back part of the only CPU from the map tasks."""
    import os
    import signal
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU_SCRIPT, str(tmp_path / "enc")],
        cwd=root,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    try:
        log, _ = proc.communicate(timeout=150)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("encode_partitioned did not finish in 150 s at num_cpus=1")
    assert proc.returncode == 0 and "OK" in log, log[-2000:]


def test_manifest_rollup(ray_session, tmp_path):
    import ray.data as rd

    from parquet_go_ray.pipelines.encode_pipeline import encode_partitioned
    from parquet_go_ray.state import lineage as lin

    out = str(tmp_path / "enc2")
    t = make_code_table(800, seed=11)
    encode_partitioned(rd.from_arrow(t), out, EngineConfig(batch_size_rows=500), num_parts=2).materialize()
    man = lin.collect_manifest(out)
    assert man["rows"] == 800
    assert man["partitions"] == 2
    lin.write_manifest(out, man)
    assert lin.collect_manifest(out)["rows"] == 800


def test_transcode_roundtrip(ray_session, tmp_path):
    """parquet -> chunks -> parquet closes the reference's reader/writer loop."""
    import pandas as pd
    import pyarrow.parquet as pq
    import ray.data as rd

    from parquet_go_ray.pipelines.transcode import chunks_to_parquet, parquet_to_chunks

    src = tmp_path / "src.parquet"
    t = make_code_table(600, seed=3)
    pq.write_table(t, src)
    chunk_dir = str(tmp_path / "chunks")
    parquet_to_chunks(str(src), chunk_dir, EngineConfig(batch_size_rows=256), num_parts=3).materialize()
    dest = str(tmp_path / "back")
    chunks_to_parquet(chunk_dir, dest)
    back = rd.read_parquet(dest).to_pandas()
    orig = t.to_pandas()
    key = list(orig.columns)
    pd.testing.assert_frame_equal(
        back[key].sort_values(key).reset_index(drop=True),
        orig[key].sort_values(key).reset_index(drop=True),
    )


def test_per_row_content_sha256_equality(ray_session, tmp_path):
    """BASELINE.json input_hint invariant: per-row sha256(content) equality
    through encode -> decode."""
    import hashlib

    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from parquet_go_ray.pipelines.encode_pipeline import (
        decode_partitions,
        encode_partitioned,
    )
    from parquet_go_ray.stages.encode import reassemble_chunk

    out = str(tmp_path / "sha")
    t = make_code_table(1500, seed=21)
    sha_in = sorted(
        hashlib.sha256(v.encode()).hexdigest() for v in t["content"].to_pylist()
    )
    encode_partitioned(rd.from_arrow(t), out, EngineConfig(batch_size_rows=500), num_parts=3).materialize()
    cdf = decode_partitions(out).to_pandas()
    shas_out = []
    for _, g in cdf.groupby("chunk_id", sort=False):
        tbl = reassemble_chunk(pa.Table.from_pandas(g))
        shas_out.extend(
            hashlib.sha256(v.encode()).hexdigest() for v in tbl["content"].to_pylist()
        )
    assert sorted(shas_out) == sha_in


def test_split_balances_giant_repo_skew(ray_session, tmp_path):
    """North rule: one repo holding 80% of rows must not make one partition
    hold it all.  Fragments are cut by row count, not by key, so every
    partition gets the same number of rows whatever the key skew."""
    import ray.data as rd

    from parquet_go_ray.pipelines.encode_pipeline import encode_partitioned

    n = 20000
    repo = [
        "org/giant" if i % 5 < 4 else f"org/tiny-{i % 50}" for i in range(n)
    ]
    t = pa.table(
        {
            "repo": pa.array(repo),
            "path": pa.array([f"src/f{i}.py" for i in range(n)]),
        }
    )
    cfg = EngineConfig(batch_size_rows=5000)
    ds = rd.from_arrow([t.slice(0, 13000), t.slice(13000)])
    rows = encode_partitioned(ds, str(tmp_path / "enc"), cfg, num_parts=8).to_pandas().rows
    assert len(rows) == 8
    assert rows.sum() == n
    assert rows.max() - rows.min() <= 1


def _take_batch_plan(ds, cfg):
    """The plan as a separate `take_batch` pass over the input gave it:
    the leading rows in input order, sorted by (repo, path), one
    select_codec per flat column."""
    import pyarrow.compute as pc

    from parquet_go_ray.selector import select_codec

    ds.context.execution_options.preserve_order = True
    sample = ds.take_batch(cfg.plan_sample_rows, batch_format="pyarrow")
    sample = sample.take(
        pc.sort_indices(
            sample.select(["repo", "path"]),
            sort_keys=[("repo", "ascending"), ("path", "ascending")],
        )
    )
    plan = {}
    for name in sample.column_names:
        col = sample[name].combine_chunks()
        codec, outer, _ = select_codec(col.drop_null() if col.null_count else col, cfg, column=name)
        plan[name] = (codec, outer)
    return plan


@pytest.mark.parametrize(
    "sample_rows,num_parts", [(700, 2), (2600, 4)], ids=["inside-first-fragment", "spans-fragments"]
)
def test_plan_from_split_matches_take_batch_plan(ray_session, tmp_path, monkeypatch, sample_rows, num_parts):
    """The plan sampled from the split's leading rows is the plan a
    take_batch over the multi-shard input gave, and the input is read once:
    every row passes the read exactly one time."""
    import glob
    import uuid

    import pyarrow.parquet as pq
    import ray.data as rd

    from parquet_go_ray.pipelines import encode_pipeline as ep

    t = make_code_table(3200, seed=13)
    src = tmp_path / "src"
    src.mkdir()
    for i, (lo, n) in enumerate([(0, 500), (500, 1300), (1800, 400), (2200, 1000)]):
        pq.write_table(t.slice(lo, n), src / f"shard-{i}.parquet")
    cfg = EngineConfig(batch_size_rows=1000, plan_sample_rows=sample_rows)
    want = _take_batch_plan(rd.read_parquet(str(src)), cfg)

    seen = []
    real = ep._plan_codecs

    def spy(sample, cfg):
        seen.append(sample)
        return real(sample, cfg)

    monkeypatch.setattr(ep, "_plan_codecs", spy)
    reads = tmp_path / "reads"
    reads.mkdir()

    def count_rows(batch):
        (reads / uuid.uuid4().hex).write_text(str(batch.num_rows))
        return batch

    ds = rd.read_parquet(str(src)).map_batches(count_rows, batch_format="pyarrow", batch_size=None)
    m = ep.encode_partitioned(ds, str(tmp_path / "enc"), cfg, num_parts=num_parts).to_pandas()
    assert len(seen) == 1 and seen[0].equals(t.slice(0, sample_rows))
    assert real(seen[0], cfg) == want
    assert m.rows.sum() == t.num_rows
    assert sum(int(open(f).read()) for f in glob.glob(str(reads / "*"))) == t.num_rows


def test_plan_skips_empty_fragments(ray_session, tmp_path, monkeypatch):
    """Fewer rows than parts: the sample holds every row (the empty
    fragments are skipped), and only the non-empty fragments reach
    encode_partition — one metrics row each."""
    import ray.data as rd

    from parquet_go_ray.pipelines import encode_pipeline as ep

    t = make_code_table(3, seed=5)
    seen = []
    real = ep._plan_codecs
    monkeypatch.setattr(ep, "_plan_codecs", lambda sample, cfg: seen.append(sample) or real(sample, cfg))
    m = ep.encode_partitioned(rd.from_arrow(t), str(tmp_path / "enc"), EngineConfig(), num_parts=8).to_pandas()
    assert len(seen) == 1 and seen[0].equals(t)
    assert sorted(m.rows) == [1, 1, 1]


def test_encode_partitioned_keeps_caller_context_and_chunk_blocks(ray_session, tmp_path):
    """The output-size bound is set on the fan-out's own context and the
    input order on the materialize's, never left on the caller's; and
    fragments of a few rows (whose chunk tables outweigh their input many
    times over) read back with every column row of a chunk in one block,
    decoding bit-identically."""
    import pandas as pd
    import ray
    import ray.data as rd

    from parquet_go_ray.pipelines.encode_pipeline import decode_partitions, encode_partitioned
    from parquet_go_ray.stages.encode import ChunkDecoder, reassemble_blocks

    n = 24
    t = pa.table(
        {
            "repo": [f"r{i % 3}" for i in range(n)],
            "path": [f"p/{i}" for i in range(n)],
            "content": [f"c{i}" for i in range(n)],
        }
    )
    ds = rd.from_arrow([t.slice(0, 10), t.slice(10)])
    before = ds.context.target_max_block_size
    global_before = rd.DataContext.get_current().target_max_block_size
    assert not ds.context.execution_options.preserve_order
    out = str(tmp_path / "enc")
    m = encode_partitioned(ds, out, EngineConfig(batch_size_rows=2), num_parts=8).materialize()
    assert m.count() == 8
    assert ds.context.target_max_block_size == before
    assert rd.DataContext.get_current().target_max_block_size == global_before
    assert not ds.context.execution_options.preserve_order

    chunks = decode_partitions(out).materialize()
    blocks = [ray.get(ref) for b in chunks.iter_internal_ref_bundles() for ref, _ in b.blocks]
    ncols = len(t.column_names)
    per_chunk = {}
    for block in blocks:
        counts = block.group_by("chunk_id").aggregate([("column", "count")])
        for cid, c in zip(counts["chunk_id"].to_pylist(), counts["column_count"].to_pylist()):
            per_chunk.setdefault(cid, []).append(c)
    # 8 fragments of 3 rows in chunks of 2 rows: 16 chunks, each whole in one block
    assert len(per_chunk) == 16 and all(c == [ncols] for c in per_chunk.values())

    assert ChunkDecoder(recompute_sha=True)(pa.concat_tables(blocks))["ok"].to_pylist() == [True] * 16 * ncols
    back = pa.concat_tables([reassemble_blocks(b) for b in blocks]).to_pandas()
    key = list(t.column_names)
    pd.testing.assert_frame_equal(
        back[key].sort_values(key).reset_index(drop=True),
        t.to_pandas()[key].sort_values(key).reset_index(drop=True),
    )


def test_chunkcat_tool(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from parquet_go_ray.config import EngineConfig
    from parquet_go_ray.pipelines.encode_pipeline import encode_partitioned
    from parquet_go_ray.tools import chunk_cat

    n = 5000
    f = tmp_path / "src.parquet"
    pq.write_table(
        pa.table(
            {
                "repo": pa.array([f"r{i%7}" for i in range(n)]),
                "path": pa.array([f"p/{i}" for i in range(n)]),
                "lang": pa.array(["py"] * n),
                "content": pa.array([f"line {i}" for i in range(n)]),
            }
        ),
        f,
    )
    out = tmp_path / "enc"
    ds = rd.read_parquet(str(f))
    encode_partitioned(ds, str(out), EngineConfig(batch_size_rows=512), num_parts=4).to_pandas()
    got = chunk_cat(str(out), "content", limit=5, skip=1000)
    assert len(got) == 5 and all(g.startswith("line ") for g in got)
    assert chunk_cat(str(out), "content", limit=10, skip=10**6) == []


def test_encode_partitioned_with_struct_column(ray_session, tmp_path):
    """Nested columns flow through the partitioned pipeline unchanged."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from parquet_go_ray.chunk import decode_column_chunk
    from parquet_go_ray.config import EngineConfig
    from parquet_go_ray.pipelines.encode_pipeline import encode_partitioned

    n = 2000
    f = tmp_path / "src.parquet"
    pq.write_table(
        pa.table(
            {
                "repo": pa.array([f"r{i%5}" for i in range(n)]),
                "path": pa.array([f"p/{i}" for i in range(n)]),
                "lang": pa.array(["py"] * n),
                "content": pa.array([f"c{i}" for i in range(n)]),
                "meta": pa.array(
                    [{"stars": i % 50, "fork": i % 2 == 0} for i in range(n)],
                    pa.struct([("stars", pa.int64()), ("fork", pa.bool_())]),
                ),
            }
        ),
        f,
    )
    out = tmp_path / "enc"
    m = encode_partitioned(
        rd.read_parquet(str(f)), str(out), EngineConfig(batch_size_rows=512), num_parts=4
    ).to_pandas()
    assert m.rows.sum() == n
    # decode one struct chunk back out of the checkpoint
    import pyarrow.parquet as pq2

    found = False
    for part in sorted((out).glob("part=*")):
        t = pq2.read_table(part / "chunks.parquet")
        for i in range(t.num_rows):
            if t["column"][i].as_py() == "meta":
                arr = decode_column_chunk(t["blob"][i].as_py())
                assert pa.types.is_struct(arr.type)
                assert arr.field("stars")[0].as_py() is not None
                found = True
                break
        if found:
            break
    assert found


def test_write_par1_dataset_roundtrip_and_resume(ray_session, tmp_path):
    """Distributed native sink: each block -> one indexed PAR1 file with a
    content-derived name; re-running over the same input skips every part;
    read_par1_dataset round-trips the directory (with pruning)."""
    import pyarrow.compute as pc

    import ray.data as rd

    from parquet_go_ray.pipelines.native_io import (
        read_par1_dataset,
        write_par1_dataset,
    )

    n = 8000
    t = pa.table(
        {
            "k": pa.array(np.arange(n), pa.int64()),
            "s": pa.array([f"v{i % 13}" for i in range(n)]),
            "x": pa.array(np.linspace(0, 1, n), pa.float64()),
        }
    )
    out = str(tmp_path / "native_sink")
    slices = [t.slice(i * 1000, 1000) for i in range(8)]
    man1 = write_par1_dataset(
        rd.from_arrow(slices), out, page_rows=250,
        encodings={"k": "delta_bp", "s": "dict"},
    ).to_pandas()
    assert len(man1) == 8 and not man1.skipped.any()
    assert sorted(man1.rows) == [1000] * 8

    # resume: same input -> every part skipped, same paths
    man2 = write_par1_dataset(rd.from_arrow(slices), out, page_rows=250).to_pandas()
    assert man2.skipped.all()
    assert sorted(man2.path) == sorted(man1.path)

    back = read_par1_dataset(out).to_arrow_refs()
    import ray

    whole = pa.concat_tables([ray.get(r) for r in back]).sort_by("k")
    assert whole.to_pydict() == t.to_pydict()

    # pruned read over the sink output
    got = (
        read_par1_dataset(out, columns=["k", "x"], predicate=("k", ">=", 7500))
        .to_pandas()
        .sort_values("k")
    )
    exp = t.filter(pc.greater_equal(t["k"], 7500))
    assert list(got.k) == exp["k"].to_pylist()
    assert np.allclose(got.x, exp["x"].to_pylist())


def test_write_par1_dataset_crash_leftovers(ray_session, tmp_path):
    """A task killed mid-write leaves only part_*.parquet.tmp.<pid> litter:
    the scan's *.parquet glob never picks it up, and a resume run completes
    the missing part while skipping finished ones."""
    import os

    import ray.data as rd

    from parquet_go_ray.pipelines.native_io import (
        read_par1_dataset,
        write_par1_dataset,
    )

    n = 4000
    t = pa.table({"k": pa.array(np.arange(n), pa.int64())})
    out = str(tmp_path / "crashy")
    slices = [t.slice(i * 1000, 1000) for i in range(4)]
    man = write_par1_dataset(rd.from_arrow(slices), out).to_pandas()
    assert len(man) == 4

    # simulate a crashed task: delete one finished part, leave its torn tmp
    victim = sorted(man.path)[1]
    with open(f"{victim}.tmp.99999", "wb") as f:
        f.write(b"PAR1torn-half-written")
    os.unlink(victim)

    man2 = write_par1_dataset(rd.from_arrow(slices), out).to_pandas()
    assert int((~man2.skipped).sum()) == 1  # only the victim re-encoded
    back = read_par1_dataset(out).to_pandas()
    assert sorted(back.k) == list(range(n))


def test_write_par1_dataset_partitioned(ray_session, tmp_path):
    """Hive-style partitioned sink: parts land under col=value dirs, the
    partition column stays in the files, and partitions={...} prunes the
    listing to one directory."""
    import ray.data as rd

    from parquet_go_ray.pipelines.native_io import (
        read_par1_dataset,
        write_par1_dataset,
    )

    n = 6000
    t = pa.table(
        {
            "k": pa.array(np.arange(n), pa.int64()),
            "g": pa.array([["a", "b", "c"][i % 3] for i in range(n)]),
        }
    )
    out = str(tmp_path / "hive")
    slices = [t.slice(i * 1500, 1500) for i in range(4)]
    man = write_par1_dataset(
        rd.from_arrow(slices), out, partition_by="g"
    ).to_pandas()
    # 4 blocks x 3 values -> 12 parts, each under its g=<v> dir
    assert len(man) == 12 and set(man.partition) == {"g=a", "g=b", "g=c"}
    assert all(p.split("/")[-2] == part for p, part in zip(man.path, man.partition))
    assert int(man.rows.sum()) == n

    only_b = read_par1_dataset(out, partitions={"g": "b"}).to_pandas()
    exp = t.filter(pa.compute.equal(t["g"], "b")).to_pandas()
    assert sorted(only_b.k) == sorted(exp.k) and set(only_b.g) == {"b"}

    whole = read_par1_dataset(out).to_pandas()
    assert sorted(whole.k) == list(range(n))

    # resume holds per partition
    man2 = write_par1_dataset(
        rd.from_arrow(slices), out, partition_by="g"
    ).to_pandas()
    assert man2.skipped.all()


def test_compact_par1_dataset(ray_session, tmp_path):
    """Small-files compaction: 12 tiny parts bin-pack into a few
    target-sized files; rows identical, pruned reads still work, re-run
    resumes (all bins skipped)."""
    import ray
    import ray.data as rd

    from parquet_go_ray.pipelines.native_io import (
        compact_par1_dataset,
        read_par1_dataset,
        write_par1_dataset,
    )

    n = 12000
    t = pa.table(
        {
            "k": pa.array(np.arange(n), pa.int64()),
            "s": pa.array([f"v{i % 11}" for i in range(n)]),
        }
    )
    small = str(tmp_path / "small")
    slices = [t.slice(i * 1000, 1000) for i in range(12)]
    man = write_par1_dataset(rd.from_arrow(slices), small).to_pandas()
    assert len(man) == 12
    big = str(tmp_path / "big")
    part_bytes = int(man.bytes.max())
    man2 = compact_par1_dataset(
        small, big, target_bytes=part_bytes * 4 + 1024,
        encodings={"k": "delta_bp", "s": "dict"}, page_rows=2000,
    ).to_pandas()
    assert 1 < len(man2) < 12 and int(man2.rows.sum()) == n

    back = read_par1_dataset(big).to_arrow_refs()
    whole = pa.concat_tables([ray.get(r) for r in back]).sort_by("k")
    assert whole.to_pydict() == t.to_pydict()

    # pruned read over compacted output
    got = read_par1_dataset(big, columns=["k"], predicate=("k", ">=", 11000)).to_pandas()
    assert sorted(got.k) == list(range(11000, 12000))

    # resume: identical bins -> every output part skipped
    man3 = compact_par1_dataset(
        small, big, target_bytes=part_bytes * 4 + 1024,
        encodings={"k": "delta_bp", "s": "dict"}, page_rows=2000,
    ).to_pandas()
    assert man3.skipped.all()


def test_compact_par1_dataset_partitioned(ray_session, tmp_path):
    """Compacting a hive layout is partition-local: members never merge
    across col=value dirs and each output bin lands under its own
    partition dir, so directory pruning keeps working afterward."""
    import ray.data as rd

    from parquet_go_ray.pipelines.native_io import (
        compact_par1_dataset,
        read_par1_dataset,
        write_par1_dataset,
    )

    n = 9000
    t = pa.table(
        {
            "k": pa.array(np.arange(n), pa.int64()),
            "g": pa.array([["x", "y", "z"][i % 3] for i in range(n)]),
        }
    )
    small = str(tmp_path / "hive_small")
    slices = [t.slice(i * 1500, 1500) for i in range(6)]
    man = write_par1_dataset(rd.from_arrow(slices), small, partition_by="g").to_pandas()
    assert len(man) == 18  # 6 blocks x 3 partitions

    big = str(tmp_path / "hive_big")
    man2 = compact_par1_dataset(small, big, target_bytes=1 << 30).to_pandas()
    # everything fits one bin PER PARTITION -> exactly 3 output files
    assert len(man2) == 3 and set(man2.partition) == {"g=x", "g=y", "g=z"}
    assert int(man2.rows.sum()) == n
    assert all(p.split("/")[-2] == part for p, part in zip(man2.path, man2.partition))

    only_y = read_par1_dataset(big, partitions={"g": "y"}).to_pandas()
    exp = t.filter(pa.compute.equal(t["g"], "y")).to_pandas()
    assert sorted(only_y.k) == sorted(exp.k) and set(only_y.g) == {"y"}
    whole = read_par1_dataset(big).to_pandas()
    assert sorted(whole.k) == list(range(n))


def test_read_par1_dataset_split_row_groups(ray_session, tmp_path):
    """Intra-file parallelism: ONE huge file with many row groups becomes
    one Ray work item per row group, packed into tasks by the read
    fan-out; results and pruning match the per-file path."""
    import pyarrow.compute as pc

    from parquet_go_ray.config import cluster_cpus
    from parquet_go_ray.formats.par1 import write_par1
    from parquet_go_ray.pipelines.native_io import read_par1_dataset

    n = 12000
    t = pa.table(
        {
            "k": pa.array(np.arange(n), pa.int64()),
            "v": pa.array(np.arange(n) * 0.5, pa.float64()),
        }
    )
    p = str(tmp_path / "one_big.parquet")
    write_par1(t, p, codec="snappy", row_group_rows=1500, page_rows=500,
               encodings={"k": "delta_bp"})

    ds = read_par1_dataset(p, split_row_groups=True)
    got = ds.to_pandas().sort_values("k").reset_index(drop=True)
    assert list(got.k) == list(range(n))
    # the split path spreads the 8 (tiny) row groups over one task per CPU
    # slot, each task's output one block
    assert ds.materialize().num_blocks() == min(8, cluster_cpus())

    pruned = (
        read_par1_dataset(p, columns=["k"], predicate=("k", ">=", 10500),
                          split_row_groups=True)
        .to_pandas().sort_values("k")
    )
    exp = t.filter(pc.greater_equal(t["k"], 10500))
    assert list(pruned.k) == exp["k"].to_pylist()


def test_read_par1_dataset_union_by_name(ray_session, tmp_path):
    """Schema evolution: old parts lack a column; union_by_name fills typed
    nulls, adapts predicates per file, and raises on type conflicts."""
    import pyarrow.compute as pc

    from parquet_go_ray.formats.par1 import write_par1
    from parquet_go_ray.pipelines.native_io import read_par1_dataset

    d = tmp_path / "evo"
    d.mkdir()
    old = pa.table(
        {
            "k": pa.array(np.arange(0, 500, dtype=np.int64)),
            "s": pa.array([f"o{i%7}" for i in range(500)]),
        }
    )
    new = pa.table(
        {
            "k": pa.array(np.arange(500, 1000, dtype=np.int64)),
            "s": pa.array([f"n{i%5}" for i in range(500)]),
            "extra": pa.array(np.arange(500, dtype=np.float64)),
        }
    )
    write_par1(old, str(d / "old.parquet"), codec="snappy", page_rows=100)
    write_par1(new, str(d / "new.parquet"), codec="snappy", page_rows=100)

    # plain union: old part's `extra` is all null
    ds = read_par1_dataset(str(d), union_by_name=True)
    got = ds.to_pandas().sort_values("k").reset_index(drop=True)
    assert list(got.columns) == ["k", "s", "extra"]
    assert got["extra"].isna().sum() == 500
    assert got["extra"].notna().sum() == 500

    # value predicate on the evolved column: old file contributes nothing
    got2 = read_par1_dataset(
        str(d), columns=["k", "extra"], predicate=("extra", "<", 100.0),
        union_by_name=True,
    ).to_pandas()
    assert sorted(got2["k"]) == list(range(500, 600))

    # is_null branch keeps the old generation; OR branch keeps big extras
    got3 = read_par1_dataset(
        str(d),
        columns=["k"],
        predicate=[[("extra", "is_null", None)], [("extra", ">=", 400.0)]],
        union_by_name=True,
    ).to_pandas()
    assert sorted(got3["k"]) == list(range(0, 500)) + list(range(900, 1000))

    # not_null on the missing column excludes the old file entirely
    got4 = read_par1_dataset(
        str(d), columns=["k"], predicate=("extra", "not_null", None),
        union_by_name=True,
    ).to_pandas()
    assert sorted(got4["k"]) == list(range(500, 1000))

    # split_row_groups path composes with union_by_name
    got5 = (
        read_par1_dataset(
            str(d), columns=["k", "extra"], predicate=("k", ">=", 450),
            union_by_name=True, split_row_groups=True,
        )
        .to_pandas()
        .sort_values("k")
    )
    assert list(got5["k"]) == list(range(450, 1000))
    assert got5["extra"].isna().sum() == 50

    # type conflict is strict
    clash = pa.table({"k": pa.array(["a", "b"])})
    write_par1(clash, str(d / "clash.parquet"), codec="snappy")
    with pytest.raises((pa.ArrowInvalid, pa.ArrowTypeError)):
        read_par1_dataset(str(d), union_by_name=True)


def test_read_par1_dataset_union_no_projected_columns(ray_session, tmp_path):
    """A file with NONE of the projected columns still contributes its row
    count as all-null rows."""
    from parquet_go_ray.formats.par1 import write_par1
    from parquet_go_ray.pipelines.native_io import read_par1_dataset

    d = tmp_path / "evo2"
    d.mkdir()
    write_par1(
        pa.table({"a": pa.array([1, 2, 3], pa.int64())}),
        str(d / "p1.parquet"), codec="none",
    )
    write_par1(
        pa.table({"b": pa.array([10.0, 20.0], pa.float64())}),
        str(d / "p2.parquet"), codec="none",
    )
    got = read_par1_dataset(str(d), columns=["b"], union_by_name=True).to_pandas()
    assert len(got) == 5
    assert got["b"].isna().sum() == 3
    assert sorted(got["b"].dropna()) == [10.0, 20.0]


def test_par1_manifest_file_pruning(ray_session, tmp_path):
    """build_par1_manifest + manifest-pruned scans: the listing drops whole
    files driver-side from per-file stats; results stay exact."""
    import glob
    import os

    import pyarrow.compute as pc

    from parquet_go_ray.formats.par1 import _normalize_predicate, read_par1
    from parquet_go_ray.pipelines.native_io import (
        MANIFEST_NAME,
        _manifest_admit,
        build_par1_manifest,
        read_par1_dataset,
        write_par1_dataset,
    )

    import ray.data as rd

    d = str(tmp_path / "mani")
    n = 24000
    t = pa.table(
        {
            "k": pa.array(np.arange(n, dtype=np.int64)),
            "s": pa.array([f"s{i % 31}" for i in range(n)]),
        }
    )
    write_par1_dataset(
        rd.from_arrow(t).repartition(8), d, codec="snappy", page_rows=1000
    ).materialize()
    mpath = build_par1_manifest(d)
    mtab = read_par1(mpath)
    assert mtab.num_rows == 8
    assert "stats" in mtab.column_names

    paths = sorted(
        p
        for p in glob.glob(d + "/**/*.parquet", recursive=True)
        if os.path.basename(p) != MANIFEST_NAME
    )
    admitted, known = _manifest_admit(
        [mpath], _normalize_predicate(("k", "<", 3000), {"k": pa.int64()})
    )
    kept = [p for p in paths if p not in known or p in admitted]
    assert 0 < len(kept) < len(paths)

    got = read_par1_dataset(d, columns=["k"], predicate=("k", "<", 3000)).to_pandas()
    assert sorted(got["k"]) == list(range(3000))

    # DNF through the manifest: union of admitting files, exact rows
    got2 = read_par1_dataset(
        d,
        columns=["k", "s"],
        predicate=[[("s", "==", "s7"), ("k", ">=", 23000)], [("k", "<", 10)]],
    ).to_pandas()
    exp2 = [i for i in range(n) if (i % 31 == 7 and i >= 23000) or i < 10]
    assert sorted(got2["k"]) == exp2

    # every file excluded -> typed empty dataset (schema survives)
    ds3 = read_par1_dataset(d, columns=["k"], predicate=("k", "<", -5))
    assert ds3.count() == 0
    assert [f.name for f in ds3.schema().base_schema] == ["k"]

    # a stale manifest (file added after build) keeps the unknown file
    from parquet_go_ray.formats.par1 import write_par1

    extra = pa.table(
        {
            "k": pa.array([-100], pa.int64()),
            "s": pa.array(["zz"]),
        }
    )
    write_par1(extra, os.path.join(d, "part_manual.parquet"), codec="none")
    got4 = read_par1_dataset(d, columns=["k"], predicate=("k", "<", -5)).to_pandas()
    assert list(got4["k"]) == [-100]

    # use_manifest=False bypasses the manifest entirely (same rows)
    got5 = read_par1_dataset(
        d, columns=["k"], predicate=("k", "<", 3000), use_manifest=False
    ).to_pandas()
    assert sorted(got5["k"]) == [-100] + list(range(3000))


def test_write_par1_dataset_sort_by(ray_session, tmp_path):
    """Block-local sort_by turns pages into tight key bands: same rows,
    far fewer pages decoded under a key predicate; sorting_columns is
    recorded.  Compaction re-clusters with the same flag."""
    import glob
    import os

    import ray.data as rd

    from parquet_go_ray.formats.par1 import read_par1_meta, read_par1_pruned
    from parquet_go_ray.pipelines.native_io import (
        compact_par1_dataset,
        read_par1_dataset,
        write_par1_dataset,
    )

    rng = np.random.default_rng(1)
    n = 20000
    t = pa.table(
        {
            "k": pa.array(rng.permutation(n).astype(np.int64)),
            "v": pa.array(rng.normal(size=n)),
        }
    )

    def decoded_pages(d):
        tot = dec = 0
        for p in sorted(glob.glob(d + "/**/part_*.parquet", recursive=True)):
            _, st = read_par1_pruned(p, ["k", "v"], predicate=("k", "<", 1000))
            tot += st["pages_total"]
            dec += st["pages_decoded"]
        return dec, tot

    d0, d1 = str(tmp_path / "plainsink"), str(tmp_path / "sortedsink")
    write_par1_dataset(
        rd.from_arrow(t).repartition(4), d0, codec="snappy", page_rows=500
    ).materialize()
    write_par1_dataset(
        rd.from_arrow(t).repartition(4), d1, codec="snappy", page_rows=500,
        sort_by="k",
    ).materialize()
    dec0, tot0 = decoded_pages(d0)
    dec1, tot1 = decoded_pages(d1)
    assert dec0 == tot0  # permuted keys: nothing prunes
    assert dec1 <= tot1 // 4  # banded keys: most pages drop

    got = read_par1_dataset(d1, predicate=("k", "<", 1000)).to_pandas()
    assert sorted(got["k"]) == list(range(1000))
    anyp = sorted(glob.glob(d1 + "/part_*.parquet"))[0]
    sc = read_par1_meta(anyp)["row_groups"][0]["sorting_columns"]
    assert sc == [{"column_idx": 0, "descending": False, "nulls_first": False}]

    # compaction with sort_by re-clusters the merged bins
    d2 = str(tmp_path / "compacted")
    compact_par1_dataset(d0, d2, target_bytes=1 << 30, page_rows=500,
                         sort_by="k").materialize()
    dec2, tot2 = decoded_pages(d2)
    assert dec2 <= max(tot2 // 8, 2)
    got2 = read_par1_dataset(d2, predicate=("k", "<", 1000)).to_pandas()
    assert sorted(got2["k"]) == list(range(1000))


def test_validate_par1_dataset(ray_session, tmp_path):
    """fsck: clean dataset is all-ok; a flipped byte is caught by page CRC;
    stray tmp leftovers and manifest drift are flagged."""
    import glob

    import ray.data as rd

    from parquet_go_ray.pipelines.native_io import (
        build_par1_manifest,
        validate_par1_dataset,
        write_par1_dataset,
    )

    d = str(tmp_path / "fsck")
    n = 8000
    t = pa.table(
        {
            "k": pa.array(np.arange(n, dtype=np.int64)),
            "s": pa.array([f"s{i % 31}" for i in range(n)]),
        }
    )
    write_par1_dataset(
        rd.from_arrow(t).repartition(4), d, codec="snappy", page_rows=1000
    ).materialize()
    build_par1_manifest(d)
    res = validate_par1_dataset(d).to_pandas()
    assert res.ok.all() and len(res) == 4

    victim = sorted(glob.glob(d + "/part_*.parquet"))[1]
    raw = bytearray(open(victim, "rb").read())
    raw[len(raw) // 2] ^= 0xFF
    open(victim, "wb").write(bytes(raw))
    open(d + "/part_y.parquet.tmp.123", "wb").write(b"junk")

    res2 = validate_par1_dataset(d).to_pandas()
    bad = res2[~res2.ok].set_index("path")["error"]
    assert len(bad) == 2
    assert any("CRC" in e or "Error" in e for e in bad.values)
    assert any("stray tmp" in e for e in bad.values)


def test_explain_par1_scan(ray_session, tmp_path):
    """Pruning-ladder observability: counts at every level, exact rows_out."""
    import ray.data as rd

    from parquet_go_ray.pipelines.native_io import (
        build_par1_manifest,
        explain_par1_scan,
        write_par1_dataset,
    )

    d = str(tmp_path / "explain")
    n = 16000
    t = pa.table({"k": pa.array(np.arange(n, dtype=np.int64))})
    write_par1_dataset(
        rd.from_arrow(t).repartition(4), d, codec="snappy", page_rows=500,
        sort_by="k",
    ).materialize()
    build_par1_manifest(d)
    info = explain_par1_scan(d, predicate=("k", "<", 1000))
    assert info["files_total"] == 4
    assert info["files_after_manifest"] == 1
    assert info["pages_decoded"] < info["pages_total"]
    assert info["rows_out"] == 1000
    # no predicate: everything decodes, full row count
    info2 = explain_par1_scan(d)
    assert info2["files_after_manifest"] == 4
    assert info2["rows_out"] == n


def test_write_par1_dataset_zorder(ray_session, tmp_path):
    """cluster_by Z-orders each block: page pruning stays selective on
    EVERY clustered column, where a lexicographic sort only helps its
    first key.  Rows identical across layouts."""
    import ray.data as rd

    from parquet_go_ray.pipelines.native_io import (
        explain_par1_scan,
        write_par1_dataset,
    )

    rng = np.random.default_rng(5)
    n = 30000
    t = pa.table(
        {
            "a": pa.array(rng.integers(0, 1000, n).astype(np.int64)),
            "b": pa.array(rng.integers(0, 1000, n).astype(np.int64)),
        }
    )
    out = {}
    for tag, kw in [("lex", {"sort_by": ["a", "b"]}), ("z", {"cluster_by": ["a", "b"]})]:
        d = str(tmp_path / tag)
        write_par1_dataset(
            rd.from_arrow(t).repartition(4), d, codec="snappy", page_rows=500, **kw
        ).materialize()
        out[tag] = (
            explain_par1_scan(d, columns=["a"], predicate=("a", "<", 100)),
            explain_par1_scan(d, columns=["b"], predicate=("b", "<", 100)),
        )
    for i in (0, 1):
        assert out["lex"][i]["rows_out"] == out["z"][i]["rows_out"]
    # lexicographic: second key prunes nothing; z-order prunes both
    assert out["lex"][1]["pages_decoded"] == out["lex"][1]["pages_total"]
    assert out["z"][1]["pages_decoded"] < out["lex"][1]["pages_decoded"] / 2
    assert out["z"][0]["pages_decoded"] < out["z"][0]["pages_total"] / 2

    # single-column cluster_by degenerates to a plain sort (sorting_columns set)
    from parquet_go_ray.formats.par1 import read_par1_meta
    import glob

    d1 = str(tmp_path / "one")
    write_par1_dataset(
        rd.from_arrow(t).repartition(2), d1, codec="none", cluster_by=["a"]
    ).materialize()
    p = sorted(glob.glob(d1 + "/part_*.parquet"))[0]
    assert read_par1_meta(p)["row_groups"][0]["sorting_columns"] is not None

    with pytest.raises(ValueError):
        write_par1_dataset(
            rd.from_arrow(t), str(tmp_path / "x"), sort_by="a", cluster_by=["b"]
        )


def test_union_by_name_random_dnf_property(ray_session, tmp_path):
    """Property: for random file-column-subsets and random DNF predicates,
    union_by_name reads equal pandas evaluation over the unified frame
    with SQL null semantics (missing column == all-null in that file)."""
    import pandas as pd

    import ray.data as rd

    from parquet_go_ray.formats.par1 import write_par1
    from parquet_go_ray.pipelines.native_io import read_par1_dataset

    rng = np.random.default_rng(31)
    d = tmp_path / "evoprop"
    d.mkdir()
    frames = []
    for fi in range(6):
        n = int(rng.integers(200, 600))
        base = {
            "a": rng.integers(0, 100, n).astype(np.int64),
            "b": rng.normal(size=n),
            "c": rng.integers(0, 10, n).astype(np.int64),
        }
        keep = ["a"] + [c for c in ("b", "c") if rng.random() < 0.7]
        t = pa.table({c: pa.array(base[c]) for c in keep})
        write_par1(t, str(d / f"f{fi}.parquet"), codec="snappy", page_rows=128)
        df = pd.DataFrame({c: base[c] if c in keep else np.nan for c in ("a", "b", "c")})
        frames.append(df)
    full = pd.concat(frames, ignore_index=True)

    def rand_clause():
        col = ["a", "b", "c"][rng.integers(0, 3)]
        op = [">=", "<", "==", "!=", "in", "is_null", "not_null"][rng.integers(0, 7)]
        if op in ("is_null", "not_null"):
            return (col, op, None)
        v = float(rng.normal()) if col == "b" else int(rng.integers(-5, 105))
        if op == "in":
            return (col, op, [v, v + 1])
        return (col, op, v)

    def clause_mask(df, col, op, v):
        s = df[col]
        if op == "is_null":
            return s.isna()
        if op == "not_null":
            return s.notna()
        if op == "in":
            return s.isin(v)
        m = {">=": s.ge, "<": s.lt, "==": s.eq, "!=": s.ne}[op](v)
        return m & s.notna()  # SQL: comparisons with NULL never match

    for trial in range(12):
        branches = [
            [rand_clause() for _ in range(int(rng.integers(1, 3)))]
            for _ in range(int(rng.integers(1, 3)))
        ]
        got = read_par1_dataset(
            str(d), columns=["a", "b", "c"], predicate=branches,
            union_by_name=True,
        ).to_pandas()
        mask = None
        for br in branches:
            m = None
            for cl in br:
                cm = clause_mask(full, *cl)
                m = cm if m is None else (m & cm)
            mask = m if mask is None else (mask | m)
        exp = full[mask]
        assert len(got) == len(exp), (trial, branches, len(got), len(exp))
        if len(exp) == 0:
            continue  # empty Dataset.to_pandas() drops columns (Ray quirk)
        for c in ("a", "b", "c"):
            g = np.sort(got[c].fillna(-1e18).to_numpy(dtype=float))
            e = np.sort(exp[c].fillna(-1e18).to_numpy(dtype=float))
            assert np.allclose(g, e), (trial, branches, c)


def test_review_fixes_union_and_explain(ray_session, tmp_path):
    """Regressions from the round-4 extension code review: (1) predicate on
    a present column applies even when NO projected column is in the file;
    (2) all-pruned + union_by_name returns the UNIFIED empty schema;
    (3) explain_par1_scan works on evolved datasets; (4) zorder on a
    nullable string column; (5) empty AND branch in the container scan."""
    import ray.data as rd

    from parquet_go_ray.formats.par1 import write_par1
    from parquet_go_ray.pipelines.native_io import (
        build_par1_manifest,
        explain_par1_scan,
        read_par1_dataset,
        write_par1_dataset,
    )

    d = tmp_path / "rf"
    d.mkdir()
    old = pa.table(
        {
            "k": pa.array(np.arange(0, 400, dtype=np.int64)),
            "s": pa.array([f"o{i % 7}" for i in range(400)]),
        }
    )
    new = pa.table(
        {
            "k": pa.array(np.arange(400, 800, dtype=np.int64)),
            "s": pa.array([f"n{i % 5}" for i in range(400)]),
            "extra": pa.array(np.arange(400, dtype=np.float64)),
        }
    )
    write_par1(old, str(d / "old.parquet"), codec="snappy", page_rows=100)
    write_par1(new, str(d / "new.parquet"), codec="snappy", page_rows=100)

    # (1) project only the evolved column, predicate on the shared column:
    # the old file must contribute exactly its k<100 rows as nulls
    got = read_par1_dataset(
        str(d), columns=["extra"], predicate=("k", "<", 450), union_by_name=True
    ).to_pandas()
    assert len(got) == 450
    assert got["extra"].isna().sum() == 400
    assert sorted(got["extra"].dropna()) == list(np.arange(50, dtype=float))

    # (2) manifest prunes everything; union schema survives in the empty
    build_par1_manifest(str(d))
    ds2 = read_par1_dataset(
        str(d), columns=["k", "extra"], predicate=("k", "<", -1), union_by_name=True
    )
    assert ds2.count() == 0
    assert [f.name for f in ds2.schema().base_schema] == ["k", "extra"]

    # (3) explain over the evolved dir
    info = explain_par1_scan(
        str(d), columns=["k"], predicate=("extra", ">=", 350.0), union_by_name=True
    )
    assert info["rows_out"] == 50

    # (4) zorder with a nullable string key
    sv = [None if i % 10 == 0 else f"s{i % 13}" for i in range(600)]
    t = pa.table(
        {
            "s": pa.array(sv, pa.string()),
            "k": pa.array(np.arange(600, dtype=np.int64)),
        }
    )
    dz = str(tmp_path / "znull")
    write_par1_dataset(
        rd.from_arrow(t).repartition(2), dz, codec="none", cluster_by=["s", "k"]
    ).materialize()
    back = read_par1_dataset(dz).to_pandas()
    assert len(back) == 600 and back["s"].isna().sum() == 60

    # (5) degenerate container-scan DNF: empty AND branch = match-all
    from parquet_go_ray.config import EngineConfig
    from parquet_go_ray.pipelines.encode_pipeline import encode_dataset
    from parquet_go_ray.pipelines.scan import scan_column

    chunks = encode_dataset(
        rd.from_arrow(pa.table({"v": pa.array([1, 2, 3], pa.int64())})),
        EngineConfig(batch_size_rows=2),
    ).materialize()
    assert scan_column(chunks, "v", predicate=[[]]).count() == 3


def test_review_fixes_fsck_temporal_and_trunc(tmp_path, ray_session):
    """fsck passes on timestamp/date columns; max truncation never emits
    bytes >= 0x80 (UTF-8 invariant holds at the 0x7F boundary)."""
    import ray.data as rd

    from parquet_go_ray.formats.par1 import _trunc_max_bytes, write_par1
    from parquet_go_ray.pipelines.native_io import validate_par1_dataset

    v = b"abc\x7e" + b"z" * 100
    assert max(_trunc_max_bytes(v)) < 0x80
    v2 = b"abc\x7f" + b"z" * 100
    assert _trunc_max_bytes(v2) == v2  # 0x7F prefix: kept exact

    n = 3000
    t = pa.table(
        {
            "ts": pa.array(
                np.arange(n, dtype=np.int64) * 10**9, pa.timestamp("us")
            ),
            "d": pa.array(np.arange(n, dtype=np.int32), pa.date32()),
            "k": pa.array(np.arange(n, dtype=np.int64)),
        }
    )
    dd = tmp_path / "tsval"
    dd.mkdir()
    write_par1(t, str(dd / "p.parquet"), codec="snappy", page_rows=500)
    res = validate_par1_dataset(str(dd)).to_pandas()
    assert res.ok.all(), res[~res.ok][["path", "error"]].to_string()


def test_resume_reuses_persisted_plan(ray_session, tmp_path):
    """The row->part mapping must be identical across resume attempts even
    if num_parts would be derived differently (different CPUs / size
    estimate): the plan persists first and resumes reuse it."""
    import pyarrow as pa
    import ray.data as rd

    from parquet_go_ray.config import EngineConfig
    from parquet_go_ray.pipelines.encode_pipeline import encode_partitioned
    from parquet_go_ray.state import lineage as lin

    out = str(tmp_path / "ckpt")
    t = pa.table(
        {
            "repo": pa.array([f"r{i % 7}" for i in range(400)]),
            "content": pa.array([f"line {i}" * 4 for i in range(400)]),
        }
    )
    cfg = EngineConfig(partitions=4, verify_sha256=False)
    encode_partitioned(rd.from_arrow(t), out, cfg).materialize()
    plan = lin.read_plan(out)
    assert plan == {"num_parts": 4}
    # a "resume" with a DIFFERENT requested partitioning must stick to the
    # recorded plan (4), not remap rows into 2 parts
    cfg2 = EngineConfig(partitions=2, verify_sha256=False)
    m = encode_partitioned(rd.from_arrow(t), out, cfg2).materialize()
    # all rows were checkpointed under plan=4; under a remapped plan=2 the
    # fragments (and so their part ids) would differ and re-encode
    assert m.count() == 0
    assert len(lin.done_parts(out)) == 4
    assert lin.read_plan(out) == {"num_parts": 4}


def test_decode_partitions_of_a_zero_row_encode(ray_session, tmp_path):
    """A root with no finished part decodes to zero rows typed as the chunk
    table, as a PAR1 read of an empty listing does."""
    import ray.data as rd

    from parquet_go_ray.pipelines.encode_pipeline import decode_partitions, encode_partitioned
    from parquet_go_ray.stages.encode import CHUNK_SCHEMA

    out = str(tmp_path / "enc")
    empty = make_code_table(10, seed=1).slice(0, 0)
    assert encode_partitioned(rd.from_arrow(empty), out, EngineConfig(), num_parts=2).count() == 0
    ds = decode_partitions(out)
    assert ds.count() == 0
    assert ds.schema().base_schema == CHUNK_SCHEMA


def test_all_duplicate_corpus_reassembles_every_row(ray_session, tmp_path):
    """Equal chunks share a chunk id (it hashes the column sha256s): a
    table repeated eight times decodes and reassembles to all its rows, the
    copies in one part and across parts alike."""
    import ray.data as rd

    from parquet_go_ray.pipelines.encode_pipeline import decode_partitions, encode_partitioned
    from parquet_go_ray.stages.encode import reassemble_blocks

    one = pa.table({"k": pa.array(range(25), pa.int64()), "s": [f"v{i}" for i in range(25)]})
    t = pa.concat_tables([one] * 8)
    out = str(tmp_path / "enc")
    m = encode_partitioned(rd.from_arrow(t), out, EngineConfig(batch_size_rows=25), num_parts=2).to_pandas()
    assert m["chunks"].sum() == 8
    chunks = decode_partitions(out)
    assert len({r["chunk_id"] for r in chunks.take_all()}) == 1
    back = chunks.map_batches(reassemble_blocks, batch_format="pyarrow", batch_size=None).to_pandas()
    assert sorted(zip(back["k"], back["s"])) == sorted(zip(*t.to_pydict().values()))
