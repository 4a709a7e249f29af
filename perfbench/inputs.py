"""Seeded benchmark inputs and the oracle answers the checks compare to.

Inputs are generated inside the run's work directory, so the benchmark
reads nothing outside its checkout.  The code corpus comes from the
program's own generator (``sources.synth``); the lineitem table is a
TPC-H-shaped synthetic table with the 11 mixed columns of the repository's
``lineitem`` test data.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

# Sizes are chosen so one write + read cycle takes a few seconds on one
# core: every run then measures several cycles and reports their median.
CODE_ROWS = 16_000  # generated; the input keeps the leading CODE_BYTES
# Raw bytes of the measured corpus, the same for every seed: a write is
# mostly fixed Ray cost, so MB/s would otherwise follow the seed's row sizes
# (16k generated rows hold 21-28 MB, depending on the seed).
CODE_BYTES = 20_000_000
CODE_PARTITIONS = 2  # ~10 MB of content per partition: sliced zstd runs
CODE_SHARD_ROWS = 4_000
CODE_SHARDS = 4
LINEITEM_ROWS = 240_000
LINEITEM_FILES = 8
PAR1_PAGE_ROWS = 8192
PAR1_SORT_BY = "l_orderkey"
PAR1_BLOOM = ["l_partkey"]
WARM_FRACTION = 8  # warm-up inputs are 1/8 of the measured ones


def make_lineitem(n_rows: int, seed: int) -> pa.Table:
    rng = np.random.default_rng(seed)
    n_orders = max(1, n_rows // 4)
    n_parts = max(1, n_rows // 30)
    orderkey = rng.integers(0, n_orders, n_rows)
    partkey = rng.integers(0, n_parts, n_rows)
    quantity = rng.integers(1, 51, n_rows).astype(np.float64)
    unit_price = np.round(900.0 + (partkey % 20_000) * 0.1 + rng.random(n_parts)[partkey] * 1100.0, 2)
    day0 = np.datetime64("1995-01-01", "us")
    shipdate = day0 + rng.integers(0, 2500, n_rows).astype("timedelta64[D]").astype("timedelta64[us]")
    return pa.table(
        {
            "l_orderkey": pa.array(orderkey, pa.int64()),
            "l_partkey": pa.array(partkey, pa.int64()),
            "l_suppkey": pa.array(rng.integers(0, 100, n_rows), pa.int64()),
            "l_linenumber": pa.array(rng.integers(1, 8, n_rows), pa.int32()),
            "l_quantity": pa.array(quantity),
            "l_extendedprice": pa.array(np.round(quantity * unit_price, 2)),
            "l_discount": pa.array(rng.integers(0, 11, n_rows) / 100.0),
            "l_tax": pa.array(rng.integers(0, 9, n_rows) / 100.0),
            "l_returnflag": pa.array(np.array(["A", "N", "R"])[rng.integers(0, 3, n_rows)]),
            "l_linestatus": pa.array(np.array(["F", "O"])[rng.integers(0, 2, n_rows)]),
            "l_shipdate": pa.array(shipdate, pa.timestamp("us")),
        }
    )


def _write_lineitem(dir_path: str, n_rows: int, seed: int) -> list[str]:
    table = make_lineitem(n_rows, seed)
    os.makedirs(dir_path, exist_ok=True)
    step = -(-n_rows // LINEITEM_FILES)
    files = []
    for i, lo in enumerate(range(0, n_rows, step)):
        path = os.path.join(dir_path, f"part_{i:02d}.parquet")
        pq.write_table(table.slice(lo, step), path)
        files.append(path)
    return files


def _reference_bytes(files: list[str], work_dir: str) -> int:
    """Size of the lineitem blocks in a reference-policy PAR1 dataset.

    Each block is sorted and written through ``write_par1`` exactly as the
    measured write does it (same page size, bloom filter and sort order),
    once with every column PLAIN and once with every column dictionary
    encoded, both snappy.  Per column chunk the smaller of the two counts;
    the rest of the file (footer, page index, bloom filter) is the PLAIN
    file's."""
    from parquet_go_ray.formats.par1 import write_par1

    os.makedirs(work_dir, exist_ok=True)
    total = 0
    for i, path in enumerate(files):
        block = pq.read_table(path).sort_by([(PAR1_SORT_BY, "ascending")])
        chunks = {}
        for enc in ("plain", "dict"):
            out = os.path.join(work_dir, f"{i}_{enc}.parquet")
            write_par1(block, out, codec="snappy", encodings={c: enc for c in block.column_names},
                       page_rows=PAR1_PAGE_ROWS, bloom=PAR1_BLOOM, sorting_columns=[(PAR1_SORT_BY, False, False)])
            md = pq.ParquetFile(out).metadata
            chunks[enc] = [md.row_group(g).column(c).total_compressed_size
                           for g in range(md.num_row_groups) for c in range(md.num_columns)]
            if enc == "plain":
                total += os.path.getsize(out) - sum(chunks[enc])
            os.remove(out)
        total += sum(min(p, d) for p, d in zip(chunks["plain"], chunks["dict"]))
    return total


def _code_corpus(inputs_dir: str, key: str, rows: int, seed: int, max_bytes: int) -> tuple[str, pa.Table]:
    """Generate `rows` rows with ``sources.synth`` and keep the leading rows
    that hold at most `max_bytes`, written as CODE_SHARDS equal shards."""
    from parquet_go_ray.sources.synth import ensure_code_corpus

    src = ensure_code_corpus(os.path.join(inputs_dir, f"generated_{key}"), rows, seed=seed, chunk=CODE_SHARD_ROWS)
    table = pq.read_table(src)
    lo, hi = 0, table.num_rows
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if table.slice(0, mid).nbytes <= max_bytes:
            lo = mid
        else:
            hi = mid - 1
    table = table.slice(0, lo)
    out = os.path.join(inputs_dir, f"code_{key}")
    os.makedirs(out)
    step = -(-lo // CODE_SHARDS)
    for i, start in enumerate(range(0, lo, step)):
        pq.write_table(table.slice(start, step), os.path.join(out, f"shard_{i:02d}.parquet"))
    shutil.rmtree(os.path.dirname(src))
    return out, table


def prepare(workload: str, seed: int, inputs_dir: str) -> dict:
    """Write the measured and warm-up inputs; return their description and
    the oracle answers (JSON-able)."""
    rng = np.random.default_rng(seed)
    out: dict = {"seed": seed}
    if workload == "code_corpus":
        for key, s, frac in (("main", seed, 1), ("warm", seed + 7919, WARM_FRACTION)):
            src, table = _code_corpus(inputs_dir, key, CODE_ROWS // frac, s, CODE_BYTES // frac)
            langs = sorted(pc.unique(table["lang"]).to_pylist())
            lang = langs[int(rng.integers(len(langs)))]
            out[key] = {
                "paths": src,
                "rows": table.num_rows,
                "raw_bytes": table.nbytes,
                "columns": table.column_names,
                "scan": {"column": "lang", "value": lang},
                "scan_rows": int(pc.sum(pc.equal(table["lang"], lang)).as_py()),
            }
        return out
    for key, rows, s in (("main", LINEITEM_ROWS, seed), ("warm", LINEITEM_ROWS // WARM_FRACTION, seed + 7919)):
        files = _write_lineitem(os.path.join(inputs_dir, f"lineitem_{key}"), rows, s)
        table = pq.read_table(files)
        desc = {
            "paths": files,
            "rows": table.num_rows,
            "raw_bytes": table.nbytes,
            "columns": table.column_names,
            "sum_orderkey": int(pc.sum(table["l_orderkey"]).as_py()),
            "sum_partkey": int(pc.sum(table["l_partkey"]).as_py()),
        }
        # two 2% l_orderkey ranges, the second ANDed with an l_partkey that
        # occurs inside it: page-index pruning on the sorted key, a bloom
        # probe, and the AND/OR combination of the pruning ladder
        n_orders = max(1, rows // 4)
        width = max(1, n_orders // 50)
        okey = table["l_orderkey"]
        # Each range is centred on the second and third page of every sorted
        # block, far from a page boundary, so it decodes exactly one page
        # per block whatever the seed.  Near a boundary, the seeded data
        # decides whether a range spills into a second page, which changed
        # pruned_scan_s by up to 1.3x between seeds (measured).
        block_rows = LINEITEM_ROWS // LINEITEM_FILES
        lo1, lo2 = ((int(n_orders * (k + 0.5) * PAR1_PAGE_ROWS / block_rows) - width // 2) for k in (1, 2))
        in2 = pc.and_(pc.greater_equal(okey, lo2), pc.less(okey, lo2 + width))
        candidates = pc.filter(table["l_partkey"], in2)
        pk = int(candidates[int(rng.integers(len(candidates)))].as_py())
        desc["predicate"] = [
            [["l_orderkey", ">=", lo1], ["l_orderkey", "<", lo1 + width]],
            [["l_orderkey", ">=", lo2], ["l_orderkey", "<", lo2 + width], ["l_partkey", "==", pk]],
        ]
        ok = pc.or_(
            pc.and_(pc.greater_equal(okey, lo1), pc.less(okey, lo1 + width)),
            pc.and_(in2, pc.equal(table["l_partkey"], pk)),
        )
        desc["scan_rows"] = int(pc.sum(ok).as_py())
        desc["ref_bytes"] = _reference_bytes(files, os.path.join(inputs_dir, f"reference_{key}"))
        out[key] = desc
    return out
