"""Deduplication operators over the documents table.

Not present in the reference (SURVEY §2.7: its only dedup-adjacent machinery
is the per-chunk dictionary probe, layout/dictpage.go:104-111 — value-level
exact dedup within a column chunk); these are the corpus-level operators a
100 TB training-data pipeline needs, built Ray-Data-first:

  exact      — vectorized content hash in map_batches, hash-PARTITIONED
               groupby (fixed partition count, one vectorized drop_duplicates
               per partition — never one pandas call per distinct text)
  minhash    — char-shingle rolling hashes -> k=64 minhash via
               np.minimum.reduceat -> LSH bands -> groupby(band) buckets ->
               candidate pairs -> signature prefilter + exact-Jaccard verify
               (signatures/texts attached to pairs via Ray Data HASH JOINS,
               never a driver-side dict) -> min-label connected components as
               iterated Dataset joins -> (doc_id, cluster)
  simhash    — 64-bit simhash via np.add.reduceat over shingle-hash bits;
               the 8-byte signature travels WITH the band/bucket rows so
               Hamming verification is a vectorized XOR+popcount inside the
               per-band task — no second pass over the corpus
  embedding  — cosine near-dup: banded random-hyperplane LSH buckets
               (n_bands tables of `planes` bits — recall comes from the band
               count, bucket population control from the bits per band) ->
               candidate pairs -> embeddings joined back -> vectorized cosine

Every shuffle payload is ids + fixed-size keys/signatures; full text moves
only in the final pair-verification join, and only for surviving candidates.
All per-batch math is numpy.  Driver-side materialization is limited to
final pair lists (output-sized by construction).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from ..sources.io import read_parquet_any as _read_parquet_any
from ..stages.common import arrow_out as _arrow_out
from ..stages.common import pandas_to_arrow as _pandas_to_arrow

# arrow int -> pandas NULLABLE int (exact above 2^53 even with nulls)
_PD_NULLABLE_INT = {
    pa.int8(): pd.Int8Dtype(),
    pa.int16(): pd.Int16Dtype(),
    pa.int32(): pd.Int32Dtype(),
    pa.int64(): pd.Int64Dtype(),
    pa.uint8(): pd.UInt8Dtype(),
    pa.uint16(): pd.UInt16Dtype(),
    pa.uint32(): pd.UInt32Dtype(),
    pa.uint64(): pd.UInt64Dtype(),
}

MERSENNE = (1 << 61) - 1
K_HASHES = 64
BANDS = 16
ROWS_PER_BAND = K_HASHES // BANDS
SHINGLE = 5  # char shingle width
_BAND_SUBGROUPS = 8  # pair-generation fan-out per band (buckets stay whole)
DEFAULT_PARTS = 16  # join/distinct fan-out; size ~= cluster cores at scale


def _docs(sf_dir: str, columns=None) -> rd.Dataset:
    """documents table from a testdata dir, OR any plain parquet file/dir
    (staged pipelines feed intermediate outputs through the same operators)."""
    import os

    path = f"{sf_dir}/documents.parquet"
    if "://" not in sf_dir and not os.path.exists(path):
        path = sf_dir
    return _read_parquet_any(path, columns=columns)


# ---------------------------------------------------------------------------
# small Dataset helpers (rename / join / distinct) — partition-parallel, no
# per-key map_groups calls
# ---------------------------------------------------------------------------


def _hash_join(
    left: rd.Dataset,
    right: rd.Dataset,
    on: str,
    right_on: str | None = None,
    parts: int = DEFAULT_PARTS,
    how: str = "inner",
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
) -> rd.Dataset:
    """Partition-hash equi-join on integer keys built from groupby/map_groups:
    both sides are tagged and hash-partitioned on the key, then each partition
    runs ONE vectorized pandas merge.  Used instead of Dataset.join because
    (a) Ray 2.49's native join crashes on empty hash partitions (the
    aggregator builds a zero-column table, and acero rejects the key ref) and
    (b) acero rejects list-typed payload columns.  Output columns: left
    columns + right's non-key columns; the key keeps the LEFT name."""
    right_on = right_on or on

    def _arrow_t(t):
        if isinstance(t, pa.DataType):
            return t
        return pa.from_numpy_dtype(np.dtype(t))

    def _schema_of(ds: rd.Dataset, given: pa.Schema | None) -> tuple[list, dict]:
        if given is None:
            # probing executes part of the plan — callers with static schemas
            # should pass them explicitly
            sch = ds.schema()
            names, types = sch.names, sch.types
        else:
            names, types = given.names, given.types
        return list(names), {n: _arrow_t(t) for n, t in zip(names, types)}

    lnames, ltypes = _schema_of(left, left_schema)
    rnames, rtypes = _schema_of(right, right_schema)
    l_payload = [c for c in lnames if c != on]
    r_payload = [c for c in rnames if c != right_on]
    overlap = set(l_payload) & set(r_payload)
    if overlap:
        raise ValueError(f"join column collision: {overlap}")

    def prep(key: str, side: int, mine: list[str], theirs: list[str], their_types):
        def fn(b: pa.Table) -> pa.Table:
            n = b.num_rows
            kcol = b[key]
            if isinstance(kcol, pa.ChunkedArray):
                kcol = kcol.combine_chunks()
            if pa.types.is_integer(kcol.type):
                k = np.asarray(kcol, dtype=np.int64)
                with np.errstate(over="ignore"):
                    part = ((k.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(33)) % np.uint64(parts)
                key_arr = pa.array(k)
            else:
                # string/other keys: vectorized polars hash for partitioning,
                # original values travel as the merge key
                from ..stages.common import polars_mod as _pm

                pl = _pm()

                h = pl.from_arrow(pa.table({"k": kcol}))["k"].hash(seed=13).to_numpy()
                part = h.astype(np.uint64) % np.uint64(parts)
                key_arr = kcol
            cols = {"__key": key_arr}
            for c in mine:
                cols[c] = b[c]
            for c in theirs:
                cols[c] = pa.nulls(n, their_types[c])
            cols["__side"] = pa.array(np.full(n, side, dtype=np.int8))
            cols["__part"] = pa.array(part.astype(np.int64))
            # canonical column order on BOTH sides — the union concatenates
            # the two streams, and order-divergent schemas defeat the
            # executor's schema dedup (one warning + slow unify per bundle)
            order = ["__key", *l_payload, *r_payload, "__side", "__part"]
            return pa.table({c: cols[c] for c in order})

        return fn

    tagged = left.map_batches(
        prep(on, 0, l_payload, r_payload, rtypes), batch_format="pyarrow"
    ).union(
        right.map_batches(prep(right_on, 1, r_payload, l_payload, ltypes), batch_format="pyarrow")
    )

    def _restore(df: pd.DataFrame, cols: list[str], types: dict) -> pd.DataFrame:
        # the union pads the OTHER side's columns with nulls, so pandas blocks
        # demote int/bool columns to float/object; once side-filtered the
        # values are complete again — cast back to the declared types
        for c in cols:
            t = types[c]
            if pa.types.is_integer(t) and df[c].dtype.kind == "f":
                df[c] = df[c].astype(t.to_pandas_dtype())
            elif pa.types.is_boolean(t) and df[c].dtype.kind != "b":
                df[c] = df[c].astype(bool)
        return df

    def join_part(t: pa.Table) -> pa.Table:
        # arrow -> pandas through NULLABLE int dtypes: the default conversion
        # demotes int-with-nulls (the union's padding, and any left-join
        # misses) to float64, which silently rounds values above 2^53.
        # Nullable Int* keeps exact integers + NA end to end; pandas_to_arrow
        # emits them back as int64-with-nulls.
        g = t.to_pandas(types_mapper=_PD_NULLABLE_INT.get)
        lf = _restore(g[g.__side == 0][["__key"] + l_payload].copy(), l_payload, ltypes)
        rf = _restore(g[g.__side == 1][["__key"] + r_payload].copy(), r_payload, rtypes)
        m = lf.merge(rf, on="__key", how=how)
        return _pandas_to_arrow(m.rename(columns={"__key": on}))

    return tagged.groupby("__part").map_groups(join_part, batch_format="pyarrow")


def _pack_rows(mat: np.ndarray) -> pa.Array:
    """(n, w) numpy -> binary array of w*itemsize-byte rows (acero joins don't
    support list payloads, so fixed-width vectors travel as binary)."""
    n = mat.shape[0]
    data = np.ascontiguousarray(mat).tobytes()
    row = mat.dtype.itemsize * (mat.shape[1] if mat.ndim > 1 else 1)
    offsets = pa.py_buffer(np.arange(0, (n + 1) * row, row, dtype=np.int32).tobytes())
    return pa.Array.from_buffers(pa.binary(), n, [None, offsets, pa.py_buffer(data)])


def _unpack_rows(col, dtype) -> np.ndarray:
    """binary column of uniform rows -> (n, w) numpy."""
    from ..codecs.base import binary_parts

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    lengths, data = binary_parts(col)
    n = len(lengths)
    if n == 0:
        return np.empty((0, 0), dtype=dtype)
    return data.view(dtype).reshape(n, -1)


_PAIR_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64())])


def _conform(schema: pa.Schema):
    """Coerce every block to `schema` — sparse map_groups outputs can emit
    schema-less empty blocks that acero joins reject."""

    def fn(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or b.num_columns == 0:
            return schema.empty_table()
        return pa.table({f.name: b[f.name].cast(f.type) for f in schema})

    return fn


def _rename(ds: rd.Dataset, **mapping: str) -> rd.Dataset:
    """Zero-copy column rename."""

    def fn(b: pa.Table) -> pa.Table:
        return b.rename_columns([mapping.get(c, c) for c in b.column_names])

    return ds.map_batches(fn, batch_format="pyarrow")


def _distinct(ds: rd.Dataset, key_cols: list[str], parts: int = DEFAULT_PARTS) -> rd.Dataset:
    """Distributed DISTINCT on key_cols: hash-partition on the key, ONE
    vectorized drop_duplicates per partition (not per key)."""

    def add_part(b: pa.Table) -> pa.Table:
        h = np.zeros(b.num_rows, dtype=np.uint64)
        with np.errstate(over="ignore"):
            for c in key_cols:
                col = b[c]
                if isinstance(col, pa.ChunkedArray):
                    col = col.combine_chunks()
                if pa.types.is_integer(col.type):
                    hc = np.asarray(col).astype(np.uint64)
                else:
                    from ..stages.common import polars_mod as _pm

                    pl = _pm()

                    hc = pl.from_arrow(pa.table({"k": col}))["k"].hash(seed=13).to_numpy().astype(np.uint64)
                h = h * np.uint64(0x9E3779B97F4A7C15) + hc
        return b.append_column("__part", pa.array((h % np.uint64(parts)).astype(np.int64)))

    def dedupe(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(subset=key_cols).drop(columns="__part")

    return ds.map_batches(add_part, batch_format="pyarrow").groupby("__part").map_groups(
        _arrow_out(dedupe), batch_format="pandas"
    )


def _list_np(col) -> np.ndarray:
    """(n, dim) from a list<float> column with uniform dim."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = np.asarray(col.flatten())
    return flat.reshape(len(col), -1)


def _attach_pair_values(
    pairs: rd.Dataset,
    values: rd.Dataset,
    col: str,
    parts: int = DEFAULT_PARTS,
    value_type: pa.DataType | None = None,
) -> rd.Dataset:
    """pairs(a, b, ...) x values(doc_id, col) -> pairs + col_a + col_b via two
    Ray Data hash joins — the scale-safe replacement for a driver-side dict."""
    va = _rename(values, doc_id="a", **{col: f"{col}_a"})
    vb = _rename(values, doc_id="b", **{col: f"{col}_b"})
    vt = value_type if value_type is not None else pa.binary()
    pair_s = pa.schema([("a", pa.int64()), ("b", pa.int64())])
    out = _hash_join(
        pairs, va, on="a", parts=parts,
        left_schema=pair_s,
        right_schema=pa.schema([("a", pa.int64()), (f"{col}_a", vt)]),
    )
    return _hash_join(
        out, vb, on="b", parts=parts,
        left_schema=pair_s.append(pa.field(f"{col}_a", vt)),
        right_schema=pa.schema([("b", pa.int64()), (f"{col}_b", vt)]),
    )


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def _text_hash_keys(parts: int):
    """(doc_id, h1, h2, __part) — the ONLY payload the exact-dedup exchange
    moves: two independent 64-bit text hashes (128 bits total; collision odds
    ~n²/2¹²⁹, negligible even at 10¹² docs) instead of the text itself."""

    def fn(batch: pa.Table) -> pa.Table:
        from ..stages.common import polars_mod as _pm

        pl = _pm()
        df = pl.from_arrow(batch.select(["text"]))
        h1 = df["text"].hash(seed=7).to_numpy().astype(np.uint64)
        h2 = df["text"].hash(seed=1299709).to_numpy().astype(np.uint64)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "h1": pa.array(h1.view(np.int64)),
                "h2": pa.array(h2.view(np.int64)),
                "__part": pa.array((h1 % np.uint64(parts)).astype(np.int64)),
            }
        )

    return fn


def _loser_ids(group: pd.DataFrame) -> pa.Table:
    """Per hash-partition: every doc_id except the min of its (h1, h2) group.
    Output is duplicate-count-sized, not corpus-sized."""
    g = group.sort_values("doc_id")
    dup = g.duplicated(subset=["h1", "h2"], keep="first")
    return pa.table({"doc_id": pa.array(g["doc_id"].to_numpy(np.int64)[dup.to_numpy()])})


def dedup_exact(
    sf_dir: str, parts: int = 64, loser_broadcast_limit: int | None = None
) -> rd.Dataset:
    """Exact text dedup; survivors keep all original columns.

    Scale shape (the full-text shuffle of earlier rounds is gone): the one
    exchange moves (doc_id, 128-bit text hash) — ~24 bytes/row instead of
    the whole corpus.  Per partition the min doc_id per hash wins; survivor
    resolution is SIZE-ADAPTIVE on the loser count (counted first on the
    materialized loser-id table):

    * ≤ limit (default _SMALL_EDGE_LIMIT): loser ids come to the driver,
      are broadcast once via ray.put, and a second streaming pass filters
      the corpus with a vectorized searchsorted — the broadcast-apply
      pattern of _labels_to_clusters.
    * > limit (a dup-heavy crawl corpus, where losers ≈ corpus/2 and the
      broadcast would be driver-memory-sized): the corpus anti-joins the
      loser table through the distributed _hash_join instead — nothing
      corpus-sized ever lands on the driver.
    """
    import ray

    limit = _SMALL_EDGE_LIMIT if loser_broadcast_limit is None else loser_broadcast_limit
    keys = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        _text_hash_keys(parts), batch_format="pyarrow"
    )
    loser_schema = pa.schema([("doc_id", pa.int64())])

    def conform(b: pa.Table) -> pa.Table:
        # a dup-free partition yields an empty block with no columns
        if "doc_id" not in b.column_names:
            return loser_schema.empty_table()
        return pa.table({"doc_id": b["doc_id"].cast(pa.int64())})

    losers_ds = (
        keys.groupby("__part")
        .map_groups(_arrow_out(_loser_ids), batch_format="pandas")
        .map_batches(conform, batch_format="pyarrow")
        .materialize()  # loser-sized, consumed twice (count + resolve)
    )
    n_losers = losers_ds.count()
    docs = _docs(sf_dir)

    if n_losers <= limit:
        # to_pandas() on an all-empty dataset drops columns — guard on count
        losers = (
            np.sort(losers_ds.to_pandas()["doc_id"].to_numpy(np.int64))
            if n_losers
            else np.empty(0, np.int64)
        )
        ref = ray.put(losers)

        class Keep:
            def __init__(self, ref):
                self.losers = ray.get(ref)

            def __call__(self, b: pa.Table) -> pa.Table:
                doc = np.asarray(b["doc_id"], dtype=np.int64)
                if not len(self.losers):
                    return b
                idx = np.searchsorted(self.losers, doc).clip(0, len(self.losers) - 1)
                return b.filter(pa.array(self.losers[idx] != doc))

        return docs.map_batches(
            Keep, batch_format="pyarrow", concurrency=(1, 8), fn_constructor_kwargs={"ref": ref}
        )

    # distributed anti-join: flag loser rows, LEFT-join the streaming corpus
    # against them on doc_id, keep the unmatched rows
    def flag(b: pa.Table) -> pa.Table:
        return b.append_column("__dup", pa.array(np.ones(b.num_rows, np.int8)))

    flagged = losers_ds.map_batches(flag, batch_format="pyarrow")
    joined = _hash_join(
        docs, flagged, on="doc_id", parts=parts, how="left",
        right_schema=pa.schema([("doc_id", pa.int64()), ("__dup", pa.int8())]),
    )

    def keep_unmatched(b: pa.Table) -> pa.Table:
        # left-merge leaves null in __dup for non-losers; stay Arrow-native
        return b.filter(pc.is_null(b["__dup"])).drop_columns(["__dup"])

    return joined.map_batches(keep_unmatched, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# shingle hashing + vectorized exact Jaccard
# ---------------------------------------------------------------------------


def _shingle_hashes(texts: pa.Array, k: int = SHINGLE) -> tuple[np.ndarray, np.ndarray]:
    """(hashes, shingles_per_doc) of char k-grams via vectorized rolling
    polynomial hash; docs shorter than k get one hash of their own
    (zero-padded) bytes — windows never read past a doc's end, so short-doc
    signatures are independent of batch neighbors."""
    from ..codecs.base import binary_parts

    lengths, data = binary_parts(texts)
    n = len(lengths)
    if n == 0:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    n_sh = np.maximum(lengths - k + 1, 1).astype(np.int64)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    total = int(n_sh.sum())
    within = np.arange(total, dtype=np.int64) - np.repeat(
        np.concatenate(([0], np.cumsum(n_sh[:-1]))), n_sh
    )
    pos = np.repeat(starts, n_sh) + within
    doc_end = np.repeat(ends, n_sh)  # byte end of each window's OWN doc
    h = np.zeros(total, dtype=np.uint64)
    B = np.uint64(1000003)
    pad = np.zeros(len(data) + k, dtype=np.uint8)
    pad[: len(data)] = data
    with np.errstate(over="ignore"):
        for j in range(k):
            # clip to the window's own doc: short/empty docs' single window
            # must never read the next doc's bytes
            byte = np.where(pos + j < doc_end, pad[pos + j], 0)
            h = h * B + byte
        # avalanche (splitmix-ish) so LSH band slices are well mixed
        h ^= h >> np.uint64(33)
        h *= np.uint64(0xFF51AFD7ED558CCD)
        h ^= h >> np.uint64(33)
    return h, n_sh


def _uniq_per_doc(doc: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unique (doc, hash) pairs, vectorized: lexsort + adjacent-diff mask."""
    order = np.lexsort((h, doc))
    d, hs = doc[order], h[order]
    first = np.ones(len(d), bool)
    first[1:] = (d[1:] != d[:-1]) | (hs[1:] != hs[:-1])
    return d[first], hs[first]


def jaccard_batch(texts_a: pa.Array, texts_b: pa.Array, k: int = SHINGLE) -> np.ndarray:
    """Exact char-shingle Jaccard for aligned text pairs — fully vectorized:
    per-doc unique shingle-hash sets via lexsort, intersection sizes via one
    combined sort + adjacent-equality count.  No per-pair Python sets."""
    if not isinstance(texts_a, (pa.Array, pa.ChunkedArray)):
        texts_a = pa.array(list(texts_a), pa.string())
    if not isinstance(texts_b, (pa.Array, pa.ChunkedArray)):
        texts_b = pa.array(list(texts_b), pa.string())
    if isinstance(texts_a, pa.ChunkedArray):
        texts_a = texts_a.combine_chunks()
    if isinstance(texts_b, pa.ChunkedArray):
        texts_b = texts_b.combine_chunks()
    n = len(texts_a)
    if n == 0:
        return np.empty(0, np.float64)
    # factorize FIRST and shingle each distinct text once: star-verification
    # blocks repeat each representative's text in thousands of pairs, and
    # re-shingling it per pair dominated the adversarial-corpus verify stage
    comb = pa.concat_arrays(
        [texts_a.cast(pa.string()), texts_b.cast(pa.string())]
    ).dictionary_encode()
    codes = np.asarray(comb.indices, dtype=np.int64)
    uniq = comb.dictionary
    nu = len(uniq)
    hu, n_sh = _shingle_hashes(uniq, k)
    du = np.repeat(np.arange(nu, dtype=np.int64), n_sh)
    ud, uh = _uniq_per_doc(du, hu)
    cu = np.bincount(ud, minlength=nu)  # per-distinct-text unique-set size
    starts_u = np.concatenate(([0], np.cumsum(cu[:-1])))

    def expand(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        reps = cu[c]
        total = int(reps.sum())
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(reps) - reps, reps
        )
        pos = np.repeat(starts_u[c], reps) + within
        return np.repeat(np.arange(len(c), dtype=np.int64), reps), uh[pos]

    ca_codes, cb_codes = codes[:n], codes[n:]
    ca, cb = cu[ca_codes], cu[cb_codes]
    inter = np.zeros(n, np.int64)

    # HOT-side split: a pair whose one text repeats across many pairs (the
    # star-verification shape — one representative against thousands of
    # members) intersects via searchsorted into that text's SHARED sorted
    # set: no per-pair re-expansion of the hot side, no corpus-sized lexsort.
    # Cold pairs (both texts rare) keep the expand + combined-sort kernel.
    HOT = 32
    freq = np.bincount(codes, minlength=nu)
    swap = freq[cb_codes] > freq[ca_codes]
    s_codes = np.where(swap, cb_codes, ca_codes)  # set (hot) side
    m_codes = np.where(swap, ca_codes, cb_codes)  # member side
    hot = freq[s_codes] >= HOT
    hot_idx = np.flatnonzero(hot)
    if len(hot_idx):
        o = np.argsort(s_codes[hot_idx], kind="stable")
        hot_sorted = hot_idx[o]
        sc = s_codes[hot_sorted]
        bounds = np.flatnonzero(sc[1:] != sc[:-1]) + 1
        for seg in np.split(hot_sorted, bounds):  # one per distinct hot text
            code = int(s_codes[seg[0]])
            S = uh[starts_u[code] : starts_u[code] + cu[code]]  # sorted
            dmem, hmem = expand(m_codes[seg])
            pos = np.searchsorted(S, hmem).clip(0, max(len(S) - 1, 0))
            ok = S[pos] == hmem if len(S) else np.zeros(len(hmem), bool)
            inter[seg] = np.bincount(dmem[ok], minlength=len(seg))
    cold_idx = np.flatnonzero(~hot)
    if len(cold_idx):
        da, ha = expand(ca_codes[cold_idx])
        db, hb = expand(cb_codes[cold_idx])
        cd = np.concatenate([da, db])
        ch = np.concatenate([ha, hb])
        order = np.lexsort((ch, cd))
        cds, chs = cd[order], ch[order]
        dup = (cds[1:] == cds[:-1]) & (chs[1:] == chs[:-1])
        inter[cold_idx] = np.bincount(cds[1:][dup], minlength=len(cold_idx))
    return inter / np.maximum(ca + cb - inter, 1)


def jaccard(texts_a: list[str], texts_b: list[str]) -> np.ndarray:
    """Exact char-shingle Jaccard for candidate verification (list API)."""
    return jaccard_batch(texts_a, texts_b)


# ---------------------------------------------------------------------------
# minhash + LSH
# ---------------------------------------------------------------------------


def _minhash_sig(texts: pa.Array, seed: int = 0) -> np.ndarray:
    """(n_docs, K_HASHES) uint64 minhash signatures."""
    h, n_sh = _shingle_hashes(texts)
    n = len(n_sh)
    if n == 0:
        return np.empty((0, K_HASHES), dtype=np.uint64)
    offsets = np.concatenate(([0], np.cumsum(n_sh[:-1])))
    rng = np.random.default_rng(seed)
    A = rng.integers(1, MERSENNE, K_HASHES, dtype=np.uint64) | np.uint64(1)
    C = rng.integers(0, MERSENNE, K_HASHES, dtype=np.uint64)
    sig = np.empty((n, K_HASHES), dtype=np.uint64)
    for k in range(K_HASHES):
        with np.errstate(over="ignore"):
            hk = h * A[k] + C[k]
        sig[:, k] = np.minimum.reduceat(hk, offsets)
    return sig


def minhash_signatures(sf_dir: str) -> rd.Dataset:
    """(doc_id, sig binary[512]) — computed once, reused by
    both band generation and the pair prefilter join."""

    def fn(batch: pa.Table) -> pa.Table:
        texts = batch["text"]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        sig = _minhash_sig(texts)
        # binary rows, not list<int64>: signatures must survive acero joins
        return pa.table({"doc_id": batch["doc_id"], "sig": _pack_rows(sig)})

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(fn, batch_format="pyarrow")


def minhash_bands(sf_dir: str, sigs: rd.Dataset | None = None) -> rd.Dataset:
    """(doc_id, band, key) LSH bucket rows — the shuffle-side payload is
    3 ints per band, never the text."""
    if sigs is None:
        sigs = minhash_signatures(sf_dir)

    def fn(batch: pa.Table) -> pa.Table:
        sig = _unpack_rows(batch["sig"], np.uint64)
        n = len(sig)
        bands = sig.reshape(n, BANDS, ROWS_PER_BAND)
        keys = np.zeros((n, BANDS), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for r in range(ROWS_PER_BAND):
                keys = keys * np.uint64(0x9E3779B97F4A7C15) + bands[:, :, r]
        doc = np.asarray(batch["doc_id"]).repeat(BANDS)
        band = np.tile(np.arange(BANDS, dtype=np.int64), n)
        key = keys.reshape(-1)
        # grouping key = (band, key mod SUBGROUPS): buckets are (band, key),
        # so key-hash subgrouping keeps every bucket whole while lifting the
        # pair-generation parallelism from BANDS tasks to BANDS*SUBGROUPS
        grp = band * np.int64(_BAND_SUBGROUPS) + (key % np.uint64(_BAND_SUBGROUPS)).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(doc, pa.int64()),
                "band": pa.array(grp),
                "key": pa.array(key.astype(np.int64)),
            }
        )

    return sigs.map_batches(fn, batch_format="pyarrow")


def _star_offsets(L: int, n_reps: int) -> tuple[np.ndarray, np.ndarray]:
    """Within-run offset pairs (lo < hi) of the representative STAR for a run
    of length L: every member pairs with each of the first `n_reps` positions
    — O(n_reps * L) pairs instead of O(L^2).

    Runs are sorted by doc_id, so "first positions" = the n_reps SMALLEST
    doc_ids in the bucket.  That choice is deliberate: mega-buckets in
    different bands share most of their membership, so the same low-id docs
    are reps EVERYWHERE and the distinct star-pair count stays ~n_reps * n
    across all 16 bands (strided/random reps differ per band and multiply
    it); and min-label clustering labels components by smallest doc_id, so
    rep edges point straight at the eventual labels."""
    R = min(n_reps, L)
    i = np.repeat(np.arange(R, dtype=np.int64), L)
    j = np.tile(np.arange(L, dtype=np.int64), R)
    m = j > i
    return i[m], j[m]


def _run_pairs_idx(
    keys_sorted: np.ndarray,
    cap: int = 2000,
    sample_above: int | None = None,
    n_reps: int = 16,
    with_star_mask: bool = False,
):
    """Global index pairs (i < j) within equal-key runs of a SORTED key
    array.  No per-bucket Python loop: runs are grouped by length and each
    distinct length costs ONE broadcasted expansion — a band with millions
    of tiny buckets has only a handful of distinct bucket sizes.

    Mega-bucket handling:
      * sample_above=None (default): runs longer than `cap` are SKIPPED
        (the original skew guard; minhash_bucket_stats reports the drops).
      * sample_above=S: runs of length <= S expand fully (exact); LONGER
        runs — with NO upper bound — expand as a representative star
        (_star_offsets): linear in run length, so even corpus-sized buckets
        stay tractable.  Recall bound: a true pair whose only collision is a
        sampled bucket is emitted directly iff one endpoint is a rep, and is
        still recovered TRANSITIVELY (for clustering) iff both endpoints
        verify against a common rep — exact for cohesive buckets (every
        member similar to every rep), which is what LSH mega-buckets are in
        the adversarial tiny-vocabulary case this path targets."""
    n = len(keys_sorted)
    empty = np.empty(0, np.int64)
    if n == 0:
        return empty, empty
    bounds = np.flatnonzero(keys_sorted[1:] != keys_sorted[:-1]) + 1
    starts = np.concatenate(([0], bounds))
    lens = np.diff(np.concatenate((starts, [n])))
    full_limit = cap if sample_above is None else sample_above
    sel = (lens >= 2) & (lens <= full_limit)
    full_starts, full_lens = starts[sel], lens[sel]
    outs_a, outs_b = [], []
    n_full = 0
    for L in np.unique(full_lens):
        s = full_starts[full_lens == L]
        i, j = np.triu_indices(int(L), k=1)
        outs_a.append((s[:, None] + i[None, :]).ravel())
        outs_b.append((s[:, None] + j[None, :]).ravel())
        n_full += outs_a[-1].size
    if sample_above is not None:
        samp = lens > sample_above
        samp_starts, samp_lens = starts[samp], lens[samp]
        for L in np.unique(samp_lens):
            s = samp_starts[samp_lens == L]
            lo, hi = _star_offsets(int(L), n_reps)
            outs_a.append((s[:, None] + lo[None, :]).ravel())
            outs_b.append((s[:, None] + hi[None, :]).ravel())
    if not outs_a:
        return (empty, empty, np.empty(0, bool)) if with_star_mask else (empty, empty)
    ia, ib = np.concatenate(outs_a), np.concatenate(outs_b)
    if with_star_mask:
        star = np.zeros(len(ia), dtype=bool)
        star[n_full:] = True
        return ia, ib, star
    return ia, ib


def _band_pairs(
    group: pd.DataFrame,
    cap: int = 2000,
    sample_above: int | None = None,
    n_reps: int = 16,
) -> pd.DataFrame:
    """All bucket pairs within ONE band: lexsort by (key, doc_id) so ids are
    ascending inside each key-run, then vectorized run-pair expansion."""
    keys = group["key"].to_numpy()
    ids = group["doc_id"].to_numpy()
    order = np.lexsort((ids, keys))
    ks, di = keys[order], ids[order]
    ia, ib, star = _run_pairs_idx(
        ks, cap=cap, sample_above=sample_above, n_reps=n_reps, with_star_mask=True
    )
    # star pairs were ALREADY sampled once — weight them so the downstream
    # band-collision-count prefilter (n_bands >= k) cannot kill them: a
    # sampled pair is emitted in ~1 band even when it truly collides in all
    # BANDS, so its count is not a similarity estimate.  Full pairs keep
    # weight 1 (sum over bands == collision count, as before).
    w = np.where(star, np.int64(BANDS), np.int64(1))
    return pd.DataFrame({"a": di[ia], "b": di[ib], "w": w})


def minhash_bucket_stats(
    sf_dir: str, cap: int = 2000, sample_above: int | None = None, n_reps: int = 16
) -> pd.DataFrame:
    """Diagnostic for the mega-bucket skew guard ("no silent caps"): per-band
    bucket-size distribution, how many buckets/docs the cap would drop, and —
    when `sample_above` is set — how many buckets the representative-star
    path would sample plus the pair-count both strategies would emit.
    Run this when dedup recall matters — dropped mega-buckets are usually
    boilerplate (license headers, empty docs) but that's a per-corpus call."""
    bands = minhash_bands(sf_dir)

    def stats(group: pd.DataFrame) -> pd.DataFrame:
        sizes = group.groupby("key", sort=False).size()
        sz = sizes.to_numpy()
        out = {
            "band": [int(group["band"].iloc[0])],
            "buckets": [len(sizes)],
            "max_bucket": [int(sizes.max())],
            "dropped_buckets": [int((sizes > cap).sum())],
            "dropped_docs": [int(sizes[sizes > cap].sum())],
        }
        full_limit = cap if sample_above is None else sample_above
        full = sz[(sz >= 2) & (sz <= full_limit)]
        out["pairs_full"] = [int((full * (full - 1) // 2).sum())]
        if sample_above is None:
            out["sampled_buckets"] = [0]
            out["pairs_star"] = [0]
        else:
            samp = sz[sz > sample_above]
            out["sampled_buckets"] = [int(len(samp))]
            out["pairs_star"] = [
                int(
                    sum(
                        len(_star_offsets(int(L), n_reps)[0]) * int((samp == L).sum())
                        for L in np.unique(samp)
                    )
                )
            ]
        return pd.DataFrame(out)

    return (
        bands.groupby("band")
        .map_groups(_arrow_out(stats), batch_format="pandas")
        .to_pandas()
        .sort_values("band")
        .reset_index(drop=True)
    )


def minhash_candidate_pairs_ds(
    sf_dir: str,
    sigs: rd.Dataset | None = None,
    parts: int = DEFAULT_PARTS,
    with_counts: bool = False,
    sample_above: int | None = None,
    n_reps: int = 16,
) -> rd.Dataset:
    """Distinct candidate pairs (a < b) from LSH buckets, as a Dataset —
    distinct runs as a hash-partitioned groupby, not a driver drop_duplicates.

    with_counts=True keeps n_bands = how many of the 16 bands the pair
    collided in — a FREE similarity estimate (E[n_bands] = BANDS * J^r), used
    to prune candidates before any signature or text moves."""
    import functools

    bands = minhash_bands(sf_dir, sigs=sigs)
    expand = functools.partial(_band_pairs, sample_above=sample_above, n_reps=n_reps)
    pairs = bands.groupby("band").map_groups(_arrow_out(expand), batch_format="pandas")
    if not with_counts:
        return _distinct(pairs, ["a", "b"], parts).map_batches(
            _conform(_PAIR_SCHEMA), batch_format="pyarrow"
        )

    def add_part(b: pa.Table) -> pa.Table:
        h = np.zeros(b.num_rows, dtype=np.uint64)
        with np.errstate(over="ignore"):
            for c in ("a", "b"):
                h = h * np.uint64(0x9E3779B97F4A7C15) + np.asarray(b[c]).astype(np.uint64)
        return b.append_column("__part", pa.array((h % np.uint64(parts)).astype(np.int64)))

    def count_pairs(g: pd.DataFrame) -> pd.DataFrame:
        # n_bands = sum of pair weights: band-collision count for fully
        # expanded pairs (w=1 per colliding band), pre-satisfied (w=BANDS)
        # for representative-star pairs from sampled mega-buckets
        out = g.groupby(["a", "b"], sort=False)["w"].sum().reset_index(name="n_bands")
        return out

    counted = (
        pairs.map_batches(add_part, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(_arrow_out(count_pairs), batch_format="pandas")
    )
    schema = pa.schema([("a", pa.int64()), ("b", pa.int64()), ("n_bands", pa.int64())])
    return counted.map_batches(_conform(schema), batch_format="pyarrow")


def _sig_prefilter(threshold: float):
    """Vectorized minhash-similarity prefilter over joined pairs: kills the
    bulk of LSH false candidates before any text moves."""
    tlow = max(threshold - 0.2, 0.0)

    def fn(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.select(["a", "b"])
        sa = _unpack_rows(batch["sig_a"], np.uint64)
        sb = _unpack_rows(batch["sig_b"], np.uint64)
        est = (sa == sb).mean(axis=1)
        return batch.select(["a", "b"]).filter(pa.array(est >= tlow))

    return fn


def _verify_jaccard(threshold: float, keep_score: bool = False):
    """Exact-Jaccard verification over pairs with texts joined in; vectorized
    via jaccard_batch."""

    def fn(batch: pa.Table) -> pa.Table:
        out_cols = ["a", "b"]
        if batch.num_rows == 0:
            t = batch.select(out_cols)
            return t.append_column("jaccard", pa.array([], pa.float64())) if keep_score else t
        j = jaccard_batch(batch["text_a"], batch["text_b"])
        keep = j >= threshold
        t = batch.select(out_cols).filter(pa.array(keep))
        if keep_score:
            t = t.append_column("jaccard", pa.array(np.round(j[keep], 6)))
        return t

    return fn




def _broadcast_pair_verify(
    pairs_pdf: pd.DataFrame,
    values: rd.Dataset,
    col: str,
    reduce_fn,
    parts: int = DEFAULT_PARTS,
):
    """Verify candidate pairs against a big value table with ONE pass over
    the values and ONE shuffle: the (small, output-sized) pair list is
    broadcast via ray.put; each value batch emits (doc, value) rows ONCE PER
    pair-PARTITION that needs the doc — not once per pair, so a star-shaped
    pair list (one hot doc in thousands of pairs, the sampled-mega-bucket
    shape) ships the hot doc's value at most `parts` times; each pair
    partition rebuilds (a, b, val_a, val_b) from the broadcast pair list and
    runs `reduce_fn(df) -> verified pairs df` vectorized.

    Replaces two union+groupby hash joins with a single exchange whose
    payload is exactly the distinct values each partition needs."""
    import ray

    a = pairs_pdf["a"].to_numpy(np.int64)
    b = pairs_pdf["b"].to_numpy(np.int64)
    # partition pairs by the b side (Knuth hash): all pairs sharing a b-doc
    # land in ONE partition, so that doc's value ships & shingles once — for
    # star pair lists (a = few hot reps, b = members) this cuts duplicate
    # member work ~(pairs-per-member)x vs round-robin; b is near-uniform so
    # balance holds (a mega-hub doc on the b side would skew, but stars put
    # hubs on the a side by construction: a < b and reps are smallest ids)
    with np.errstate(over="ignore"):
        pair_part = (
            ((b.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(33))
            % np.uint64(parts)
        ).astype(np.int64)
    # CSR need-list over distinct (doc, partition): which partitions need
    # which doc's value
    nd = np.concatenate([a, b])
    np_ = np.tile(pair_part, 2)
    order = np.lexsort((np_, nd))
    nd, np_ = nd[order], np_[order]
    keep = np.ones(len(nd), bool)
    keep[1:] = (nd[1:] != nd[:-1]) | (np_[1:] != np_[:-1])
    need_doc, need_part = nd[keep], np_[keep]
    uniq_docs, doc_start = np.unique(need_doc, return_index=True)
    doc_counts = np.diff(np.concatenate((doc_start, [len(need_doc)])))
    ref = ray.put((a, b, pair_part, uniq_docs, doc_start, doc_counts, need_part))

    class Emit:
        def __init__(self, ref):
            (
                self.a, self.b, self.pair_part,
                self.uniq_docs, self.doc_start, self.doc_counts, self.need_part,
            ) = ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            doc = np.asarray(batch["doc_id"], np.int64)
            vals = batch[col]
            if isinstance(vals, pa.ChunkedArray):
                vals = vals.combine_chunks()
            lo = np.searchsorted(self.uniq_docs, doc)
            lo_c = np.minimum(lo, max(len(self.uniq_docs) - 1, 0))
            hit = (
                (lo < len(self.uniq_docs)) & (self.uniq_docs[lo_c] == doc)
                if len(self.uniq_docs)
                else np.zeros(len(doc), bool)
            )
            nz = np.flatnonzero(hit)
            if not len(nz):
                return pa.table(
                    {
                        "doc_id": pa.array([], pa.int64()),
                        "val": pa.array([], vals.type),
                        "__part": pa.array([], pa.int64()),
                    }
                )
            u = lo[nz]
            reps = self.doc_counts[u]
            total = int(reps.sum())
            within = np.arange(total, dtype=np.int64) - np.repeat(
                np.cumsum(reps) - reps, reps
            )
            pos = np.repeat(self.doc_start[u], reps) + within
            return pa.table(
                {
                    "doc_id": pa.array(np.repeat(doc[nz], reps)),
                    "val": vals.take(pa.array(np.repeat(nz, reps))),
                    "__part": pa.array(self.need_part[pos]),
                }
            )

    emitted = values.map_batches(
        Emit, batch_format="pyarrow", concurrency=(1, 8), fn_constructor_kwargs={"ref": ref}
    )

    def reunite(g: pd.DataFrame) -> pd.DataFrame:
        import ray as _ray

        a_arr, b_arr, pp = _ray.get(ref)[:3]
        empty_m = pd.DataFrame({"a": [], "b": [], "val_a": [], "val_b": []})
        if not len(g):
            return reduce_fn(empty_m)
        part = int(g["__part"].iloc[0])
        sel = pp == part
        pa_, pb_ = a_arr[sel], b_arr[sel]
        docs = g["doc_id"].to_numpy(np.int64)
        o = np.argsort(docs, kind="stable")
        docs_s = docs[o]
        vals_s = g["val"].to_numpy()[o]
        hi = max(len(docs_s) - 1, 0)
        ia = np.minimum(np.searchsorted(docs_s, pa_), hi)
        ib = np.minimum(np.searchsorted(docs_s, pb_), hi)
        ok = (docs_s[ia] == pa_) & (docs_s[ib] == pb_)  # drop valueless docs
        if not ok.any():
            return reduce_fn(empty_m)
        m = pd.DataFrame(
            {"a": pa_[ok], "b": pb_[ok], "val_a": vals_s[ia[ok]], "val_b": vals_s[ib[ok]]}
        )
        return reduce_fn(m)

    return emitted.groupby("__part").map_groups(_arrow_out(reunite), batch_format="pandas")


# ---------------------------------------------------------------------------
# min-label connected components as iterated Dataset passes
# ---------------------------------------------------------------------------


_SMALL_EDGE_LIMIT = 2_000_000
_VERIFY_BROADCAST_LIMIT = 2_000_000  # pairs <= this: broadcast-verify path


def _uf_labels(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Union-find with path halving over an edge list; returns (nodes, label)
    with label = min node id in each component."""
    nodes = np.unique(np.concatenate([a, b]))
    idx_a = np.searchsorted(nodes, a)
    idx_b = np.searchsorted(nodes, b)
    parent = np.arange(len(nodes), dtype=np.int64)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in zip(idx_a, idx_b):
        rx, ry = find(x), find(y)
        if rx != ry:
            # union by smaller node id keeps label = component min for free
            if rx < ry:
                parent[ry] = rx
            else:
                parent[rx] = ry
    roots = np.array([find(i) for i in range(len(nodes))], dtype=np.int64)
    return nodes, nodes[roots]


def _components_single_task(edges: rd.Dataset) -> rd.Dataset:
    """Union-find in ONE Ray worker task (not the driver): correct and fast
    for output-sized edge sets."""

    def run(batch: pd.DataFrame) -> pd.DataFrame:
        if not len(batch):
            return pd.DataFrame(
                {"node": pd.Series(dtype=np.int64), "label": pd.Series(dtype=np.int64)}
            )
        nodes, labels = _uf_labels(
            batch["a"].to_numpy(np.int64), batch["b"].to_numpy(np.int64)
        )
        return pd.DataFrame({"node": nodes, "label": labels})

    return edges.repartition(1).map_batches(
        _arrow_out(run), batch_format="pandas", batch_size=None
    ).materialize()


def _min_label_components(edges: rd.Dataset, parts: int = DEFAULT_PARTS) -> rd.Dataset:
    """(node, label) for every node in `edges`; label = min node id reachable.

    Size-adaptive: the edge set is OUTPUT-sized (verified near-dup pairs),
    so up to _SMALL_EDGE_LIMIT edges a single Ray task runs path-compressed
    union-find at C-ish speed — one worker, zero shuffles.  Above that, falls
    back to iterated min-label propagation: each round joins neighbor labels
    through the symmetric edge list and folds with a groupby-min — no
    driver-side union-find.  That path converges in O(component diameter)
    rounds; the per-round label-sum (monotonically non-increasing) detects
    the fixpoint cheaply."""
    n_edges = edges.count()
    if n_edges <= _SMALL_EDGE_LIMIT:
        return _components_single_task(edges)

    def sym(b: pa.Table) -> pa.Table:
        a = np.asarray(b["a"], dtype=np.int64)
        bb = np.asarray(b["b"], dtype=np.int64)
        return pa.table(
            {
                "src": pa.array(np.concatenate([a, bb])),
                "dst": pa.array(np.concatenate([bb, a])),
            }
        )

    edges_sym = edges.map_batches(sym, batch_format="pyarrow").materialize()
    nodes = _distinct(
        _rename(edges_sym.select_columns(["src"]), src="node"), ["node"], parts
    )
    labels = nodes.map_batches(
        lambda b: b.append_column("label", b["node"]), batch_format="pyarrow"
    ).materialize()
    prev = None
    for _ in range(64):  # diameter cap; near-dup components are shallow
        msgs = _hash_join(
            edges_sym, labels, on="dst", right_on="node", parts=parts,
            left_schema=pa.schema([("src", pa.int64()), ("dst", pa.int64())]),
            right_schema=pa.schema([("node", pa.int64()), ("label", pa.int64())]),
        )
        msgs = _rename(msgs.select_columns(["src", "label"]), src="node")
        folded = labels.union(msgs).groupby("node").min("label")
        labels = _rename(folded, **{"min(label)": "label"}).materialize()
        s = labels.sum("label")
        if s == prev:
            break
        prev = s
    return labels


def _labels_to_clusters(
    docs: rd.Dataset, labels: rd.Dataset, parts: int = DEFAULT_PARTS
) -> rd.Dataset:
    """LEFT JOIN docs(doc_id) with labels(node, label): cluster = label or
    self.  The label table is bounded by the near-dup node count, so up to
    _SMALL_EDGE_LIMIT entries it is broadcast once (ray.put) and applied with
    a vectorized searchsorted inside map_batches — the corpus-sized `docs`
    side streams and never shuffles.  Larger label sets fall back to the
    distributed hash join."""
    import ray

    n_labels = labels.count()
    if n_labels <= _SMALL_EDGE_LIMIT:
        pdf = labels.to_pandas()
        nodes = pdf["node"].to_numpy(np.int64)
        labs = pdf["label"].to_numpy(np.int64)
        order = np.argsort(nodes)
        ref = ray.put((nodes[order], labs[order]))

        class Apply:
            def __init__(self, ref):
                self.nodes, self.labs = ray.get(ref)

            def __call__(self, b: pa.Table) -> pa.Table:
                doc = np.asarray(b["doc_id"], dtype=np.int64)
                idx = np.searchsorted(self.nodes, doc).clip(0, max(len(self.nodes) - 1, 0))
                if len(self.nodes):
                    hit = self.nodes[idx] == doc
                    cluster = np.where(hit, self.labs[idx], doc)
                else:
                    cluster = doc
                return pa.table({"doc_id": pa.array(doc), "cluster": pa.array(cluster)})

        return docs.map_batches(
            Apply, batch_format="pyarrow", concurrency=(1, 8), fn_constructor_kwargs={"ref": ref}
        )

    joined = _hash_join(
        docs, labels, on="doc_id", right_on="node", parts=parts, how="left",
        left_schema=pa.schema([("doc_id", pa.int64())]),
        right_schema=pa.schema([("node", pa.int64()), ("label", pa.int64())]),
    )

    def fin(b: pa.Table) -> pa.Table:
        # the left-join leaves int64 NULLS for unmatched labels (the join
        # promotes through nullable Int64, never float64 — exact above 2^53)
        doc = np.asarray(b["doc_id"], dtype=np.int64)
        if "label" in b.column_names:
            col = b["label"]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            null = np.asarray(col.is_null())
            lab = np.asarray(col.fill_null(0), dtype=np.int64)
            cluster = np.where(null, doc, lab)
        else:
            cluster = doc
        return pa.table({"doc_id": pa.array(doc), "cluster": pa.array(cluster)})

    return joined.map_batches(fin, batch_format="pyarrow")


def _collapse_identical_sigs(sigs: rd.Dataset, parts: int) -> rd.Dataset:
    """(doc_id, rep, sig, is_rep): rep = min doc_id among docs whose FULL
    64-hash minhash signatures are identical (two independent 64-bit hashes
    of the packed signature; collision odds ~n²/2¹²⁹).  Identical signatures
    estimate J = 1.0 under the very estimator LSH banding uses, so
    collapsing them to one representative before banding is semantics-
    preserving for the candidate graph while removing the quadratic
    pair blowup that duplicate-heavy (or adversarially self-similar)
    corpora cause inside LSH buckets."""

    def add_part(b: pa.Table) -> pa.Table:
        from ..stages.common import polars_mod as _pm

        pl = _pm()
        s = pl.from_arrow(pa.table({"s": b["sig"]}))["s"]
        g1 = s.hash(seed=31).to_numpy().astype(np.uint64)
        g2 = s.hash(seed=37).to_numpy().astype(np.uint64)
        return (
            b.append_column("g1", pa.array(g1.view(np.int64)))
            .append_column("g2", pa.array(g2.view(np.int64)))
            .append_column("__part", pa.array((g1 % np.uint64(parts)).astype(np.int64)))
        )

    def collapse(g: pd.DataFrame) -> pd.DataFrame:
        rep = g.groupby(["g1", "g2"], sort=False)["doc_id"].transform("min")
        return pd.DataFrame(
            {
                "doc_id": g.doc_id,
                "rep": rep,
                "sig": g.sig,
                "is_rep": g.doc_id.to_numpy() == rep.to_numpy(),
            }
        )

    return (
        sigs.map_batches(add_part, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(_arrow_out(collapse), batch_format="pandas")
    )


def dedup_minhash(
    sf_dir: str,
    threshold: float = 0.8,
    parts: int = DEFAULT_PARTS,
    collapse_identical_signatures: bool = False,
    bucket_sample_above: int | None = None,
    bucket_reps: int = 16,
) -> rd.Dataset:
    """Near-dup clusters: (doc_id, cluster) for ALL docs; cluster = min doc_id
    reachable through verified near-dup pairs.

    Fully distributed: signatures reach candidate pairs through hash joins,
    exact-Jaccard verification runs vectorized over pair blocks with texts
    joined in, and clustering is iterated min-label propagation over
    Datasets.  The only materialized intermediates are the signature table
    (~0.5% of corpus bytes, reused twice) and the verified pair list.

    ``bucket_sample_above``/``bucket_reps``: opt-in LSH mega-bucket sampling
    for adversarial corpora where DISTINCT-signature buckets blow up (e.g. a
    tiny-vocabulary crawl where every doc is a shingle-space near-neighbor of
    every other): buckets larger than ``bucket_sample_above`` expand as a
    ``bucket_reps``-representative star (linear in bucket size) instead of
    all-pairs; the skip-cap no longer applies to them.  Exact pair recall
    inside a sampled bucket holds for any pair with a rep endpoint; CLUSTER
    recall additionally holds whenever both endpoints verify against a
    common representative — exact for cohesive buckets (see _run_pairs_idx).
    Off by default: results are bit-identical to round-3 behavior unless set.

    ``collapse_identical_signatures``: pre-collapse signature-identical docs
    to one representative before banding (see _collapse_identical_sigs) —
    turns duplicate-heavy worst cases from quadratic-in-bucket to linear
    (measured: the adversarial 20-word-vocabulary 100k corpus drops 569 s ->
    the realistic corpus's range) at the cost of one extra exchange over the
    signature table.  Off by default; results are identical on corpora
    whose exact dups have identical signatures (always true — the signature
    is a pure function of the text)."""
    if collapse_identical_signatures:
        col = _collapse_identical_sigs(minhash_signatures(sf_dir), parts).materialize()

        def only_reps(b: pa.Table) -> pa.Table:
            return b.filter(b["is_rep"]).select(["doc_id", "sig"])

        rep_sigs = col.map_batches(only_reps, batch_format="pyarrow").materialize()
        rep_clusters = _dedup_minhash_over(
            sf_dir, rep_sigs, threshold, parts,
            docs_ids=rep_sigs.select_columns(["doc_id"]),
            sample_above=bucket_sample_above, n_reps=bucket_reps,
        )
        # resolve every doc through its rep's cluster.  Identity rows
        # (cluster == rep) resolve to the rep by DEFAULT on both paths below,
        # so only the non-identity map rows (near-dup-rep-sized, NOT
        # corpus-sized) ever leave the cluster pipeline; resolution is then
        # size-adaptive like _labels_to_clusters — sorted-array broadcast +
        # vectorized searchsorted up to _SMALL_EDGE_LIMIT, distributed
        # _hash_join above it.  No driver-side dict, no per-row Python loop.
        import ray

        def nonidentity(b: pa.Table) -> pa.Table:
            import pyarrow.compute as _pc

            return b.filter(_pc.not_equal(b["cluster"], b["doc_id"]))

        nonid = rep_clusters.map_batches(nonidentity, batch_format="pyarrow").materialize()
        n_map = nonid.count()
        if n_map <= _SMALL_EDGE_LIMIT:
            pdf = nonid.to_pandas()
            reps = pdf["doc_id"].to_numpy(np.int64) if len(pdf) else np.empty(0, np.int64)
            labs = pdf["cluster"].to_numpy(np.int64) if len(pdf) else np.empty(0, np.int64)
            order = np.argsort(reps)
            ref = ray.put((reps[order], labs[order]))

            class EmitLabels:
                def __init__(self, ref):
                    self.reps, self.labs = ray.get(ref)

                def __call__(self, b: pa.Table) -> pa.Table:
                    doc = np.asarray(b["doc_id"], dtype=np.int64)
                    rep = np.asarray(b["rep"], dtype=np.int64)
                    if len(self.reps):
                        idx = np.searchsorted(self.reps, rep).clip(0, len(self.reps) - 1)
                        hit = self.reps[idx] == rep
                        lab = np.where(hit, self.labs[idx], rep)
                    else:
                        lab = rep
                    keep = lab != doc
                    return pa.table(
                        {"node": pa.array(doc[keep]), "label": pa.array(lab[keep])}
                    )

            labels = col.map_batches(
                EmitLabels,
                batch_format="pyarrow",
                concurrency=(1, 8),
                fn_constructor_kwargs={"ref": ref},
            )
        else:
            joined = _hash_join(
                col.map_batches(
                    lambda b: b.select(["doc_id", "rep"]), batch_format="pyarrow"
                ),
                nonid,
                on="rep",
                right_on="doc_id",
                parts=parts,
                how="left",
                left_schema=pa.schema([("doc_id", pa.int64()), ("rep", pa.int64())]),
                right_schema=pa.schema([("doc_id", pa.int64()), ("cluster", pa.int64())]),
            )

            def fin_labels(b: pa.Table) -> pa.Table:
                doc = np.asarray(b["doc_id"], dtype=np.int64)
                rep = np.asarray(b["rep"], dtype=np.int64)
                # pandas left-merge leaves nulls in cluster for identity
                # reps; fill from rep WITHOUT a float64 detour (ids above
                # 2^53 would silently round to the wrong cluster)
                col = b["cluster"]
                if isinstance(col, pa.ChunkedArray):
                    col = col.combine_chunks()
                null = np.asarray(col.is_null())
                cl = np.asarray(col.fill_null(0), dtype=np.int64)
                lab = np.where(null, rep, cl)
                keep = lab != doc
                return pa.table(
                    {"node": pa.array(doc[keep]), "label": pa.array(lab[keep])}
                )

            labels = joined.map_batches(fin_labels, batch_format="pyarrow")
        return _labels_to_clusters(_docs(sf_dir, ["doc_id"]), labels, parts)
    return _dedup_minhash_over(
        sf_dir, None, threshold, parts,
        sample_above=bucket_sample_above, n_reps=bucket_reps,
    )


def _dedup_minhash_over(
    sf_dir: str,
    sigs: rd.Dataset | None,
    threshold: float,
    parts: int,
    docs_ids: rd.Dataset | None = None,
    sample_above: int | None = None,
    n_reps: int = 16,
) -> rd.Dataset:
    counted = minhash_candidate_pairs_ds(
        sf_dir, sigs=sigs, parts=parts, with_counts=True,
        sample_above=sample_above, n_reps=n_reps,
    )
    # band-collision prefilter, FREE (no extra shuffle): E[n_bands] =
    # BANDS * J^ROWS_PER_BAND, so requiring est-J >= threshold - 0.25 maps to
    # a minimum collision count; random one-band coincidences die here
    min_bands = max(1, int(np.ceil(BANDS * max(threshold - 0.25, 0.0) ** ROWS_PER_BAND)))
    cand = counted.filter(expr=f"n_bands >= {min_bands}").materialize()
    docs = docs_ids if docs_ids is not None else _docs(sf_dir, ["doc_id"])
    n_cand = cand.count()
    if n_cand == 0:
        return docs.map_batches(
            lambda b: pa.table({"doc_id": b["doc_id"], "cluster": b["doc_id"]}),
            batch_format="pyarrow",
        ).sort("doc_id")
    if n_cand > 500_000:
        # residual signature prefilter for very large surviving sets — only
        # now is the signature table worth materializing (reuse the caller's
        # signature table when it already exists).  Pairs with n_bands >=
        # BANDS skip it: they are either all-band colliders (est-J = 1.0,
        # the prefilter would pass them) or weighted star pairs from sampled
        # mega-buckets (the signature attach would be pure overhead — the
        # profiled adversarial corpus spent 47 of 60 s shipping signatures
        # for pairs the prefilter then kept 100% of).
        unsure = cand.filter(expr=f"n_bands < {BANDS}").select_columns(["a", "b"]).materialize()
        certain = cand.filter(expr=f"n_bands >= {BANDS}").select_columns(["a", "b"])
        if unsure.count() > 500_000:
            if sigs is None:
                sigs = minhash_signatures(sf_dir).materialize()
            unsure = _attach_pair_values(unsure, sigs, "sig", parts).map_batches(
                _sig_prefilter(threshold), batch_format="pyarrow"
            )
        cand = (
            unsure.map_batches(_conform(_PAIR_SCHEMA), batch_format="pyarrow")
            .union(certain.map_batches(_conform(_PAIR_SCHEMA), batch_format="pyarrow"))
            .materialize()
        )
        n_cand = cand.count()
    else:
        cand = cand.select_columns(["a", "b"]).materialize()
    texts = _docs(sf_dir, ["doc_id", "text"])
    if n_cand <= _VERIFY_BROADCAST_LIMIT:
        # broadcast the pair list; one pass over texts + one shuffle
        def keep_pairs(m: pd.DataFrame) -> pd.DataFrame:
            if not len(m):
                return pd.DataFrame(
                    {"a": pd.Series(dtype=np.int64), "b": pd.Series(dtype=np.int64)}
                )
            j = jaccard_batch(m.val_a.tolist(), m.val_b.tolist())
            keep = j >= threshold
            return pd.DataFrame({"a": m.a.to_numpy()[keep], "b": m.b.to_numpy()[keep]})

        verified = _broadcast_pair_verify(
            cand.to_pandas(), texts, "text", keep_pairs, parts
        ).materialize()
    else:
        verified = _attach_pair_values(
            cand, texts, "text", parts, value_type=pa.string()
        ).map_batches(_verify_jaccard(threshold), batch_format="pyarrow").materialize()
    if verified.count() == 0:
        return docs.map_batches(
            lambda b: pa.table({"doc_id": b["doc_id"], "cluster": b["doc_id"]}),
            batch_format="pyarrow",
        ).sort("doc_id")
    labels = _min_label_components(verified, parts)
    return _labels_to_clusters(docs, labels, parts)


def ngram_jaccard_pairs(sf_dir: str, threshold: float = 0.5, parts: int = DEFAULT_PARTS) -> pd.DataFrame:
    """Verified near-dup pairs with their exact char-n-gram Jaccard score
    (a, b, jaccard).  Candidates come from the MinHash-LSH buckets; the exact
    set comparison runs vectorized over distributed pair blocks with texts
    hash-joined in — the standalone n-gram-Jaccard operator."""
    counted = minhash_candidate_pairs_ds(sf_dir, parts=parts, with_counts=True)
    min_bands = max(1, int(np.ceil(BANDS * max(threshold - 0.25, 0.0) ** ROWS_PER_BAND)))
    cand = (
        counted.filter(expr=f"n_bands >= {min_bands}").select_columns(["a", "b"]).materialize()
    )
    n_cand = cand.count()
    if n_cand == 0:
        return pd.DataFrame(
            {
                "a": pd.Series(dtype=np.int64),
                "b": pd.Series(dtype=np.int64),
                "jaccard": pd.Series(dtype=np.float64),
            }
        )
    if n_cand > 500_000:
        # low thresholds defeat the band-count cut; estimate from signatures
        # before moving candidate texts
        sigs = minhash_signatures(sf_dir).materialize()
        cand = _attach_pair_values(cand, sigs, "sig", parts).map_batches(
            _sig_prefilter(threshold), batch_format="pyarrow"
        ).materialize()
        n_cand = cand.count()
    texts = _docs(sf_dir, ["doc_id", "text"])
    if n_cand <= _VERIFY_BROADCAST_LIMIT:
        def score_pairs(m: pd.DataFrame) -> pd.DataFrame:
            if not len(m):
                return pd.DataFrame(
                    {
                        "a": pd.Series(dtype=np.int64),
                        "b": pd.Series(dtype=np.int64),
                        "jaccard": pd.Series(dtype=np.float64),
                    }
                )
            j = jaccard_batch(m.val_a.tolist(), m.val_b.tolist())
            keep = j >= threshold
            return pd.DataFrame(
                {
                    "a": m.a.to_numpy()[keep],
                    "b": m.b.to_numpy()[keep],
                    "jaccard": np.round(j[keep], 6),
                }
            )

        pairs = _broadcast_pair_verify(cand.to_pandas(), texts, "text", score_pairs, parts)
    else:
        pairs = _attach_pair_values(
            cand, texts, "text", parts, value_type=pa.string()
        ).map_batches(_verify_jaccard(threshold, keep_score=True), batch_format="pyarrow")
    pdf = pairs.to_pandas()  # output-sized: verified pairs only
    return pdf.sort_values(["a", "b"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# exhaustive (LSH-free) variants — bounded subsets, fully SQL-oracle-able:
# they exercise the same jaccard/CC kernels without LSH's probabilistic recall
# ---------------------------------------------------------------------------


def _subset_texts(sf_dir: str, max_doc_id: int) -> tuple[np.ndarray, list[str]]:
    pdf = (
        _docs(sf_dir, ["doc_id", "text"])
        .filter(expr=f"doc_id < {max_doc_id}")
        .to_pandas()  # bounded subset by construction
        .sort_values("doc_id")
    )
    return pdf.doc_id.to_numpy(), pdf.text.tolist()


def ngram_jaccard_exhaustive(
    sf_dir: str, threshold: float = 0.5, max_doc_id: int = 200
) -> pd.DataFrame:
    """ALL-pairs exact char-5-gram Jaccard on the doc_id < max_doc_id subset
    (a, b, jaccard) — the fully-oracled kernel check.  Texts are broadcast
    once (ray.put via fn_constructor_kwargs); pair blocks fan out over tasks."""
    import ray

    ids, texts = _subset_texts(sf_dir, max_doc_id)
    n = len(ids)
    if n < 2:
        return pd.DataFrame(
            {
                "a": pd.Series(dtype=np.int64),
                "b": pd.Series(dtype=np.int64),
                "jaccard": pd.Series(dtype=np.float64),
            }
        )
    ai, bi = np.triu_indices(n, k=1)
    ref = ray.put((ids, texts))

    class Verify:
        def __init__(self, ref):
            self.ids, self.texts = ray.get(ref)

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            ta = [self.texts[i] for i in b.ai]
            tb = [self.texts[i] for i in b.bi]
            j = jaccard_batch(ta, tb)
            keep = j >= threshold
            return pd.DataFrame(
                {
                    "a": self.ids[b.ai.to_numpy()[keep]],
                    "b": self.ids[b.bi.to_numpy()[keep]],
                    "jaccard": np.round(j[keep], 6),
                }
            )

    out = (
        rd.from_pandas(pd.DataFrame({"ai": ai, "bi": bi}))
        .repartition(8)
        .map_batches(
            Verify,
            batch_format="pandas",
            concurrency=(1, 8),
            fn_constructor_kwargs={"ref": ref},
        )
        .to_pandas()
    )
    return out.sort_values(["a", "b"]).reset_index(drop=True)


def dedup_clusters_exhaustive(
    sf_dir: str, threshold: float = 0.8, max_doc_id: int = 200, parts: int = 8
) -> pd.DataFrame:
    """(doc_id, cluster) on the doc_id < max_doc_id subset with EXHAUSTIVE
    pair generation (recall 1 by construction) + the same distributed
    min-label component machinery dedup_minhash uses — fully SQL-oracle-able
    via a recursive-CTE reachability query."""
    pairs = ngram_jaccard_exhaustive(sf_dir, threshold, max_doc_id)[["a", "b"]]
    docs = _docs(sf_dir, ["doc_id"]).filter(expr=f"doc_id < {max_doc_id}")
    if not len(pairs):
        out = docs.to_pandas().sort_values("doc_id")
        return out.assign(cluster=out.doc_id).reset_index(drop=True)
    labels = _min_label_components(rd.from_pandas(pairs), parts)
    return _labels_to_clusters(docs, labels, parts).to_pandas()


# ---------------------------------------------------------------------------
# simhash
# ---------------------------------------------------------------------------


def simhash_signatures(sf_dir: str) -> rd.Dataset:
    """(doc_id, simhash) — 64-bit simhash over char shingles, vectorized via
    per-bit weighted sums with np.add.reduceat."""

    def fn(batch: pa.Table) -> pa.Table:
        texts = batch["text"]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        h, n_sh = _shingle_hashes(texts)
        n = len(n_sh)
        if n == 0:
            return pa.table({"doc_id": batch["doc_id"], "simhash": pa.array([], pa.int64())})
        offsets = np.concatenate(([0], np.cumsum(n_sh[:-1])))
        sig = np.zeros(n, dtype=np.uint64)
        for bit in range(64):
            bits = ((h >> np.uint64(bit)) & np.uint64(1)).astype(np.int64) * 2 - 1
            s = np.add.reduceat(bits, offsets)
            sig |= (s > 0).astype(np.uint64) << np.uint64(bit)
        return pa.table({"doc_id": batch["doc_id"], "simhash": pa.array(sig.astype(np.int64))})

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(fn, batch_format="pyarrow")


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount of uint64 values (numpy<2 has no bitwise_count)."""
    return np.unpackbits(x.view(np.uint8)).reshape(len(x), 64).sum(axis=1)


def dedup_simhash(
    sf_dir: str, max_hamming: int = 3, parts: int = DEFAULT_PARTS
) -> pd.DataFrame:
    """Near-dup pairs (a, b, hamming) via 16-bit band buckets.  The 8-byte
    signature travels with each band row, so Hamming verification is a
    vectorized XOR+popcount inside the per-band task — the corpus is read
    once and nothing per-document ever reaches the driver."""
    sigs = simhash_signatures(sf_dir)

    def band_rows(batch: pa.Table) -> pa.Table:
        s = np.asarray(batch["simhash"]).astype(np.int64).view(np.uint64)
        ids = np.asarray(batch["doc_id"], dtype=np.int64)
        n = len(s)
        bands = np.arange(4, dtype=np.int64)
        key = np.empty((n, 4), dtype=np.int64)
        for b in bands:
            key[:, b] = ((s >> np.uint64(16 * b)) & np.uint64(0xFFFF)).astype(np.int64)
        kflat = key.reshape(-1)
        grp = np.tile(bands, n) * np.int64(_BAND_SUBGROUPS) + (kflat % _BAND_SUBGROUPS)
        return pa.table(
            {
                "band": pa.array(grp),
                "key": pa.array(kflat),
                "doc_id": pa.array(ids.repeat(4)),
                "sig": pa.array(np.repeat(s, 4).view(np.int64)),
            }
        )

    def band_pairs(group: pd.DataFrame) -> pd.DataFrame:
        keys = group["key"].to_numpy()
        ids = group["doc_id"].to_numpy()
        sg = group["sig"].to_numpy().astype(np.int64).view(np.uint64)
        order = np.lexsort((ids, keys))
        ks, di, sgo = keys[order], ids[order], sg[order]
        ia, ib = _run_pairs_idx(ks)
        ham = _popcount64(sgo[ia] ^ sgo[ib]).astype(np.int64)
        keep = ham <= max_hamming
        return pd.DataFrame({"a": di[ia][keep], "b": di[ib][keep], "hamming": ham[keep]})

    bands = sigs.map_batches(band_rows, batch_format="pyarrow")
    pairs = bands.groupby("band").map_groups(_arrow_out(band_pairs), batch_format="pandas")
    pdf = _distinct(pairs, ["a", "b"], parts).to_pandas()  # output-sized
    return pdf.sort_values(["a", "b"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# embedding cosine near-dup
# ---------------------------------------------------------------------------


def dedup_embedding(
    sf_dir: str,
    threshold: float = 0.95,
    planes: int = 8,
    n_bands: int = 8,
    parts: int = DEFAULT_PARTS,
) -> pd.DataFrame:
    """Near-dup vector pairs via BANDED random-hyperplane LSH: n_bands
    independent tables of `planes` bits each.  Recall comes from the band
    count (1-(1-p^planes)^n_bands); bucket population — hence in-bucket
    O(size²) work — is controlled by `planes`, which should grow ~log2(n) at
    scale.  Candidate pairs carry only ids; embeddings are hash-joined back
    for the vectorized cosine verification."""
    ds = _read_parquet_any(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    total_bits = planes * n_bands

    def to_bands(batch: pa.Table) -> pa.Table:
        emb = _list_np(batch["embedding"]).astype(np.float64)
        n, dim = emb.shape
        # fixed-seed hyperplanes: deterministic across tasks, no broadcast needed
        Hl = np.random.default_rng(11).normal(size=(dim, total_bits))
        nrm = emb / np.maximum(np.linalg.norm(emb, axis=1, keepdims=True), 1e-12)
        bits = (nrm @ Hl > 0).astype(np.uint64)
        weights = np.uint64(1) << np.arange(planes, dtype=np.uint64)
        keys = bits.reshape(n, n_bands, planes) @ weights  # (n, n_bands)
        ids = np.asarray(batch["vec_id"], dtype=np.int64)
        return pa.table(
            {
                "band": pa.array(np.tile(np.arange(n_bands, dtype=np.int64), n)),
                "key": pa.array(keys.reshape(-1).astype(np.int64)),
                "doc_id": pa.array(ids.repeat(n_bands)),
            }
        )

    bands = ds.map_batches(to_bands, batch_format="pyarrow")
    pairs = bands.groupby("band").map_groups(_arrow_out(_band_pairs), batch_format="pandas")
    cand = (
        _distinct(pairs, ["a", "b"], parts)
        .map_batches(_conform(_PAIR_SCHEMA), batch_format="pyarrow")
        .materialize()
    )
    empty = pd.DataFrame(
        {
            "a": pd.Series(dtype=np.int64),
            "b": pd.Series(dtype=np.int64),
            "cosine": pd.Series(dtype=np.float64),
        }
    )
    n_cand = cand.count()
    if n_cand == 0:
        return empty

    def pack(b: pa.Table) -> pa.Table:
        mat = _list_np(b["embedding"]).astype(np.float32)
        return pa.table({"doc_id": b["vec_id"], "embedding": _pack_rows(mat)})

    vals = ds.map_batches(pack, batch_format="pyarrow")

    def cos_pairs(m: pd.DataFrame) -> pd.DataFrame:
        if not len(m):
            return empty
        ea = np.frombuffer(b"".join(m.val_a), dtype=np.float32).reshape(len(m), -1).astype(np.float64)
        eb = np.frombuffer(b"".join(m.val_b), dtype=np.float32).reshape(len(m), -1).astype(np.float64)
        na = ea / np.maximum(np.linalg.norm(ea, axis=1, keepdims=True), 1e-12)
        nb = eb / np.maximum(np.linalg.norm(eb, axis=1, keepdims=True), 1e-12)
        cos = (na * nb).sum(axis=1)
        keep = cos >= threshold
        return pd.DataFrame(
            {
                "a": m.a.to_numpy()[keep],
                "b": m.b.to_numpy()[keep],
                "cosine": np.round(cos[keep], 6),
            }
        )

    def verify(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "a": pa.array([], pa.int64()),
                    "b": pa.array([], pa.int64()),
                    "cosine": pa.array([], pa.float64()),
                }
            )
        ea = _unpack_rows(batch["embedding_a"], np.float32).astype(np.float64)
        eb = _unpack_rows(batch["embedding_b"], np.float32).astype(np.float64)
        na = ea / np.maximum(np.linalg.norm(ea, axis=1, keepdims=True), 1e-12)
        nb = eb / np.maximum(np.linalg.norm(eb, axis=1, keepdims=True), 1e-12)
        cos = (na * nb).sum(axis=1)
        keep = cos >= threshold
        return pa.table(
            {
                "a": batch["a"].filter(pa.array(keep)),
                "b": batch["b"].filter(pa.array(keep)),
                "cosine": pa.array(np.round(cos[keep], 6)),
            }
        )

    if n_cand <= _VERIFY_BROADCAST_LIMIT:
        out = _broadcast_pair_verify(cand.to_pandas(), vals, "embedding", cos_pairs, parts)
    else:
        out = _attach_pair_values(cand, vals, "embedding", parts).map_batches(
            verify, batch_format="pyarrow"
        )
    pdf = out.to_pandas()  # output-sized
    if not len(pdf):
        return empty
    return pdf.sort_values(["a", "b"]).reset_index(drop=True)


def embedding_pairs_exhaustive(
    sf_dir: str, threshold: float = 0.8, max_vec_id: int = 200
) -> pd.DataFrame:
    """ALL-pairs cosine on the vec_id < max_vec_id subset (a, b, cosine) —
    the fully-oracled cosine kernel check (LSH-free)."""
    pdf = (
        _read_parquet_any(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
        .filter(expr=f"vec_id < {max_vec_id}")
        .to_pandas()
        .sort_values("vec_id")
    )
    ids = pdf.vec_id.to_numpy()
    emb = np.stack(pdf.embedding.to_numpy()).astype(np.float64)
    nrm = emb / np.maximum(np.linalg.norm(emb, axis=1, keepdims=True), 1e-12)
    cos = nrm @ nrm.T
    a, b = np.triu_indices(len(ids), k=1)
    keep = cos[a, b] >= threshold
    return (
        pd.DataFrame(
            {"a": ids[a[keep]], "b": ids[b[keep]], "cosine": np.round(cos[a, b][keep], 6)}
        )
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )
