"""Span-level exact substring dedup (pipelines/substring.py).

Semantics under test (matches the dup_spans_documents DuckDB oracle): a
1-based window start is duplicated iff its width-byte substring occurs
>= min_count times corpus-wide; consecutive duplicated starts merge into
maximal islands emitted as inclusive spans."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from tests.conftest import SF_DIR


def _oracle(sf_dir: str, width: int) -> pd.DataFrame:
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{sf_dir}/documents.parquet')"
    )
    w1 = width - 1
    return con.execute(
        f"""
        WITH starts AS (
          SELECT doc_id, text,
                 unnest(generate_series(1, length(text) - {w1})) AS start
          FROM documents
        ), wins AS (
          SELECT doc_id, start, substr(text, start::INT, {width}) AS win
          FROM starts
        ), dup AS (SELECT win FROM wins GROUP BY win HAVING count(*) >= 2
        ), marked AS (
          SELECT w.doc_id, w.start,
                 w.start - ROW_NUMBER() OVER (
                   PARTITION BY w.doc_id ORDER BY w.start) AS isl
          FROM wins w JOIN dup USING (win))
        SELECT doc_id, MIN(start) AS span_start, MAX(start) + {w1} AS span_end,
               MAX(start) + {w1} - MIN(start) + 1 AS span_len,
               COUNT(*) AS n_windows
        FROM marked GROUP BY doc_id, isl
        ORDER BY doc_id, span_start, span_end
        """
    ).df().astype("int64")


@pytest.mark.parametrize("width", [12, 20])
def test_dup_spans_matches_oracle(ray_session, width):
    from parquet_go_ray.pipelines.substring import dup_spans_query

    mine = dup_spans_query(SF_DIR, width=width).astype("int64")
    oracle = _oracle(SF_DIR, width)
    assert len(mine) > 0, "synthetic corpus must contain duplicated substrings"
    pd.testing.assert_frame_equal(mine, oracle.reset_index(drop=True))


def test_dup_spans_distributed_path_equals_broadcast(ray_session):
    """broadcast_limit=0 forces the 2-exchange groupby plan (the 100-TB
    shape); it must produce the identical span set."""
    from parquet_go_ray.pipelines.substring import dup_spans_query

    a = dup_spans_query(SF_DIR, width=20).astype("int64")
    b = dup_spans_query(SF_DIR, width=20, broadcast_limit=0).astype("int64")
    pd.testing.assert_frame_equal(a, b)


def test_doc_windows_never_cross_documents():
    from parquet_go_ray.pipelines.substring import _doc_windows

    batch = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            # doc 2 is shorter than the window: contributes nothing
            "text": pa.array(["abcdef", "xy", "defabc"]),
        }
    )
    v, doc, start0, gstart = _doc_windows(batch, 4)
    wins = [bytes(x) for x in v.tolist()]
    assert wins == [b"abcd", b"bcde", b"cdef", b"defa", b"efab", b"fabc"]
    assert doc.tolist() == [1, 1, 1, 3, 3, 3]
    assert start0.tolist() == [0, 1, 2, 0, 1, 2]
    # "cdefxy" style cross-doc windows must not exist
    assert b"efxy" not in wins and b"xyde" not in wins


def test_spans_table_island_merge():
    from parquet_go_ray.pipelines.substring import _spans_table

    doc = np.array([5, 5, 5, 5, 9], dtype=np.int64)
    start0 = np.array([2, 3, 4, 9, 0], dtype=np.int64)  # island, gap, island
    t = _spans_table(doc, start0, 10)
    assert t.to_pydict() == {
        "doc_id": [5, 5, 9],
        "span_start": [3, 10, 1],   # 1-based
        "span_end": [14, 19, 10],   # last_start + width (1-based inclusive)
        "span_len": [12, 10, 10],
        "n_windows": [3, 1, 1],
    }


def test_dup_spans_no_duplicates_is_empty(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from parquet_go_ray.pipelines.substring import dup_spans_query

    # all-distinct texts with no shared 20-gram
    import random

    rng = random.Random(7)
    texts = ["".join(rng.choice("abcdefghijklmnop") for _ in range(64)) for _ in range(20)]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(20), pa.int64()),
                "text": pa.array(texts),
                "lang": pa.array(["en"] * 20),
                "source": pa.array(["s"] * 20),
                "n_chars": pa.array([64] * 20, pa.int64()),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    out = dup_spans_query(str(tmp_path), width=20)
    assert len(out) == 0


def test_strip_dup_spans_engine_and_reference(ray_session):
    """The removal half: stripped text matches a naive per-doc Python
    reference (cover every duplicated window's bytes, keep the rest) and
    kept_len == len(text_stripped)."""
    from collections import Counter

    import pyarrow.parquet as pq

    from parquet_go_ray.pipelines.substring import strip_dup_spans

    W = 20
    full = (
        strip_dup_spans(SF_DIR, width=W)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert (full.text_stripped.str.len() == full.kept_len).all()
    assert (full.kept_len <= full.orig_len).all()
    assert (full.kept_len < full.orig_len).any(), "corpus has duplicates"

    docs = pq.read_table(
        f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"]
    ).to_pandas()
    cnt = Counter()
    for t in docs.text:
        for i in range(len(t) - W + 1):
            cnt[t[i : i + W]] += 1

    def ref_strip(t: str) -> str:
        cov = np.zeros(len(t), bool)
        for i in range(len(t) - W + 1):
            if cnt[t[i : i + W]] >= 2:
                cov[i : i + W] = True
        return "".join(c for c, m in zip(t, cov) if not m)

    sample = docs.sample(n=25, random_state=0)
    got = full.set_index("doc_id").text_stripped
    for _, row in sample.iterrows():
        assert got[row.doc_id] == ref_strip(row.text)


def test_strip_distributed_path_equals_broadcast(ray_session):
    from parquet_go_ray.pipelines.substring import strip_dup_spans

    def run(**kw):
        return (
            strip_dup_spans(SF_DIR, **kw)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )

    a, b = run(), run(broadcast_limit=0)
    pd.testing.assert_frame_equal(a, b)


def test_strip_snaps_to_utf8_boundaries(ray_session, tmp_path):
    """A duplicated window whose edge falls mid multibyte character must not
    leave invalid UTF-8 in the stripped output (coverage snaps outward to
    character boundaries)."""
    import pyarrow.parquet as pq

    from parquet_go_ray.pipelines.substring import strip_dup_spans

    # the duplicated region ends one byte into a 2-byte char ('é' = C3 A9):
    # 'X'*19 + 'é' makes the 20-byte window cover C3 but not A9
    shared = "X" * 19 + "é"
    texts = [shared + "abcdefgh", shared + "zyxwvuts", "unique text with no dups at all"]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(3), pa.int64()),
                "text": pa.array(texts),
                "lang": pa.array(["fr"] * 3),
                "source": pa.array(["s"] * 3),
                "n_chars": pa.array([len(t) for t in texts], pa.int64()),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    out = (
        strip_dup_spans(str(tmp_path), width=20)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # every output decodes as strict UTF-8 (pyarrow would have produced the
    # bytes either way; the snap guarantees validity)
    for t in out.text_stripped:
        t.encode("utf-8").decode("utf-8", errors="strict")
    # the é was partially covered -> whole char removed, no stray bytes
    assert "é" not in out.text_stripped[0]
    assert "�" not in out.text_stripped[0]
    assert out.text_stripped[2] == texts[2]


def test_dup_spans_all_duplicate_corpus(ray_session, tmp_path):
    """Adversarial shape: every document identical — every window is
    duplicated, each doc collapses to ONE whole-doc span, and the stripped
    corpus is empty strings (bounded dup set = unique windows of one doc)."""
    import pyarrow.parquet as pq

    from parquet_go_ray.pipelines.substring import dup_spans_query, strip_dup_spans

    text = "the same boilerplate license header repeated everywhere " * 3
    n = 40
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(n), pa.int64()),
                "text": pa.array([text] * n),
                "lang": pa.array(["en"] * n),
                "source": pa.array(["s"] * n),
                "n_chars": pa.array([len(text)] * n, pa.int64()),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    spans = dup_spans_query(str(tmp_path), width=20)
    assert len(spans) == n  # one maximal span per doc
    assert (spans.span_start == 1).all()
    assert (spans.span_end == len(text)).all()
    assert (spans.n_windows == len(text) - 19).all()
    out = (
        strip_dup_spans(str(tmp_path), width=20)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert (out.kept_len == 0).all()
    assert (out.text_stripped == "").all()


@pytest.mark.parametrize("width", [12, 20])
def test_part_of_hashes_every_window_byte(width):
    """Windows that share their first 8 (width 12) or 16 bytes spread over
    the partitions; a hash of the first 8 bytes put them all in one.  An
    equal window gets the same partition wherever it sits."""
    from parquet_go_ray.pipelines.substring import _NPARTS, _part_of

    shared = 8 if width == 12 else 16
    rng = np.random.default_rng(width)
    wins = np.concatenate(
        [np.full((2000, shared), ord("a"), np.uint8),
         rng.integers(0, 256, (2000, width - shared), dtype=np.uint8)],
        axis=1,
    )
    v = np.ascontiguousarray(wins).view(np.dtype((np.void, width))).ravel()
    parts = _part_of(v, width)
    assert ((parts >= 0) & (parts < _NPARTS)).all()
    assert len(np.unique(parts)) >= _NPARTS * 3 // 4
    np.testing.assert_array_equal(_part_of(v[::-1].copy(), width), parts[::-1])


def test_dup_spans_shared_prefix_corpus_matches_oracle(ray_session, tmp_path):
    """Every document opens with one 40-byte header, and some share later
    sentences: the header's windows and the planted repeats match the DuckDB
    oracle on both plans (broadcast and the distributed 2-exchange one)."""
    import random

    import pyarrow.parquet as pq

    from parquet_go_ray.pipelines.substring import dup_spans_query

    rng = random.Random(11)
    header = "// Copyright header shared by all files.\n"
    planted = ["".join(rng.choice("qrstuvwxyz ") for _ in range(30)) for _ in range(4)]
    texts = [
        header
        + "".join(rng.choice("abcdefghijklmnop") for _ in range(50))
        + (planted[i % 4] if i % 3 else "")
        + "".join(rng.choice("abcdefghijklmnop") for _ in range(20))
        for i in range(30)
    ]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(30), pa.int64()),
                "text": pa.array(texts),
                "lang": pa.array(["en"] * 30),
                "source": pa.array(["s"] * 30),
                "n_chars": pa.array([len(t) for t in texts], pa.int64()),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    oracle = _oracle(str(tmp_path), 12).reset_index(drop=True)
    assert len(oracle) > 30
    for limit in ({}, {"broadcast_limit": 0}):
        mine = dup_spans_query(str(tmp_path), width=12, **limit).astype("int64")
        pd.testing.assert_frame_equal(mine, oracle)
