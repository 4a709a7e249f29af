"""Byte-pair-encoding vocabulary induction + distributed BPE tokenization.

The classic subword pipeline (Sennrich et al. 2016, "Neural Machine
Translation of Rare Words with Subword Units"):

  * TRAIN: merges are learned from the corpus WORD-FREQUENCY table, not the
    raw token stream — the distributed part is therefore one word-count
    (the same per-batch value_counts combiner as textstats.vocab_topk: the
    exchange moves vocabularies, KBs-MBs, never token occurrences), and the
    merge loop itself runs on the driver over the bounded distinct-word
    table.  Vocabulary size does not grow with corpus size, so this is the
    scalable shape at 100 TB, not a shortcut.
  * APPLY: tokenization is embarrassingly parallel.  The actor stage holds
    the ranked merge list; each batch explodes words to a flat char-symbol
    array ONCE and applies merges rank-by-rank as fully vectorized numpy
    passes (adjacent-pair match + greedy left-to-right overlap resolution
    via run-parity, word boundaries masked).  No per-word Python loop.

Training is iterative and therefore has no SQL twin (rows-only in the
driver check); correctness is gated by pytest equivalence against a naive
reference implementation on both fixed and randomized corpora.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from ..sources.io import read_parquet_any as _read_parquet_any

END = "</w>"  # end-of-word marker, merged like any symbol (Sennrich setup)


# --- distributed word frequencies --------------------------------------------


def word_freqs(sf_dir: str, parts: int = 16) -> rd.Dataset:
    """(word, n) over documents.text — delegates to textstats.token_counts,
    THE shared per-batch value_counts combiner (the exchange moves
    vocabularies, never token occurrences)."""
    from .textstats import token_counts

    return token_counts(sf_dir, parts, col="word")


# --- flat symbol-array representation ----------------------------------------


def _explode_words(words: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """words -> (symbols, word_id): one char symbol per row plus END per
    word, built from a single concatenated buffer (no per-char Python)."""
    joined = "".join(words)
    syms = np.array(list(joined), dtype=object)
    lens = np.fromiter((len(w) for w in words), dtype=np.int64, count=len(words))
    wid = np.repeat(np.arange(len(words), dtype=np.int64), lens)
    # append END per word
    end_syms = np.full(len(words), END, dtype=object)
    end_wid = np.arange(len(words), dtype=np.int64)
    syms = np.concatenate([syms, end_syms])
    wid = np.concatenate([wid, end_wid])
    order = np.argsort(wid, kind="stable")
    # stable sort keeps char order within a word and puts END last (it was
    # appended after all chars of that word in the concatenated array)
    return syms[order], wid[order]


def _merge_pass(
    syms: np.ndarray, wid: np.ndarray, left: str, right: str, merged: str
) -> tuple[np.ndarray, np.ndarray]:
    """One vectorized merge: combine every non-overlapping adjacent
    (left, right) pair within word boundaries, greedy left-to-right.

    Overlap resolution without a scan loop: matches form runs (e.g. 'aaaa'
    with merge (a,a) matches at 0,1,2); greedy left-to-right keeps the
    EVEN positions within each run — computed by run-start cumsum parity."""
    if len(syms) < 2:
        return syms, wid
    m = (syms[:-1] == left) & (syms[1:] == right) & (wid[:-1] == wid[1:])
    if not m.any():
        return syms, wid
    # run parity: index within each run of consecutive matches
    starts = m & ~np.concatenate([[False], m[:-1]])
    pos_in_run = np.arange(len(m)) - np.maximum.accumulate(
        np.where(starts, np.arange(len(m)), -1)
    )
    keep = m & (pos_in_run % 2 == 0)
    idx = np.nonzero(keep)[0]
    syms = syms.copy()
    syms[idx] = merged
    drop = np.zeros(len(syms), dtype=bool)
    drop[idx + 1] = True
    return syms[~drop], wid[~drop]


# --- training -----------------------------------------------------------------


def train_bpe_from_freqs(
    freqs: pd.DataFrame, n_merges: int = 50
) -> pd.DataFrame:
    """Learn `n_merges` merges from a (word, n) table.  Deterministic total
    order: pair count desc, then (left, right) lexicographic asc.

    Pure numpy over the exploded distinct-word symbol arrays; each round is
    a vectorized pair count (np.unique on a combined key) + one merge pass.
    O(n_merges * total_symbols) with total_symbols bounded by the distinct
    vocabulary, independent of corpus row count."""
    freqs = freqs.sort_values("word").reset_index(drop=True)  # determinism
    words = freqs["word"].tolist()
    n = freqs["n"].to_numpy(np.int64)
    syms, wid = _explode_words(words)
    w_of = n[wid]  # weight of each symbol row = its word's corpus count

    out = []
    for rank in range(n_merges):
        adj = (wid[:-1] == wid[1:]) if len(syms) > 1 else np.zeros(0, bool)
        if not adj.any():
            break
        l_arr, r_arr = syms[:-1][adj], syms[1:][adj]
        w_arr = w_of[:-1][adj]
        # separator: '\n' cannot occur in symbols (words come from \S+ and
        # END has none); NB pandas object-Series + '\x00' silently DROPS the
        # NUL (numpy str terminator), so a NUL separator corrupts keys
        pair_key = pd.Series(l_arr) + "\n" + pd.Series(r_arr)
        counts = pd.Series(w_arr).groupby(pair_key.to_numpy()).sum()
        # NB overlapping pairs ('aaa' counts (a,a) twice) are counted as-is;
        # the naive reference in tests does the same, matching Sennrich's
        # published reference implementation
        best_n = counts.max()
        # tie-break on the (left, right) TUPLE like the reference: min over
        # the joined key string inverts the order when a tied left symbol is
        # a prefix of another and the next char sorts below '\n' (\x01-\x09
        # are valid word chars)
        tied = (k for k, v in counts.items() if v == best_n)
        left, right = min((k.split("\n", 1) for k in tied), key=tuple)
        merged = left + right
        out.append((rank, left, right, merged, int(best_n)))
        syms, wid = _merge_pass(syms, wid, left, right, merged)
        w_of = n[wid]

    return pd.DataFrame(
        out, columns=["rank", "left", "right", "merged", "pair_count"]
    ).astype({"rank": np.int64, "pair_count": np.int64})


def train_bpe(sf_dir: str, n_merges: int = 50) -> pd.DataFrame:
    """Distributed word count -> driver-side merge induction (see module
    docstring for why the merge loop is driver-side by design)."""
    freqs = word_freqs(sf_dir).to_pandas()
    return train_bpe_from_freqs(freqs, n_merges=n_merges)


# --- distributed apply --------------------------------------------------------


class BPETokenize:
    """Actor stage: holds the ranked merge list; per batch tokenizes every
    document with vectorized merge passes over ONE exploded symbol array
    (documents are segmented exactly like training words)."""

    def __init__(self, merges: pd.DataFrame):
        self.merges = [
            (r.left, r.right, r.merged) for r in merges.itertuples()
        ]

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        import re

        doc_ids = batch["doc_id"].to_numpy(np.int64)
        # RE2-parity word class (see llmprep._WORD_RE): tokenization must
        # match word_freqs' Arrow/RE2 \s+ split or merges get applied to
        # words that never existed in the training frequencies
        word_lists = batch["text"].str.findall(re.compile(r"[^ \t\n\f\r]+"))
        n_words = word_lists.str.len().to_numpy(np.int64)
        flat_words = word_lists.explode().dropna().tolist()
        doc_of_word = np.repeat(np.arange(len(batch)), n_words)
        if flat_words:
            syms, wid = _explode_words(flat_words)
            for left, right, merged in self.merges:
                syms, wid = _merge_pass(syms, wid, left, right, merged)
            tok_doc = doc_of_word[wid]
        else:
            syms = np.empty(0, dtype=object)
            tok_doc = np.empty(0, dtype=np.int64)
        n_tokens = np.bincount(tok_doc, minlength=len(batch)).astype(np.int64)
        # per-doc subword token lists, sliced from the flat array
        offs = np.concatenate([[0], np.cumsum(n_tokens)])
        tokens = [
            list(syms[offs[i] : offs[i + 1]]) for i in range(len(batch))
        ]
        return pd.DataFrame(
            {"doc_id": doc_ids, "n_subwords": n_tokens, "subwords": tokens}
        )


def bpe_tokenize(
    sf_dir: str, n_merges: int = 50, merges: pd.DataFrame | None = None
) -> rd.Dataset:
    """Train (or take) a merge table, broadcast it into an actor pool, and
    tokenize the corpus.  Merge table is KBs — ships once per actor."""
    if merges is None:
        merges = train_bpe(sf_dir, n_merges=n_merges)
    ds = _read_parquet_any(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(
        BPETokenize,
        fn_constructor_args=(merges,),
        batch_format="pandas",
        concurrency=(1, 4),
    )
