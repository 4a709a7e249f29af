"""FSST — Fast Static Symbol Table string compression.

Not in the reference (SURVEY §2.3 flags it as the new stateful stage); built
from the published algorithm (PAPERS.md: "FSST: Fast Random Access String
Compression", VLDB 2020): a table of <=255 symbols of 1..8 bytes, code 255 =
escape + literal byte; greedy longest-match encoding; training by iterative
re-encoding of a sample and promoting high-gain symbol concatenations.

Implementation notes (everything hot is numpy; no per-byte Python loops):
  * symbol lookup by direct tables, as in the FSST paper: one gather of a
    65536-entry table indexed by the next two bytes gives the 1- or 2-byte
    match at every position; symbols of 3+ bytes sit in buckets indexed by
    their 3-byte prefix (a row per 2-byte prefix, a slot per third byte),
    longest first and closed by a catch-all entry, and each round moves
    every still unmatched position one entry down its bucket, comparing
    the next 8 bytes as one u64 under the entry's mask — rounds = the
    largest bucket.  A match packs as length << 16 | code, so the longer
    of the two lookups is their maximum;
  * the greedy parse "take longest match, jump its length" walks each
    value in pieces of PIECE_BYTES, all pieces in lockstep, from every
    byte a token before the piece can end on; the walks from later
    entries stop where they meet the walk from the piece start, and the
    pieces' entry -> exit maps are composed in log2(pieces per value)
    rounds — no round count grows with a value's length;
  * the table-independent arrays of a segment (2-byte prefixes, u64 keys,
    value-end clips, pieces) are built once and shared by the training
    generations; a table is built with numpy from its symbol bytes, and
    training counts gains over (u64 key, length) pairs, not bytes objects;
  * data is processed in segments cut at value boundaries to bound peak memory
    (~20 bytes of scratch per input byte);
  * matches are clipped at value boundaries, preserving FSST's per-value
    random-access property;
  * decode expands codes via one gather from a (256, 8) symbol matrix; escape
    parsing exploits that every maximal run of 0xFF bytes starts at a code
    position (a non-escape byte always ends at a code boundary), so escapes
    fall at even offsets within such runs — no sequential scan.

Payload: varint(n_syms) + sym_lens + sym_bytes + delta_bp(orig value lengths)
+ varint(stream_len) + stream.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..bits import read_uvarint, write_uvarint
from .base import binary_parts, build_binary, register
from .delta import delta_bp_decode_np, delta_bp_encode_np

ESCAPE = 255
MAX_SYMS = 255
MAX_LEN = 8
SAMPLE_BYTES = 1 << 16
TRAIN_GENERATIONS = 5
SEGMENT_BYTES = 16 << 20


# key masks: the low L bytes of a little-endian u64 key
_KEY_MASK = np.array([(1 << (8 * ln)) - 1 for ln in range(MAX_LEN + 1)], dtype=np.uint64)
# the parse walks every value in pieces of this many bytes
PIECE_BYTES = 32


def _pack(length, code) -> np.ndarray:
    """A match as one int32: length << 16 | code & 0xFFFF (code -1: escape)."""
    return (np.int32(length) << 16 | np.asarray(code, dtype=np.int32) & 0xFFFF).astype(np.int32)


class SymbolTable:
    __slots__ = (
        "symbols",
        "sym_matrix",
        "sym_len",
        "sym1_code",
        "multi_byte",
        "short_match",
        "long_row",
        "long_id",
        "long_first",
        "long_at",
        "long_key",
        "long_mask",
        "long_match",
    )

    def __init__(self, symbols: list[bytes]):
        self.symbols = symbols[:MAX_SYMS]
        k = len(self.symbols)
        lens = np.fromiter(map(len, self.symbols), dtype=np.int64, count=k)
        flat = np.frombuffer(b"".join(self.symbols), dtype=np.uint8)
        # decoder tables: symbol bytes zero-padded to MAX_LEN, one row a code
        self.sym_matrix = np.zeros((256, MAX_LEN), dtype=np.uint8)
        row_start = np.cumsum(lens) - lens
        self.sym_matrix[
            np.repeat(np.arange(k), lens), np.arange(len(flat)) - np.repeat(row_start, lens)
        ] = flat
        self.sym_len = np.ones(256, dtype=np.int64)  # escapes/unused expand 1 byte
        self.sym_len[:k] = lens
        self.multi_byte = bool((lens > 1).any())
        # encoder tables, matches `_pack`ed so that the longer of two is
        # their maximum.  A duplicated 1- or 2-byte symbol takes its last
        # code, a duplicated longer one its first.
        keys = self.sym_matrix[:k].view("<u8").ravel()
        self.sym1_code = np.full(256, -1, dtype=np.int32)
        one = np.flatnonzero(lens == 1)[::-1]
        b0, last = np.unique(self.sym_matrix[one, 0], return_index=True)
        self.sym1_code[b0] = one[last]
        # short_match[p2], p2 = b0 | b1 << 8: the 2-byte symbol p2, else the
        # 1-byte symbol b0
        self.short_match = np.tile(_pack(1, self.sym1_code), 256)
        two = np.flatnonzero(lens == 2)[::-1]
        p2, last = np.unique(keys[two].astype(np.intp), return_index=True)
        self.short_match[p2] = _pack(2, two[last])
        # symbols of 3+ bytes, bucketed by their 3-byte prefix: bucket
        # long_id[long_row[p2] + b2] / 9 (0: none; long_row[p2] is 0 when no
        # such symbol starts with p2).  Entries run longest first, and every
        # bucket closes with an entry that matches anything (match 0), so a
        # walk down it stops at the longest match.  A walk for a position m
        # bytes from its value's end starts at long_first[long_id + m], past
        # the symbols longer than m; long_at[slot] is where it starts for a
        # position MAX_LEN or more bytes from its value's end.
        long = np.flatnonzero(lens >= 3)
        p2, row = np.unique((keys[long] & np.uint64(0xFFFF)).astype(np.intp), return_inverse=True)
        self.long_row = np.zeros(65536, dtype=np.intp)
        self.long_row[p2] = 256 * np.arange(1, len(p2) + 1)
        slot = 256 * (row + 1) + (keys[long] >> np.uint64(16) & np.uint64(0xFF)).astype(np.intp)
        used, bucket = np.unique(slot, return_inverse=True)
        bucket += 1
        self.long_id = np.zeros(256 * (len(p2) + 1), dtype=np.intp)
        self.long_id[used] = (MAX_LEN + 1) * np.arange(1, len(used) + 1)
        entry_bucket = np.concatenate((bucket, np.arange(len(used) + 1)))
        entry_len = np.concatenate((lens[long], np.zeros(len(used) + 1, dtype=np.int64)))
        order = np.lexsort((np.concatenate((long, np.zeros(len(used) + 1, np.intp))), -entry_len, entry_bucket))
        self.long_key = np.concatenate((keys[long], np.zeros(len(used) + 1, dtype=np.uint64)))[order]
        self.long_mask = _KEY_MASK[entry_len[order]]
        self.long_match = np.concatenate((_pack(lens[long], long), np.zeros(len(used) + 1, np.int32)))[order]
        size = np.bincount(entry_bucket)
        longer = np.zeros((len(used) + 1, MAX_LEN + 1), dtype=np.intp)
        np.add.at(longer, (bucket, lens[long] - 1), 1)
        longer = np.cumsum(longer[:, ::-1], axis=1)[:, ::-1]
        self.long_first = ((np.cumsum(size) - size)[:, None] + longer).ravel()
        self.long_at = self.long_first[self.long_id + MAX_LEN]

    def serialize(self) -> bytes:
        out = bytearray(write_uvarint(len(self.symbols)))
        out += bytes(len(s) for s in self.symbols)
        for s in self.symbols:
            out += s
        return bytes(out)

    @classmethod
    def deserialize(cls, buf: bytes, pos: int) -> tuple["SymbolTable", int]:
        n, pos = read_uvarint(buf, pos)
        lens = list(buf[pos : pos + n])
        pos += n
        syms = []
        for ln in lens:
            syms.append(bytes(buf[pos : pos + ln]))
            pos += ln
        return cls(syms), pos


# ---------------------------------------------------------------------------
# encoding core
# ---------------------------------------------------------------------------


class _Segment:
    """What a parse needs of a segment whatever the table: its bytes as
    2-byte prefixes p2, third bytes b2 and 8-byte keys, the match length
    its value boundaries allow, and its pieces.  Training parses one
    segment with each generation's table."""

    __slots__ = (
        "n", "buf", "near", "near_len", "last", "p2", "b2", "key",
        "start", "end", "within", "later", "before", "multi", "max_pieces",
    )

    def __init__(self, buf: np.ndarray, value_lens: np.ndarray):
        n = self.n = len(buf)
        self.buf = buf
        value_ends = np.cumsum(value_lens)
        value_starts = (value_ends - value_lens).astype(np.int64)
        # a match may run MAX_LEN bytes, but only near_len from the positions
        # `near` that lie near_len < MAX_LEN bytes before their value's end
        dist = np.arange(1, MAX_LEN)
        near = value_ends[:, None] - dist
        inside = np.flatnonzero(near >= value_starts[:, None])
        self.near, self.near_len = near.ravel()[inside], np.tile(dist, len(value_ends))[inside]
        self.last = value_ends[np.flatnonzero(value_lens)] - 1

        padded = np.zeros((n + MAX_LEN + 8) & ~7, dtype=np.uint8)
        padded[:n] = buf
        self.p2 = padded[:n].astype(np.intp)
        self.p2 |= padded[1 : n + 1].astype(np.intp) << 8
        self.b2 = padded[2 : n + 2]
        # key[i]: the 8 bytes from i as one little-endian u64 (an aligned
        # copy of the unaligned view; arithmetic on the view is slow)
        self.key = np.lib.stride_tricks.as_strided(padded.view(np.uint64), shape=(n,), strides=(1,)).copy()

        # pieces of PIECE_BYTES from each value start; a later piece (not a
        # value's first) is entered from the 7 positions before it
        n_pieces = -(-value_lens // PIECE_BYTES)
        total = int(n_pieces.sum())
        piece_value = np.repeat(np.arange(len(value_lens)), n_pieces)
        self.within = np.arange(total) - np.repeat(np.cumsum(n_pieces) - n_pieces, n_pieces)
        self.start = value_starts[piece_value] + self.within * PIECE_BYTES
        self.end = np.minimum(self.start + PIECE_BYTES, value_ends[piece_value])
        self.later = np.flatnonzero(self.within)
        self.before = self.start[self.later, None] - np.arange(1, MAX_LEN)
        self.multi = np.flatnonzero(n_pieces[piece_value] > 1)
        self.max_pieces = int(n_pieces.max()) if total else 0


def _greedy_parse(
    buf: np.ndarray, value_lens: np.ndarray, table: SymbolTable
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (token_starts, token_lens, token_codes) for one segment.

    value_lens: lengths of the values whose concatenation is `buf`
    (sum == len(buf)); matches are clipped at value boundaries.
    """
    return _parse(_Segment(buf, value_lens), table)


def _parse(seg: _Segment, table: SymbolTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if not table.multi_byte:
        # a table of single bytes parses every byte as a token
        return np.arange(seg.n), np.ones(seg.n, dtype=np.int32), table.sym1_code[seg.buf]
    # the longest match at every position: a 1- or 2-byte one from one
    # direct-table lookup of the next two bytes, and a longer one where the
    # 3-byte prefix starts a long symbol.  Each round moves every unmatched
    # position one entry down its bucket, the first round all of them.
    slot = table.long_row[seg.p2]
    slot += seg.b2
    at = table.long_at[slot]
    at[seg.near] = table.long_first[table.long_id[slot[seg.near]] + seg.near_len]
    match = table.long_match[at]
    live = np.flatnonzero((seg.key ^ table.long_key[at]) & table.long_mask[at] != 0)
    key, at = seg.key[live], at[live] + 1
    while len(live):
        match[live] = table.long_match[at]
        go = np.flatnonzero((key ^ table.long_key[at]) & table.long_mask[at] != 0)
        live, key, at = live[go], key[go], at[go] + 1
    np.maximum(match, table.short_match[seg.p2], out=match)
    # a value's last byte matches one byte at most
    match[seg.last] = _pack(1, table.sym1_code[seg.buf[seg.last]])
    best_len = match >> 16

    starts = _token_starts(best_len, seg)
    return starts, best_len[starts], match[starts].astype(np.int16).astype(np.int32)


def _walk(best_len: np.ndarray, pos: np.ndarray, lim: np.ndarray, on_path=None):
    """Advance lane i from pos[i] one token a round (pos += best_len[pos])
    until it reaches lim[i], or, given `on_path`, lands on a marked
    position.  Returns (token positions, their lanes, the position each
    lane stopped at: >= lim where it ran out, < lim where it landed)."""
    toks, tok_lanes = [], []
    stop_at = np.empty(len(pos), dtype=np.int64)
    lane = np.arange(len(pos))
    while len(pos):
        stop = pos >= lim[lane]
        if on_path is not None:
            stop |= on_path[pos]
        stop_at[lane] = pos
        go = np.flatnonzero(~stop)
        pos, lane = pos[go], lane[go]
        toks.append(pos)
        tok_lanes.append(lane)
        pos = pos + best_len[pos]
    return np.concatenate(toks), np.concatenate(tok_lanes), stop_at


def _token_starts(best_len: np.ndarray, seg: _Segment) -> np.ndarray:
    """Token starts of the greedy parse "take the match, jump its length",
    run from every value start (matches never cross a value end).

    Each value is cut into pieces of PIECE_BYTES, walked in lockstep.  The
    parse enters a value's later piece where a token that starts in the 7
    bytes before the piece ends, so such a piece is walked from its start
    in full, and from each other entry until the walk lands on the start's
    path, after which the two agree.  Its entry then follows from the
    previous piece's exit, chained by composing the pieces' entry -> exit
    maps in log2(pieces per value) rounds.  The walks take at most
    PIECE_BYTES rounds, whatever a value's length."""
    start, end, later, multi = seg.start, seg.end, seg.later, seg.multi
    if not len(start):
        return np.empty(0, dtype=np.int64)
    toks0, piece0, exit0 = _walk(best_len, start, end)
    # lanes: (k, e) walks later[k] from e bytes past its start, for every
    # e > 0 that a token from the 7 bytes before the piece lands on
    land = (seg.before + best_len[seg.before] - start[later, None]).ravel()
    inside = np.flatnonzero(land > 0)
    lane_key = np.unique(inside // (MAX_LEN - 1) * MAX_LEN + land[inside])
    if not len(lane_key):
        return np.sort(toks0)  # every piece is entered at its start

    on_path = np.zeros(seg.n + MAX_LEN, dtype=bool)
    on_path[toks0] = True
    lane_piece, lane_entry = later[lane_key // MAX_LEN], lane_key % MAX_LEN
    toks1, lane1, stop1 = _walk(best_len, start[lane_piece] + lane_entry, end[lane_piece], on_path)
    merged = stop1 < end[lane_piece]

    # over the pieces of values with later pieces: step[k, e] = entry of
    # the next piece when piece k is entered at e (entries no token lands
    # on are never taken); chain[k, e] = entry of piece k when the piece
    # `span` back is entered at e, 0 for a value's first piece
    step = np.repeat(exit0[multi] - end[multi], MAX_LEN).reshape(len(multi), MAX_LEN)
    step[np.searchsorted(multi, lane_piece), lane_entry] = (
        np.where(merged, exit0[lane_piece], stop1) - end[lane_piece]
    )
    chain = np.zeros_like(step)
    chain[1:] = step[:-1]
    chain[np.flatnonzero(seg.within[multi] == 0)] = 0
    flat = chain.ravel()
    rows = np.arange(len(multi))[:, None] * MAX_LEN
    # a value's j-th piece needs the j maps after its first composed; done
    # early once every row is constant, each piece's entry being known
    span = 1
    while span < seg.max_pieces - 1 and not (chain == chain[:, :1]).all():
        chain[span:] = flat[rows[span:] + chain[:-span]]
        span *= 2
    entered = np.zeros(len(start), dtype=np.int64)
    entered[multi] = chain[:, 0]

    # keep a piece's start path from where its taken entry's walk merged
    # into it: all of it for entry 0, none if that walk never merged
    want = np.arange(len(later)) * MAX_LEN + entered[later]
    taken = np.minimum(np.searchsorted(lane_key, want), len(lane_key) - 1)
    met = (lane_key[taken] == want) & merged[taken]
    cut = start.copy()
    cut[later] = np.where(entered[later] == 0, start[later], np.where(met, stop1[taken], end[later]))
    on_path[toks0] = toks0 >= cut[piece0]
    on_path[toks1[np.flatnonzero(lane_entry[lane1] == entered[lane_piece[lane1]])]] = True
    return np.flatnonzero(on_path[: seg.n])


def _emit(buf: np.ndarray, starts, lens, codes) -> np.ndarray:
    """Token stream -> output bytes (escape = 0xFF + literal)."""
    esc = codes < 0
    out_sizes = np.where(esc, 2, 1).astype(np.int64)
    offs = np.zeros(len(starts) + 1, dtype=np.int64)
    np.cumsum(out_sizes, out=offs[1:])
    out = np.empty(offs[-1], dtype=np.uint8)
    out[offs[:-1]] = np.where(esc, ESCAPE, codes).astype(np.uint8)
    if esc.any():
        e = np.flatnonzero(esc)
        out[offs[e] + 1] = buf[starts[e]]
    return out


def fsst_encode_buffer(
    buf: np.ndarray, value_lens: np.ndarray, table: SymbolTable
) -> bytes:
    """Encode a concatenated byte buffer of values with the given lengths."""
    n = len(buf)
    if n == 0:
        return b""
    ends = np.cumsum(value_lens)
    chunks = []
    seg_start = 0
    vi = 0  # first value index of this segment
    nv = len(value_lens)
    while seg_start < n:
        # cut segment at a value boundary >= SEGMENT_BYTES past seg_start
        target = seg_start + SEGMENT_BYTES
        if target >= n:
            seg_end, vj = n, nv
        else:
            j = int(np.searchsorted(ends, target))
            vj = min(j + 1, nv)
            seg_end = int(ends[vj - 1])
            # a giant value would otherwise become one unbounded segment
            # (searchsorted guarantees seg_end >= target, so the old
            # `seg_end <= seg_start` guard could never fire): cap the
            # segment at 2x the target and split MID-VALUE, which bounds
            # the parse scratch at ~2*SEGMENT_BYTES as documented
            if seg_end - seg_start > 2 * SEGMENT_BYTES:
                if j > vi and int(ends[j - 1]) > seg_start:
                    # smaller values precede the giant inside this window:
                    # cut at the last whole-value boundary before the giant
                    # so seg_lens covers exactly the bytes in seg (the
                    # mid-value split below is only valid when the segment
                    # starts at/inside the giant value itself)
                    vj, seg_end = j, int(ends[j - 1])
                else:
                    # segment starts at/inside the giant (possibly after
                    # zero-length values whose boundaries equal seg_start):
                    # split mid-value; vj = j + 1 so seg_lens spans every
                    # value intersecting [seg_start, seg_end) and the
                    # min() clamp below truncates the giant's length
                    seg_end, vj = min(target, n), j + 1
        seg = buf[seg_start:seg_end]
        # per-value lengths inside the segment; a mid-split giant value is
        # treated as two values (slight ratio loss, no correctness impact)
        seg_ends_local = np.minimum(ends[vi:vj], seg_end) - seg_start
        seg_lens = np.diff(seg_ends_local, prepend=0)
        starts, lens, codes = _greedy_parse(seg, seg_lens, table)
        chunks.append(_emit(seg, starts, lens, codes))
        seg_start = seg_end
        vi = vj if int(ends[vj - 1]) <= seg_end else vj - 1
    return b"".join(c.tobytes() for c in chunks)


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def fsst_decode_buffer(stream: np.ndarray, table: SymbolTable) -> np.ndarray:
    n = len(stream)
    if n == 0:
        return np.empty(0, dtype=np.uint8)
    is_esc = np.zeros(n, dtype=bool)
    ff = stream == ESCAPE
    if ff.any():
        # maximal runs of 0xFF always start at a code position; escapes sit at
        # even offsets within each run, and an odd-length run also consumes the
        # byte right after it as a literal.
        d = np.diff(ff.astype(np.int8))
        run_starts = np.flatnonzero(d == 1) + 1
        if ff[0]:
            run_starts = np.concatenate(([0], run_starts))
        run_ends = np.flatnonzero(d == -1) + 1
        if ff[-1]:
            run_ends = np.concatenate((run_ends, [n]))
        run_lens = run_ends - run_starts
        n_esc = (run_lens + 1) // 2
        tot = int(n_esc.sum())
        base = np.repeat(run_starts, n_esc)
        within = np.arange(tot, dtype=np.int64) - np.repeat(
            np.concatenate(([0], np.cumsum(n_esc[:-1]))), n_esc
        )
        is_esc[base + 2 * within] = True
    is_literal = np.zeros(n + 1, dtype=bool)
    is_literal[np.flatnonzero(is_esc) + 1] = True
    is_literal = is_literal[:n]
    is_code = ~is_esc & ~is_literal

    code_pos = np.flatnonzero(is_code)
    lit_pos = np.flatnonzero(is_esc)  # literal value = stream[esc+1]
    # interleave codes and literals in stream order
    kind = np.empty(n, dtype=np.int8)  # 1=code, 2=escape-literal, 0=skip
    kind[:] = 0
    kind[code_pos] = 1
    kind[lit_pos] = 2
    tok_pos = np.flatnonzero(kind > 0)
    tok_kind = kind[tok_pos]
    out_lens = np.where(tok_kind == 1, table.sym_len[stream[tok_pos]], 1)
    offs = np.zeros(len(tok_pos) + 1, dtype=np.int64)
    np.cumsum(out_lens, out=offs[1:])
    out = np.empty(offs[-1], dtype=np.uint8)
    # codes: gather symbol bytes
    cp = tok_kind == 1
    if cp.any():
        ci = tok_pos[cp]
        clen = table.sym_len[stream[ci]]
        total = int(clen.sum())
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.concatenate(([0], np.cumsum(clen[:-1]))), clen
        )
        dest = np.repeat(offs[:-1][cp], clen) + within
        out[dest] = table.sym_matrix[np.repeat(stream[ci], clen), within]
    lp = tok_kind == 2
    if lp.any():
        out[offs[:-1][lp]] = stream[tok_pos[lp] + 1]
    return out


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def _best_symbols(keys: np.ndarray, lens: np.ndarray, gains: np.ndarray) -> list[bytes]:
    """The MAX_SYMS candidates of highest total gain, ties in byte order.

    A candidate is (little-endian zero-padded u64 key, length); the same
    bytes may occur several times, and their gains add up."""
    # big-endian zero-padded key, then length: the bytes' lexicographic order
    be = keys.byteswap()
    order = np.lexsort((lens, be))
    be, lens, gains, keys = be[order], lens[order], gains[order], keys[order]
    new = np.ones(len(be), dtype=bool)
    new[1:] = (be[1:] != be[:-1]) | (lens[1:] != lens[:-1])
    heads = np.flatnonzero(new)
    total = np.add.reduceat(gains, heads)
    best = np.lexsort((lens[heads], be[heads], -total))[:MAX_SYMS]
    raw = keys[heads][best].astype("<u8").tobytes()
    return [raw[8 * i : 8 * i + ln] for i, ln in enumerate(lens[heads][best].tolist())]


def train(buf: np.ndarray, value_lens: np.ndarray, seed: int = 0) -> SymbolTable:
    n = len(buf)
    if n == 0:
        return SymbolTable([])
    if n > SAMPLE_BYTES:
        # evenly spaced slices preserve local structure better than random bytes
        n_slices = 64
        sl = SAMPLE_BYTES // n_slices
        starts = np.linspace(0, n - sl, n_slices).astype(np.int64)
        sample = np.concatenate([buf[s : s + sl] for s in starts])
        s_lens = np.full(n_slices, sl, dtype=np.int64)
    else:
        sample = buf
        s_lens = value_lens
    counts = np.bincount(sample, minlength=256)
    order = np.argsort(counts)[::-1]
    symbols = [bytes([b]) for b in order if counts[b] > 0][:MAX_SYMS]
    table = SymbolTable(symbols)
    ends_v = np.cumsum(s_lens)
    seg = _Segment(sample, s_lens)
    for _ in range(TRAIN_GENERATIONS):
        starts, lens, codes = _parse(seg, table)
        # token ids: 0..254 = current symbols, 256+b = escaped literal byte;
        # each id's bytes as (key, length), so gains count without bytes
        ids = np.where(codes >= 0, codes, 256 + sample[starts].astype(np.int64))
        k = len(table.symbols)
        id_key = np.concatenate(
            (
                table.sym_matrix[:k].view("<u8").ravel(),
                np.zeros(256 - k, dtype=np.uint64),
                np.arange(256, dtype=np.uint64),
            )
        )
        id_len = np.concatenate(
            (table.sym_len[:k], np.zeros(256 - k, dtype=np.int64), np.ones(256, dtype=np.int64))
        )
        cnt = np.bincount(ids, minlength=512)
        used = np.flatnonzero(cnt)
        keys, klens = [id_key[used]], [id_len[used]]
        gains = [cnt[used] * ((id_len[used] - 1) * 8 + 7)]
        if len(ids) > 1:
            # count ONLY pairs inside one value: the encoder clips matches
            # at value boundaries, so a cross-boundary concatenation symbol
            # can never match — promoting one wastes a slot of the 255
            vid = np.searchsorted(ends_v, starts, side="right")
            same_val = vid[:-1] == vid[1:]
            pid = ids[:-1][same_val] * 512 + ids[1:][same_val]
            upair, pcnt = np.unique(pid, return_counts=True)
            la, lb = id_len[upair // 512], id_len[upair % 512]
            ok = (la + lb) <= MAX_LEN
            upair, pcnt, plen = upair[ok], pcnt[ok], (la + lb)[ok]
            top = np.argsort(pcnt * plen)[::-1][: 4 * MAX_SYMS]
            a, b = upair[top] // 512, upair[top] % 512
            keys.append(id_key[a] | (id_key[b] << (8 * id_len[a]).astype(np.uint64)))
            klens.append(plen[top])
            gains.append(pcnt[top] * plen[top] * 8)
        table = SymbolTable(
            _best_symbols(np.concatenate(keys), np.concatenate(klens), np.concatenate(gains))
        )
    return table


# ---------------------------------------------------------------------------
# registered codec
# ---------------------------------------------------------------------------


def encode_fsst(arr: pa.Array) -> tuple[bytes, dict]:
    lengths, data = binary_parts(arr)
    table = train(data, lengths)
    stream = fsst_encode_buffer(data, lengths, table)
    payload = (
        table.serialize()
        + delta_bp_encode_np(lengths)
        + write_uvarint(len(stream))
        + stream
    )
    return payload, {}


def decode_fsst(payload: bytes, meta: dict, typ: pa.DataType) -> pa.Array:
    table, pos = SymbolTable.deserialize(payload, 0)
    lengths, pos = delta_bp_decode_np(payload, pos)
    stream_len, pos = read_uvarint(payload, pos)
    stream = np.frombuffer(payload, dtype=np.uint8, count=stream_len, offset=pos)
    data = fsst_decode_buffer(stream, table)
    return build_binary(lengths, data, typ)


register("fsst", encode_fsst, decode_fsst)
