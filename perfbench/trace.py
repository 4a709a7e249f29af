"""Per-layer spans recorded from outside the program.

``install_worker`` is the Ray ``worker_process_setup_hook`` of a traced
session: it wraps each layer's functions under the name the CALLING module
looks them up by, so the program itself is unchanged.  A span is recorded
only while the flag file ``<trace dir>/ON`` exists when the outermost
wrapped call starts; the driver flips it between iterations so one session
gives both traced and untraced walls.  Spans stay in memory and are appended
to ``<trace dir>/spans-<pid>.jsonl`` when the outermost span of a call tree
closes (a task boundary), outside every timed span.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import time

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


class Tracer:
    """Span stack and buffer of one process."""

    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir
        self.flag = os.path.join(trace_dir, "ON")
        self.stack: list[list] = []
        self.buf: list[dict] = []
        self.next_id = 0

    def start(self, name: str) -> list | None:
        """Open a span, or return None when tracing is off or the same name
        is already open (a function recursing through its patched global
        would otherwise count its time twice)."""
        if not self.stack and not os.path.exists(self.flag):
            return None
        if any(s[1] == name for s in self.stack):
            return None
        self.next_id += 1
        parent = self.stack[-1][0] if self.stack else 0
        span = [self.next_id, name, parent, time.perf_counter(), {}]
        self.stack.append(span)
        return span

    def end(self, span: list, nbytes: int = 0, **extra) -> None:
        t1 = time.perf_counter()
        self.stack.pop()
        sid, name, parent, t0, ctx = span
        rec = {"id": sid, "name": name, "parent": parent, "t0": t0, "t1": t1, "bytes": int(nbytes)}
        rec.update(extra)
        self.buf.append(rec)
        if not self.stack:
            self.flush()

    def current(self, name: str) -> dict | None:
        """Context dict of the innermost open span called `name`."""
        for s in reversed(self.stack):
            if s[1] == name:
                return s[4]
        return None

    def flush(self) -> None:
        if not self.buf:
            return
        path = os.path.join(self.trace_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as f:
            f.write("".join(json.dumps(r) + "\n" for r in self.buf))
        self.buf.clear()


def _nbytes(x) -> int:
    try:
        return int(x.nbytes)
    except AttributeError:
        return len(x) if isinstance(x, (bytes, bytearray, memoryview)) else 0


def dir_bytes(path: str) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def _span(tr: Tracer, name: str, fn, nbytes=None, after=None):
    """Wrap `fn` in a span; `nbytes(args, kwargs)` sizes its input and
    `after(result, args, kwargs, ctx)` returns extra span fields."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tr.start(name)
        if span is None:
            return fn(*args, **kwargs)
        extra = {}
        try:
            out = fn(*args, **kwargs)
            if after is not None:
                extra = after(out, args, kwargs, span[4])
        finally:
            tr.end(span, nbytes(args, kwargs) if nbytes else 0, **extra)
        return out

    return wrapper


def install(tr: Tracer) -> None:
    """Patch every layer boundary the benchmark measures, in this process."""
    from parquet_go_ray import chunk, codecs, selector
    from parquet_go_ray.formats import par1
    from parquet_go_ray.pipelines import encode_pipeline, native_io
    from parquet_go_ray.stages import encode as stages_encode
    from parquet_go_ray.state import lineage

    def table_after(out, args, kwargs, ctx):
        """Chunks where the reference policy beat the chosen codec: an
        auto-selected codec the floor replaced, or a planned (per-column)
        codec it keeps although the reference is smaller."""
        chosen = ctx.get("chosen", {})
        scalar = fallbacks = 0
        for col, codec, outer, enc, ref in zip(
            *(out[c].to_pylist() for c in ("column", "codec", "outer", "enc_bytes", "ref_bytes"))
        ):
            if col not in chosen:
                continue  # nested columns skip selection
            scalar += 1
            fallbacks += (codec, outer) != chosen[col] or enc > ref
        return {"chunks": scalar, "fallbacks": fallbacks}

    def select_after(out, args, kwargs, ctx):
        table_ctx = tr.current("stages.encode.encode_table")
        column = kwargs.get("column")
        if table_ctx is not None and column is not None:
            table_ctx.setdefault("chosen", {})[column] = (out[0], out[1])
        return {"trials": len(out[2].get("trial_ratios", {}))}

    encode_pipeline.encode_table = _span(
        tr, "stages.encode.encode_table", encode_pipeline.encode_table,
        nbytes=lambda a, k: _nbytes(a[0]), after=table_after,
    )
    encode_pipeline._plan_codecs = _span(tr, "encode_pipeline.plan", encode_pipeline._plan_codecs)
    # stages.encode holds its own binding; encode_pipeline._plan_codecs
    # imports the selector's at call time
    stages_encode.select_codec = selector.select_codec = _span(
        tr, "selector.select_codec", selector.select_codec,
        nbytes=lambda a, k: _nbytes(a[0]), after=select_after,
    )

    # encode_table calls encode_column_chunk for the selected codec with the
    # chunk's sha256 and for each reference-floor trial with sha="".
    real_ecc = stages_encode.encode_column_chunk
    ecc_real = _span(tr, "chunk.encode_column_chunk", real_ecc, nbytes=lambda a, k: _nbytes(a[0]))
    ecc_floor = _span(tr, "stages.encode.floor_trial", real_ecc, nbytes=lambda a, k: _nbytes(a[0]))

    @functools.wraps(real_ecc)
    def encode_column_chunk(*args, **kwargs):
        return (ecc_floor if kwargs.get("sha") == "" else ecc_real)(*args, **kwargs)

    stages_encode.encode_column_chunk = encode_column_chunk
    stages_encode.column_sha256 = _span(
        tr, "chunk.column_sha256", stages_encode.column_sha256,
        nbytes=lambda a, k: _nbytes(a[0]),
    )
    decode_chunk = _span(
        tr, "chunk.decode_column_chunk", chunk.decode_column_chunk,
        nbytes=lambda a, k: len(a[0]),
    )
    stages_encode.decode_column_chunk = decode_chunk
    chunk.decode_column_chunk = decode_chunk

    def by_name(prefix: str, suffix: str, fn, nbytes):
        """One span wrapper per dynamic name (codec or outer compressor)."""
        cache: dict[str, object] = {}

        def get(key: str):
            w = cache.get(key)
            if w is None:
                w = cache[key] = _span(tr, f"{prefix}.{key}{suffix}", fn, nbytes=nbytes)
            return w

        return get

    real_encode, real_decode = codecs.encode, codecs.decode
    enc_span = by_name("codecs", ".encode", real_encode, lambda a, k: _nbytes(a[1]))
    dec_span = by_name("codecs", ".decode", real_decode, lambda a, k: len(a[0]))

    @functools.wraps(real_encode)
    def codec_encode(name, arr):
        return enc_span(name)(name, arr)

    @functools.wraps(real_decode)
    def codec_decode(payload, meta, typ):
        return dec_span(meta["codec"])(payload, meta, typ)

    codecs.encode, codecs.decode = codec_encode, codec_decode
    outer_span = by_name("chunk.outer_compress", "", chunk._outer_compress, lambda a, k: len(a[0]))

    @functools.wraps(chunk._outer_compress)
    def outer_compress(body, name, level):
        return outer_span(name)(body, name, level)

    chunk._outer_compress = outer_compress
    # the selector holds its own binding of the trial compressor
    selector._outer_compress = _span(
        tr, "selector.trial_compress", selector._outer_compress,
        nbytes=lambda a, k: len(a[0]),
    )
    lineage.write_partition = _span(
        tr, "state.lineage.write_partition", lineage.write_partition,
        after=lambda out, a, k, ctx: {"written": dir_bytes(out)},
    )
    # the PAR1 writer and reader call the codec kernels directly
    for codec, enc, dec in (
        ("plain", "encode_plain", "decode_plain"),
        ("delta_bp", "delta_bp_encode_np", "delta_bp_decode_np"),
        ("delta_length_ba", "encode_delta_length_ba", "decode_delta_length_ba"),
        ("delta_ba", "encode_delta_ba", "decode_delta_ba"),
        ("byte_stream_split", "encode_bss", "decode_bss"),
    ):
        setattr(par1, enc, _span(tr, f"codecs.{codec}.encode", getattr(par1, enc), nbytes=lambda a, k: _nbytes(a[0])))
        setattr(par1, dec, _span(tr, f"codecs.{codec}.decode", getattr(par1, dec), nbytes=lambda a, k: _nbytes(a[0])))
    native_io.write_par1 = _span(
        tr, "formats.par1.write", native_io.write_par1, nbytes=lambda a, k: _nbytes(a[0])
    )
    # read_par1_dataset reads through read_par1_pruned with and without a
    # predicate: one span name for each
    real_read = par1.read_par1_pruned
    read_pruned = _span(tr, "formats.par1.read_pruned", real_read)
    read_full = _span(tr, "formats.par1.read_full", real_read)

    @functools.wraps(real_read)
    def read_par1_pruned(*args, **kwargs):
        predicate = args[2] if len(args) > 2 else kwargs.get("predicate")
        return (read_full if predicate is None else read_pruned)(*args, **kwargs)

    par1.read_par1_pruned = read_par1_pruned


def install_worker() -> None:
    """Ray worker_process_setup_hook of a traced session."""
    install(Tracer(os.environ[TRACE_DIR_ENV]))


def install_driver(trace_dir: str) -> None:
    """The same wrappers in the driver, where encode_partitioned plans its
    codecs: a take_batch and select_codec trials on the sample."""
    install(Tracer(trace_dir))


def set_enabled(trace_dir: str, on: bool) -> None:
    flag = os.path.join(trace_dir, "ON")
    if on:
        open(flag, "w").close()
    elif os.path.exists(flag):
        os.remove(flag)


def load_spans(trace_dir: str) -> list[dict]:
    spans = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.jsonl"))):
        with open(path) as f:
            spans.extend(json.loads(line) for line in f if line.strip())
    return spans


def totals(spans: list[dict]) -> dict[str, dict]:
    """Per span name: count, inclusive seconds, input bytes and the sum of
    every extra numeric field."""
    out: dict[str, dict] = {}
    for s in spans:
        agg = out.setdefault(s["name"], {"count": 0, "s": 0.0, "bytes": 0})
        agg["count"] += 1
        agg["s"] += s["t1"] - s["t0"]
        agg["bytes"] += s["bytes"]
        for k, v in s.items():
            if k not in ("id", "name", "parent", "t0", "t1", "bytes"):
                agg[k] = agg.get(k, 0) + v
    return out
