"""Storage-pluggable parquet reads — the analog of the reference's swappable
source backends (source/source.go:9-16: local/S3/HDFS/GCS/mem behind one
interface).  Paths may be plain local paths or URIs; URIs resolve to a
pyarrow FileSystem (s3://, gs://, hdfs://) with an fsspec bridge fallback for
anything pyarrow doesn't speak natively (e.g. memory://)."""

from __future__ import annotations

import dataclasses
import os
import weakref

import ray
import ray.data as rd
from ray.data.block import BlockAccessor


def resolve_filesystem(path: str):
    """(filesystem, path-without-scheme) for a URI; (None, path) for local."""
    if "://" not in path:
        return None, path
    if path.startswith("file://"):
        return None, path[len("file://") :]
    import pyarrow.fs as pafs

    try:
        return pafs.FileSystem.from_uri(path)
    except Exception:  # pyarrow doesn't speak this scheme: fsspec bridge
        import fsspec
        from pyarrow.fs import FSSpecHandler, PyFileSystem

        fs, plain = fsspec.core.url_to_fs(path)
        return PyFileSystem(FSSpecHandler(fs)), plain


def _strip_schema_metadata(batch):
    """Drop schema-level metadata (e.g. the pandas blob every pandas-written
    parquet file carries): schemas WITH metadata are unhashable in this
    pyarrow, so Ray's block-schema dedup/unify logs a warning per block and
    falls back to O(n) unification.  Zero-copy (buffers are shared)."""
    if batch.schema.metadata:
        return batch.replace_schema_metadata(None)
    return batch


def _clean_read_schema(path: str, fs, columns=None) -> "object | None":
    """The file's schema with metadata removed (projected to `columns` when
    given — the read applies the projection to batches, so the declared
    schema must match), so read tasks build blocks that are hashable from
    the start (the in-task row-group concat otherwise warns + falls back to
    O(n) schema unification per fragment)."""
    import os

    import pyarrow.parquet as pq

    def _project(sch):
        if columns is None:
            return sch
        if not set(columns) <= set(sch.names):
            return None
        import pyarrow as pa

        return pa.schema([sch.field(c) for c in columns])

    try:
        if fs is None:
            if os.path.isdir(path):
                names = sorted(
                    n for n in os.listdir(path) if n.endswith(".parquet")
                )
                if not names:
                    return None
                path = os.path.join(path, names[0])
            return _project(pq.read_schema(path).remove_metadata())
        info = fs.get_file_info(path)
        import pyarrow.fs as pafs

        if info.type == pafs.FileType.Directory:
            sel = pafs.FileSelector(path)
            files = sorted(
                f.path for f in fs.get_file_info(sel) if f.path.endswith(".parquet")
            )
            if not files:
                return None
            path = files[0]
        return _project(pq.read_schema(path, filesystem=fs).remove_metadata())
    except Exception:
        return None  # Ray infers the schema; the strip map follows the read


@dataclasses.dataclass
class ParquetSource:
    """The files of an untransformed `read_parquet_any` read, for a writer
    that reads them in its own tasks (`parquet_source`) instead of running
    the read.

    `uri` is the read's first path when it has a scheme (None for local
    files): the reading process resolves its filesystem through
    `resolve_filesystem`, so no filesystem object is shipped.  `files` are
    paths on that filesystem in Ray's read order (a directory lists
    sorted, as `pq.ParquetDataset` lists it for Ray); `columns` and the
    metadata-free `schema` are the ones Ray's read tasks were given, so
    `read` returns their rows and types."""

    uri: str | None
    files: list[str]
    columns: list[str] | None
    schema: "object"

    def _filesystem(self):
        import pyarrow.fs as pafs

        fs = resolve_filesystem(self.uri)[0] if self.uri is not None else None
        return fs or pafs.LocalFileSystem()

    def row_groups(self) -> list[tuple[int, int, int, int]]:
        """Every row group of the read in order, as (file index, row group,
        rows, uncompressed bytes), from the footers (read in the calling
        process)."""
        import pyarrow.parquet as pq

        fs = self._filesystem()
        out = []
        for k, f in enumerate(self.files):
            md = pq.read_metadata(f, filesystem=fs)
            for g in range(md.num_row_groups):
                rg = md.row_group(g)
                out.append((k, g, rg.num_rows, rg.total_byte_size))
        return out

    def read(self, piece: list) -> "object":
        """The rows of `piece` = [(file index, [row groups], lo, hi)]: each
        file's row groups read as Ray's read tasks read them (`schema`,
        `columns`), sliced to rows [lo, hi), concatenated in order."""
        import pyarrow as pa
        import pyarrow.dataset as pads

        fs, fmt = self._filesystem(), pads.ParquetFileFormat()
        return pa.concat_tables(
            fmt.make_fragment(self.files[k], filesystem=fs, row_groups=rgs)
            .to_table(schema=self.schema, columns=self.columns, use_threads=False)
            .slice(lo, hi - lo)
            for k, rgs, lo, hi in piece
        )


@dataclasses.dataclass
class BlockSource:
    """A materialized dataset's blocks (`block_source`), read through the
    `ParquetSource` interface: block k is file k with one row group.
    `blocks` are (ref, rows, bytes) in the dataset's order."""

    blocks: list[tuple["ray.ObjectRef", int, int]]

    def row_groups(self) -> list[tuple[int, int, int, int]]:
        """(block index, 0, rows, bytes) for every block, in order."""
        return [(k, 0, rows, size) for k, (_ref, rows, size) in enumerate(self.blocks)]

    def read(self, piece: list) -> "object":
        """The rows of `piece` = [(block index, [0], lo, hi)]: each block
        fetched, sliced to rows [lo, hi), concatenated in order."""
        import pyarrow as pa

        blocks = ray.get([self.blocks[k][0] for k, _rgs, _lo, _hi in piece])
        return pa.concat_tables(
            BlockAccessor.for_block(b).to_arrow().slice(lo, hi - lo)
            for b, (_k, _rgs, lo, hi) in zip(blocks, piece)
        )


def block_source(ds) -> BlockSource:
    """`ds` materialized once, in order, as a `BlockSource`.  A writer that
    names its output by row position or content must see the same blocks
    on a rerun, so the order is pinned on `ds`'s own context (a repartition
    of out-of-order blocks splits its rows differently) and the caller's
    flag is restored after."""
    opts = ds.context.execution_options
    keep, opts.preserve_order = opts.preserve_order, True
    try:
        bundles = ds.materialize().iter_internal_ref_bundles()
        return BlockSource([(ref, m.num_rows, m.size_bytes) for b in bundles for ref, m in b.blocks])
    finally:
        opts.preserve_order = keep


def row_range(groups: list[tuple[int, int, int, int]], lo: int, hi: int) -> list:
    """Rows [lo, hi) of the source whose `row_groups()` are `groups`, as a
    piece for its `read`: per file (or block), the row groups the range
    touches and the range's rows within them."""
    piece: list = []
    start = 0
    for f, g, rows, _ in groups:
        a, b = max(lo - start, 0), min(hi - start, rows)
        start += rows
        if a >= b:
            continue
        if piece and piece[-1][0] == f:
            # the next row group of the same file: the range runs on from
            # the end of the previous one
            _f, rgs, a0, b0 = piece[-1]
            piece[-1] = (f, rgs + [g], a0, b0 + b)
        else:
            piece.append((f, [g], a, b))
    return piece


# the Datasets `read_parquet_any` returned for reads a task can repeat
# exactly (see `parquet_source`); a transform returns a new Dataset, which is
# not here
_PARQUET_READS: "weakref.WeakKeyDictionary[rd.Dataset, ParquetSource]" = weakref.WeakKeyDictionary()


def parquet_source(ds) -> ParquetSource | None:
    """`ds`'s files when `ds` is a `read_parquet_any` result that a task
    can read itself with the same rows and types, else None.

    Only the Dataset object `read_parquet_any` returned is recorded, so any
    transform (`map_batches`, `repartition`, `limit`, `materialize`),
    `from_arrow` and a plain `rd.read_parquet` give None.  So does a read
    with a keyword beyond `columns`, `schema` and `override_num_blocks`, a
    read that strips metadata after the fact, and a read with a `key=value`
    directory in a file path (Ray adds hive partition columns for those)."""
    try:
        return _PARQUET_READS.get(ds)
    except TypeError:  # unhashable: not a Dataset
        return None


def _record(ds, paths, plain, fs, columns, schema) -> None:
    """Record `ds` for `parquet_source` when its file list resolves and no
    file sits under a hive `key=value` directory."""
    import pyarrow.parquet as pq

    uri = paths if isinstance(paths, str) else paths[0]
    if "://" not in uri or uri.startswith("file://"):
        uri = None
        plain = os.path.abspath(plain) if isinstance(plain, str) else [os.path.abspath(p) for p in plain]
    if not isinstance(plain, str) and len(plain) == 1:
        plain = plain[0]  # as Ray passes it: a one-entry list may be a directory
    try:
        # the listing Ray's read makes: sorted, recursive, `_`/`.` skipped
        files = pq.ParquetDataset(plain, filesystem=fs, partitioning=None).files
    except (OSError, ValueError, TypeError):  # pyarrow cannot list it: Ray reads it
        return
    if any("=" in part for f in files for part in os.path.dirname(f).split("/")):
        return
    _PARQUET_READS[ds] = ParquetSource(uri, list(files), None if columns is None else list(columns), schema)


def read_parquet_any(paths, columns: list[str] | None = None, **kwargs) -> rd.Dataset:
    """ray.data.read_parquet over local paths OR remote URIs, with block
    schemas normalized (metadata-free).

    The read gets the first file's schema without its metadata (projected
    to `columns`), so its tasks build metadata-free blocks and the read
    stays one operator.  A `_strip_schema_metadata` map runs after the read
    only when no such schema resolves (Ray infers one) or when the caller's
    own `schema=` carries metadata (Ray cannot fuse that map with a
    directory read's block split, so it runs as one more task per block).

    A read with no keyword beyond `schema` and `override_num_blocks` and no
    strip map is recorded for `parquet_source`: `write_par1_dataset` and
    `encode_partitioned` then read its files in their own tasks and never
    run the returned Dataset."""
    if isinstance(paths, str):
        fs, plain = resolve_filesystem(paths)
        first = plain
    else:
        resolved = [resolve_filesystem(p) for p in paths]

        def _fs_eq(a, b):
            # VALUE equality, not id(): every resolve builds a fresh instance,
            # so id() rejected any multi-URI read of the same filesystem
            if a is None or b is None:
                return a is b
            try:
                return a.equals(b)
            except AttributeError:
                return a == b

        fs = resolved[0][0]
        if any(not _fs_eq(fs, r[0]) for r in resolved[1:]):
            raise ValueError("mixed filesystems in one read")
        plain = [r[1] for r in resolved]
        first = plain[0]
    exact = not set(kwargs) - {"schema", "override_num_blocks"}
    if "schema" in kwargs:
        strip = kwargs["schema"] is None or bool(kwargs["schema"].metadata)
    else:
        kwargs["schema"] = _clean_read_schema(first, fs, columns)
        strip = kwargs["schema"] is None
    if fs is not None:
        kwargs["filesystem"] = fs
    ds = rd.read_parquet(plain, columns=columns, **kwargs)
    if strip:
        return ds.map_batches(_strip_schema_metadata, batch_format="pyarrow")
    if exact:
        _record(ds, paths, plain, fs, columns, kwargs["schema"])
    return ds
