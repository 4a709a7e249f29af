"""Storage-pluggable parquet reads — the analog of the reference's swappable
source backends (source/source.go:9-16: local/S3/HDFS/GCS/mem behind one
interface).  Paths may be plain local paths or URIs; URIs resolve to a
pyarrow FileSystem (s3://, gs://, hdfs://) with an fsspec bridge fallback for
anything pyarrow doesn't speak natively (e.g. memory://)."""

from __future__ import annotations

import ray.data as rd


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


def read_parquet_any(paths, columns: list[str] | None = None, **kwargs) -> rd.Dataset:
    """ray.data.read_parquet over local paths OR remote URIs, with block
    schemas normalized (metadata-free).

    The read gets the first file's schema without its metadata (projected
    to `columns`), so its tasks build metadata-free blocks and the read
    stays one operator.  A `_strip_schema_metadata` map runs after the read
    only when no such schema resolves (Ray infers one) or when the caller's
    own `schema=` carries metadata (Ray cannot fuse that map with a
    directory read's block split, so it runs as one more task per block)."""
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
    if "schema" in kwargs:
        strip = kwargs["schema"] is None or bool(kwargs["schema"].metadata)
    else:
        kwargs["schema"] = _clean_read_schema(first, fs, columns)
        strip = kwargs["schema"] is None
    if fs is not None:
        kwargs["filesystem"] = fs
    ds = rd.read_parquet(plain, columns=columns, **kwargs)
    return ds.map_batches(_strip_schema_metadata, batch_format="pyarrow") if strip else ds
