"""One place for URI-vs-local-path dispatch and atomic publish.

The scheme sniff and ``file://`` normalization rules live HERE only;
`formats/par1._fs_open` and `pipelines/native_io._fs_of` are thin wrappers,
so a future rule change (new scheme handling, per-backend open options)
cannot silently diverge between the format layer and the dataset layer.

`publish` is the one way any sink makes a file appear whole or not at all
(partition checkpoints, PAR1 parts, manifests, plans, table commits):
local paths stage to ``<final>.tmp.<unique>`` and rename or link it into
place; object stores write the final key directly (the object appears on
close) and delete it if the write raises.
No Ray/pyarrow imports — the format modules stay usable without them.
"""

from __future__ import annotations

import contextlib
import os
import posixpath
import uuid


def norm(path: str) -> str:
    """``file://`` URIs become plain local paths; anything else is kept."""
    return path[len("file://") :] if path.startswith("file://") else path


def split_uri(path: str):
    """(fsspec_fs | None, plain_path, scheme_prefix) — None fs means local.

    scheme_prefix re-qualifies fs-relative paths back into URIs so every
    downstream open routes through the same backend."""
    if "://" in path and not path.startswith("file://"):
        import fsspec

        fs, plain = fsspec.core.url_to_fs(path)
        return fs, plain, path[: path.index("://") + 3]
    return None, norm(path), ""


def open_any(path: str, mode: str):
    """Open a local path or any fsspec URI (s3://, gs://, memory://, ...)."""
    fs, plain, _ = split_uri(path)
    if fs is not None:
        return fs.open(plain, mode)
    return open(plain, mode)


def exists(path: str) -> bool:
    fs, plain, _ = split_uri(path)
    return os.path.exists(plain) if fs is None else fs.exists(plain)


def size(path: str) -> int:
    fs, plain, _ = split_uri(path)
    return os.path.getsize(plain) if fs is None else fs.size(plain)


def isdir(path: str) -> bool:
    fs, plain, _ = split_uri(path)
    return os.path.isdir(plain) if fs is None else fs.isdir(plain)


def glob(root: str, pattern: str) -> list[str]:
    """Paths of the entries under `root` that the relative glob `pattern`
    matches, as one listing (local glob, or the object store's glob), in
    the form the backend lists them."""
    fs, plain, _ = split_uri(root)
    if fs is None:
        import glob as _glob

        return _glob.glob(os.path.join(_glob.escape(plain), pattern))
    return fs.glob(plain.rstrip("/") + "/" + pattern)


def publish(path: str, write, keep_first: bool = False) -> bool:
    """Make the object at `path` appear whole or not at all.

    ``write(target)`` writes the whole object to `target`.  Local paths
    stage to ``<path>.tmp.<unique>`` (the pattern crash sweeps look for)
    and ``os.replace`` it over `path`.  Object stores have no rename: the
    final key is written directly and appears on close (S3 PUT semantics);
    a write that raises deletes the key before re-raising, since buffered
    fsspec files still PUT on close during exception unwind.

    `keep_first`: never replace an existing `path` — the write is skipped
    if it exists, and locally the staged file is ``os.link``-ed, so a
    concurrent writer that lost the race sees False.  Returns False when
    nothing was published for that reason, else True."""
    if keep_first and exists(path):
        return False
    fs, plain, _ = split_uri(path)
    if fs is None:
        os.makedirs(os.path.dirname(plain) or ".", exist_ok=True)
        tmp = f"{plain}.tmp.{uuid.uuid4().hex[:12]}"
        try:
            write(tmp)
            if not keep_first:
                os.replace(tmp, plain)
                return True
            try:
                os.link(tmp, plain)
            except FileExistsError:
                return False
            return True
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
    fs.makedirs(posixpath.dirname(plain), exist_ok=True)
    try:
        write(path)
    except BaseException:
        with contextlib.suppress(OSError):
            fs.rm(plain)
        raise
    return True
