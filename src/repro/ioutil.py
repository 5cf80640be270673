"""Crash-safe filesystem helpers: atomic writes.

Every artifact this repo leaves on disk — golden fixtures, batch reports,
benchmark/metrics exports, journal checkpoints — goes through
:func:`atomic_write`: the content lands in a temporary sibling file, is
flushed and ``fsync``'d, and then replaces the destination with
``os.replace`` (atomic on POSIX within one filesystem).  A crash at any
point leaves either the complete old file or the complete new file, never a
truncated hybrid.

:func:`fsync_dir` makes the *rename itself* durable (the directory entry
lives in the directory's own data blocks); the write-ahead journal uses it
after every checkpoint swap.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from typing import Any, IO, Iterator

__all__ = ["atomic_write", "atomic_write_json", "fsync_dir"]


def fsync_dir(path: str | os.PathLike) -> None:
    """fsync a directory so a just-renamed entry survives power loss.

    Best-effort: platforms that refuse ``open`` on directories (Windows)
    simply skip it — ``os.replace`` atomicity is what correctness rests on;
    the directory fsync only narrows the post-crash durability window.
    """
    try:
        fd = os.open(os.fspath(path), os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@contextlib.contextmanager
def atomic_write(
    path: str | os.PathLike,
    mode: str = "w",
    *,
    encoding: str | None = None,
    durable: bool = True,
) -> Iterator[IO]:
    """Write ``path`` atomically: tmp sibling + fsync + ``os.replace``.

    Yields an open handle; on clean exit the temporary file replaces
    ``path``, on exception it is removed and the destination is untouched.
    ``durable=False`` skips the fsyncs (atomicity without the disk flush)
    for artifacts where a truncated file is the only unacceptable outcome.
    """
    if mode not in ("w", "wb"):
        raise ValueError(f"atomic_write supports modes 'w'/'wb', got {mode!r}")
    target = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(target))
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(target) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, mode, encoding=encoding) as handle:
            yield handle
            handle.flush()
            if durable:
                os.fsync(handle.fileno())
        os.replace(tmp, target)
        if durable:
            fsync_dir(directory)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def atomic_write_json(
    record: Any,
    path: str | os.PathLike,
    *,
    indent: int | None = 2,
    sort_keys: bool = True,
    durable: bool = True,
) -> None:
    """Dump ``record`` as JSON to ``path`` atomically (trailing newline)."""
    with atomic_write(path, "w", durable=durable) as handle:
        json.dump(record, handle, indent=indent, sort_keys=sort_keys)
        handle.write("\n")
