"""Atomic file writes: temp file + rename, in the target directory.

Every durable artifact this repo produces — datasets, reports, traces,
bench JSON, cache entries, HAR archives — must never be observable
half-written: a crash mid-write would otherwise leave a
torn file that a later run trusts (a cache entry that parses but lies,
a dataset missing its tail). The fix is the classic one: write the
full content to a temporary file *in the same directory* (so the
rename cannot cross filesystems), fsync it, then ``os.replace`` onto
the final name. Readers see either the old bytes or the new bytes,
never a mixture.

Two entry points:

* :func:`atomic_write` — one-shot text (or bytes) replacement.
* :func:`atomic_open` — a context manager yielding a writable handle
  (gzip-aware, mirroring :mod:`repro.util.serialization`); commit
  happens on clean exit, and an exception discards the temp file,
  leaving any previous version untouched.

The spool's *segments* deliberately do not use this module: a spool
segment is an append-only write-ahead log whose torn tail is handled
by :mod:`repro.spool.recovery`, not by atomicity.
"""

from __future__ import annotations

import gzip
import io
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

__all__ = ["atomic_write", "atomic_open", "fsync_dir"]


def fsync_dir(path: str | Path) -> None:
    """fsync a directory so a just-renamed entry survives power loss.

    Best-effort: some platforms/filesystems refuse directory fds;
    durability there degrades to the rename's own guarantees.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _temp_path(target: Path) -> Path:
    # Deterministic name (no PID/time): single-writer per artifact is
    # the repo-wide contract, and a stale temp from a crashed run is
    # silently overwritten by the next successful write.
    return target.parent / f".{target.name}.tmp"


def atomic_write(
    path: str | Path, data: str | bytes, encoding: str = "utf-8"
) -> Path:
    """Replace ``path``'s content atomically; returns the path.

    The parent directory is created if missing. ``data`` may be text
    or bytes; text is encoded with ``encoding``.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    raw = data.encode(encoding) if isinstance(data, str) else data
    temp = _temp_path(target)
    fd = os.open(str(temp), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(raw)
            handle.flush()
            os.fsync(handle.fileno())
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    os.replace(temp, target)
    fsync_dir(target.parent)
    return target


@contextmanager
def atomic_open(path: str | Path) -> Iterator:
    """Open ``path`` for atomic text writing (``.gz`` supported).

    Yields a text handle backed by a same-directory temp file; on
    clean exit the temp replaces ``path``, on exception it is removed
    and ``path`` keeps its previous content (or stays absent).
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    temp = _temp_path(target)
    raw = open(temp, "wb")
    if target.suffix == ".gz":
        # Pin mtime=0 so equal content gzips to equal bytes — the
        # dataset fingerprint tests compare .gz twins byte for byte.
        inner = gzip.GzipFile(filename="", fileobj=raw, mode="wb", mtime=0)
    else:
        inner = raw
    text = io.TextIOWrapper(inner, encoding="utf-8")
    try:
        yield text
        text.flush()
        if inner is not raw:
            inner.close()
        raw.flush()
        os.fsync(raw.fileno())
        raw.close()
    except BaseException:
        try:
            text.close()
        except Exception:
            pass
        try:
            raw.close()
        except Exception:
            pass
        temp.unlink(missing_ok=True)
        raise
    os.replace(temp, target)
    fsync_dir(target.parent)
