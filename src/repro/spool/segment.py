"""Spool segments: the append-only files and their lifecycle.

A segment lives under the spool directory as
``<shard>-<seq>.open`` while a writer appends to it and is *sealed* by
an fsync + rename to ``<shard>-<seq>.seg`` — the atomic state change
that marks it immutable and importable. Sealing happens when the
segment crosses the writer's size threshold (rotation) or when the
study finishes (:meth:`~repro.spool.store.SpoolStore.seal_active`).

This module owns every filesystem *mutation* the spool performs on
segment files — appends, the seal rename, deletion (quota eviction),
and :func:`truncate_segment`, the single write primitive recovery is
allowed to reach (the ``SPOOL-RO`` flow-zone contract pins that).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.spool.format import (
    Frame,
    FrameError,
    check_header,
    encode_frame,
    header_payload,
    scan_frames,
)
from repro.util.atomicio import fsync_dir

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector

OPEN_SUFFIX = ".open"
SEALED_SUFFIX = ".seg"

#: Default rotation threshold: a bound on how much one unsealed segment
#: holds, large enough that frame overhead stays negligible. A smoke
#: study writes one 0.5–0.6 MB segment per crawl and never rotates;
#: tests that need multi-segment spools re-append into smaller segments
#: (``tests/spool/conftest.py::respool``).
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024


class SpoolFault(RuntimeError):
    """Base class for injected spool faults (``repro.faults``).

    These simulate a process dying mid-write: tests catch them, reopen
    the spool, and assert recovery restores the invariant. They are
    never raised on the ``none`` profile.
    """


class SpoolCrash(SpoolFault):
    """Injected crash *after* a record was fully appended."""


class SpoolTornWrite(SpoolFault):
    """Injected crash *mid-append* — a torn frame is left on disk."""


class SpoolDiskFull(SpoolFault):
    """Injected ENOSPC *before* an append — nothing reaches disk.

    The CLI treats this like a real quota hard breach (exit code 6):
    both mean the spool cannot durably accept the record.
    """


def segment_name(shard: str, seq: int) -> str:
    """The segment id (file stem) for a shard/sequence pair."""
    return f"{shard}-{seq:06d}"


def parse_segment_id(segment_id: str) -> tuple[str, int]:
    """Split a segment id back into ``(shard, seq)``."""
    stem, _, seq = segment_id.rpartition("-")
    return stem, int(seq)


@dataclass(frozen=True)
class SegmentInfo:
    """One segment file as found on disk.

    Attributes:
        segment_id: ``<shard>-<seq>`` (the file stem).
        path: Where it lives.
        sealed: Whether it carries the sealed suffix.
        size: File size in bytes.
    """

    segment_id: str
    path: Path
    sealed: bool
    size: int

    @property
    def shard(self) -> str:
        return parse_segment_id(self.segment_id)[0]

    @property
    def seq(self) -> int:
        return parse_segment_id(self.segment_id)[1]


def list_segments(root: str | Path) -> list[SegmentInfo]:
    """Every segment under a spool directory, in (shard, seq) order.

    The order is the canonical import order: shards are named after
    crawl lanes (``crawl00`` …), so sorting by name then sequence
    replays records exactly as the accountant journaled them.
    """
    root = Path(root)
    if not root.is_dir():
        return []
    infos = []
    for path in root.iterdir():
        if path.suffix not in (OPEN_SUFFIX, SEALED_SUFFIX):
            continue
        infos.append(SegmentInfo(
            segment_id=path.stem,
            path=path,
            sealed=path.suffix == SEALED_SUFFIX,
            size=path.stat().st_size,
        ))
    infos.sort(key=lambda info: (info.shard, info.seq))
    return infos


def scan_segment(path: str | Path) -> Iterator[Frame]:
    """Frames of one segment, header first; propagates FrameError."""
    data = Path(path).read_bytes()
    return scan_frames(data)


def read_segment(path: str | Path) -> list[dict]:
    """Record payloads of a (recovered) segment, header validated.

    Strict: any frame error propagates — call only after recovery has
    run, when a bad frame means corruption, not a torn tail.
    """
    frames = list(scan_segment(path))
    if not frames:
        raise FrameError(0, "corrupt", "segment has no header frame")
    check_header(frames[0].payload, str(path))
    return [frame.payload for frame in frames[1:]]


def truncate_segment(path: str | Path, offset: int) -> None:
    """Cut a segment off at ``offset`` bytes — recovery's one write.

    This is the sanctioned sink of the ``SPOOL-RO`` zone: recovery
    decides *where* to cut, this primitive performs the cut, and
    nothing else in the recovery path may touch the filesystem.
    """
    with open(path, "r+b") as handle:
        handle.truncate(offset)
        handle.flush()
        os.fsync(handle.fileno())


def delete_segment(path: str | Path) -> None:
    """Remove a segment file (quota eviction)."""
    path = Path(path)
    path.unlink(missing_ok=True)
    fsync_dir(path.parent)


def seal_segment(path: str | Path) -> Path:
    """Rename ``.open`` → ``.seg``; idempotent for sealed paths."""
    path = Path(path)
    if path.suffix == SEALED_SUFFIX:
        return path
    sealed = path.with_suffix(SEALED_SUFFIX)
    os.replace(path, sealed)
    fsync_dir(path.parent)
    return sealed


class SegmentWriter:
    """Appends framed records to one shard's active segment.

    Rotation: when an append pushes the active segment past
    ``segment_bytes``, the segment is fsync'd, sealed, and the next
    append opens ``<shard>-<seq+1>.open``. Appends flush to the OS
    (surviving a killed process); the fsync that survives power loss
    happens at seal time — the write-ahead-log tradeoff recovery's
    torn-tail rule exists to cover.
    """

    def __init__(
        self,
        root: Path,
        shard: str,
        next_seq: int,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        injector: "FaultInjector | None" = None,
    ) -> None:
        self.root = root
        self.shard = shard
        self.segment_bytes = segment_bytes
        self.injector = injector
        self._seq = next_seq
        self._handle = None
        self._size = 0
        self._records = 0

    @property
    def active_path(self) -> Path:
        return self.root / (segment_name(self.shard, self._seq) + OPEN_SUFFIX)

    @property
    def active_size(self) -> int:
        return self._size

    def _open(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.active_path
        self._handle = open(path, "ab")
        self._size = self._handle.tell()
        if self._size == 0:
            header = encode_frame(header_payload(self.shard, self._seq))
            self._handle.write(header)
            self._handle.flush()
            self._size = len(header)

    def append(self, payload: dict) -> int:
        """Frame and append one record; returns bytes written.

        Injected faults (when an injector with spool probabilities is
        installed) fire here: ``torn-write`` leaves a prefix of the
        frame on disk and raises, ``crash`` raises after the full
        append — both simulate the process dying at exactly the point
        recovery must handle.
        """
        if self._handle is None:
            self._open()
        frame = encode_frame(payload)
        segment_id = segment_name(self.shard, self._seq)
        injector = self.injector
        if injector is not None:
            if injector.spool_disk_full(segment_id, self._records):
                raise SpoolDiskFull(
                    f"injected disk-full in {segment_id} before record "
                    f"{self._records}"
                )
            if injector.spool_torn_write(segment_id, self._records):
                cut = injector.spool_torn_cut(
                    segment_id, self._records, len(frame)
                )
                self._handle.write(frame[:cut])
                self._handle.flush()
                self._size += cut
                raise SpoolTornWrite(
                    f"injected torn write in {segment_id} at record "
                    f"{self._records} ({cut}/{len(frame)} bytes)"
                )
        self._handle.write(frame)
        self._handle.flush()
        self._size += len(frame)
        self._records += 1
        if injector is not None and injector.spool_crash(
            segment_id, self._records
        ):
            raise SpoolCrash(
                f"injected crash in {segment_id} after record "
                f"{self._records}"
            )
        if self._size >= self.segment_bytes:
            self.seal()
        return len(frame)

    def seal(self) -> Path | None:
        """Seal the active segment (fsync + rename); advance the seq.

        Returns the sealed path, or ``None`` when nothing was open.
        An empty active segment (header only) is discarded rather
        than sealed — it carries no records.
        """
        if self._handle is None:
            return None
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        path = self.active_path
        header_only = self._size <= len(
            encode_frame(header_payload(self.shard, self._seq))
        )
        self._handle = None
        self._seq += 1
        self._records = 0
        self._size = 0
        if header_only:
            delete_segment(path)
            return None
        return seal_segment(path)

    def close(self) -> None:
        """Close without sealing (the crash-simulation path in tests)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
