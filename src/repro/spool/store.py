"""The spool store: the one handle crawl code holds on the spool.

``SpoolStore.open`` is where the durability story starts: it runs
crash recovery over every segment on disk, seals any leftover
``.open`` segments from a previous (dead) process, and only then hands
out writers — so by the time the first new record is appended, the
spool invariant (whole frames everywhere) holds again and the
appendable segments all belong to *this* process.

The store also enforces the byte quota on every append
(:mod:`repro.spool.quota`) and emits the ``spool.*`` counters that the
chaos tests and the obs report read.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from repro.spool.format import encode_frame
from repro.spool.quota import enforce_quota
from repro.spool.recovery import RecoveryReport, recover_spool
from repro.spool.segment import (
    DEFAULT_SEGMENT_BYTES,
    SegmentInfo,
    SegmentWriter,
    delete_segment,
    list_segments,
    scan_segment,
    seal_segment,
)

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector
    from repro.obs import Obs


class SpoolStore:
    """Durable, quota-bounded, multi-shard spool of JSON records."""

    def __init__(
        self,
        root: Path,
        recovery: RecoveryReport,
        quota_bytes: int = 0,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        obs: "Obs | None" = None,
        injector: "FaultInjector | None" = None,
    ) -> None:
        self.root = root
        self.recovery = recovery
        self.quota_bytes = quota_bytes
        self.segment_bytes = segment_bytes
        self.obs = obs
        self.injector = injector
        self._writers: dict[str, SegmentWriter] = {}
        self._next_seq: dict[str, int] = {}
        for info in list_segments(root):
            self._next_seq[info.shard] = max(
                self._next_seq.get(info.shard, 0), info.seq
            ) + 1
        self._total = sum(info.size for info in list_segments(root))

    @classmethod
    def open(
        cls,
        root: str | Path,
        quota_bytes: int = 0,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        obs: "Obs | None" = None,
        injector: "FaultInjector | None" = None,
    ) -> "SpoolStore":
        """Recover the spool directory and return a ready store.

        Leftover ``.open`` segments from a dead process are sealed
        (they were recovered to whole frames) or deleted when they
        hold no records; new appends always start fresh segments.
        Raises :class:`~repro.spool.recovery.SpoolCorruptionError`
        when a segment's damage is not a clean torn tail.
        """
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        recovery = recover_spool(root)
        sealed_leftovers = 0
        for info in list_segments(root):
            if info.sealed:
                continue
            frames = sum(1 for _ in scan_segment(info.path))
            if frames >= 2:
                seal_segment(info.path)
                sealed_leftovers += 1
            else:
                delete_segment(info.path)
        store = cls(
            root,
            recovery,
            quota_bytes=quota_bytes,
            segment_bytes=segment_bytes,
            obs=obs,
            injector=injector,
        )
        if obs is not None:
            obs.metrics.counter("spool.recovery.segments").add(
                recovery.segments_scanned
            )
            obs.metrics.counter("spool.recovery.torn_records").add(
                recovery.torn_records
            )
            obs.metrics.counter("spool.segments_sealed").add(sealed_leftovers)
        return store

    def _writer(self, shard: str) -> SegmentWriter:
        writer = self._writers.get(shard)
        if writer is None:
            writer = SegmentWriter(
                self.root,
                shard,
                self._next_seq.get(shard, 1),
                segment_bytes=self.segment_bytes,
                injector=self.injector,
            )
            self._writers[shard] = writer
        return writer

    def _imported_ids(self) -> set[str]:
        from repro.spool.importer import ImportState

        return ImportState.load(self.root).imported_ids

    def append(self, shard: str, payload: dict) -> None:
        """Durably append one record to a shard's active segment.

        With a quota configured, over-budget appends first evict
        oldest-imported sealed segments; when nothing is evictable the
        quota raises rather than dropping data.
        """
        if self.quota_bytes:
            frame_len = len(encode_frame(payload))
            if self._total + frame_len > self.quota_bytes:
                report = enforce_quota(
                    self.root,
                    self.quota_bytes,
                    frame_len,
                    self._imported_ids(),
                )
                if report.evicted_segments and self.obs is not None:
                    self.obs.metrics.counter(
                        "spool.quota.evicted_segments"
                    ).add(len(report.evicted_segments))
                    self.obs.metrics.counter("spool.quota.evicted_bytes").add(
                        report.evicted_bytes
                    )
                self._total = sum(
                    info.size for info in list_segments(self.root)
                )
        writer = self._writer(shard)
        sealed_before = writer.active_size
        self._total += writer.append(payload)
        if self.obs is not None:
            self.obs.metrics.counter("spool.records").add(1)
            if writer.active_size < sealed_before:
                # Rotation sealed the previous segment mid-append.
                self.obs.metrics.counter("spool.segments_sealed").add(1)

    def seal_active(self) -> list[Path]:
        """Seal every shard's active segment (end of study)."""
        sealed = []
        for writer in self._writers.values():
            path = writer.seal()
            if path is not None:
                sealed.append(path)
        if sealed and self.obs is not None:
            self.obs.metrics.counter("spool.segments_sealed").add(len(sealed))
        return sealed

    def close(self) -> None:
        """Close writers without sealing (crash simulation in tests)."""
        for writer in self._writers.values():
            writer.close()

    def segments(self) -> list[SegmentInfo]:
        return list_segments(self.root)
