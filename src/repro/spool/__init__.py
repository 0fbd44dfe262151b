"""The durable write-ahead spool: crash-safe crawl → analyze hand-off.

A study run with ``--spool-dir`` journals every finished 64-site shard
as one record into per-crawl-lane *segments* — length-prefixed,
checksummed, append-only files (:mod:`~repro.spool.format`,
:mod:`~repro.spool.segment`). A killed run loses at most the shards
not yet merged (one at ``--workers 1``): on reopen,
:mod:`~repro.spool.recovery` truncates the one torn tail frame a
crash can produce (and refuses, loudly, anything that looks like real
corruption), after which the resumed study re-crawls only unjournaled
shards — provided it is the study that wrote the spool
(:class:`~repro.spool.journal.StaleSpoolError` otherwise).

``repro spool import`` (:mod:`~repro.spool.importer`) drains sealed
segments into the v2 dataset file idempotently — canonical record
order, per-shard dedupe, two-phase journal-then-rename commit —
so the imported dataset is byte-identical to an uninterrupted run's,
and each import journals which dataset record range every segment
produced. Those slices feed ``repro analyze --incremental``, which
folds only the records new since the last analysis.

The byte budget (:mod:`~repro.spool.quota`) degrades by evicting
oldest *imported* segments first and hard-fails (exit code 6) rather
than ever dropping unimported records.
"""

from repro.spool.importer import (
    ImportResult,
    ImportState,
    import_spool,
)
from repro.spool.journal import (
    SpoolJournal,
    StaleSpoolError,
    shard_for_crawl,
)
from repro.spool.quota import EvictionReport, SpoolQuotaExceeded
from repro.spool.recovery import (
    RecoveryReport,
    SpoolCorruptionError,
    recover_spool,
)
from repro.spool.segment import (
    SegmentInfo,
    SegmentWriter,
    SpoolCrash,
    SpoolDiskFull,
    SpoolFault,
    SpoolTornWrite,
    list_segments,
)
from repro.spool.store import SpoolStore

__all__ = [
    "EvictionReport",
    "ImportResult",
    "ImportState",
    "RecoveryReport",
    "SegmentInfo",
    "SegmentWriter",
    "SpoolCorruptionError",
    "SpoolCrash",
    "SpoolDiskFull",
    "SpoolFault",
    "SpoolJournal",
    "SpoolQuotaExceeded",
    "SpoolStore",
    "SpoolTornWrite",
    "StaleSpoolError",
    "import_spool",
    "list_segments",
    "recover_spool",
    "shard_for_crawl",
]
