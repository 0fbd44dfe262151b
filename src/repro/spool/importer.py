"""Draining the spool into the v2 dataset file, idempotently.

The importer merges the per-shard dataset folds journaled in sealed
spool segments — appended by the study runner in canonical shard
order, each already labeled by the shard that crawled it — into a
:class:`~repro.crawler.dataset.StudyDataset` and writes the v2 dataset
file, extending any previous import. It matches no filter and merges
one fold per ``shard`` record. Three properties carry the crash-safety
story:

**Canonical order.** Segments replay in ``(lane, seq)`` order, which
is exactly the order the study runner journaled shards in, so the
imported dataset is byte-identical to the one an uninterrupted run
would have saved. A shard whose sites the dataset already lists is
skipped whole: that is how a re-import after a crash between dataset
rename and journal write (or of shards re-crawled after their
segments were evicted) heals instead of double-counting.

**Two-phase commit.** Each import writes the new dataset to a temp
file, rewrites the import journal (now naming the new file's
fingerprint and the segments it consumed), and only then renames the
temp over the dataset. A crash between journal and rename leaves a
journal whose last entry names a fingerprint no file has — the next
load drops that entry and the re-import heals. A crash before the
journal leaves both files untouched.

**Fingerprint-validated journal.** :meth:`ImportState.load` trusts a
journal entry only when the *last* entry's fingerprint matches the
dataset file actually on disk (every earlier entry then being a
committed ancestor). Entries that fail the check are dropped — so a
dataset regenerated outside the importer simply resets the import
history rather than corrupting it.

Each journal entry also records, per segment, the dataset *record
range* the segment's records occupy and a hash of those lines. Those
slices — not the segment files — are what incremental analysis folds,
which is why quota eviction of an imported segment never invalidates
the analysis cache.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.crawler.dataset import StudyDataset
from repro.crawler.persistence import (
    DatasetReader,
    JournaledShard,
    SegmentSlice,
    dataset_preamble,
    file_fingerprint,
    socket_record_to_json,
)
from repro.spool.segment import SegmentInfo, read_segment
from repro.util.atomicio import atomic_write, fsync_dir
from repro.util.serialization import dumps, iter_lines

if TYPE_CHECKING:
    from repro.filters import CompiledFilterEngine

JOURNAL_NAME = "import.journal"
JOURNAL_KIND = "spool-import-journal"
JOURNAL_VERSION = 1


@dataclass
class ImportState:
    """The validated import history of one spool directory."""

    journal_path: Path
    dataset_path: Path | None = None
    entries: list[dict] = field(default_factory=list)
    dropped: int = 0

    @property
    def imported_ids(self) -> set[str]:
        """Segment ids a committed import has fully consumed."""
        ids: set[str] = set()
        for entry in self.entries:
            for payload in entry["segments"]:
                ids.add(payload["id"])
        return ids

    @property
    def slices(self) -> list[SegmentSlice]:
        """Every committed slice, in dataset record order."""
        return [
            SegmentSlice.from_json(payload)
            for entry in self.entries
            for payload in entry["segments"]
        ]

    @property
    def fingerprint(self) -> str | None:
        """The dataset fingerprint of the last committed import."""
        return self.entries[-1]["fingerprint"] if self.entries else None

    @classmethod
    def load(
        cls, root: str | Path, dataset_path: str | Path | None = None
    ) -> "ImportState":
        """Parse and validate ``root``'s import journal.

        Trailing entries whose fingerprint does not match the dataset
        file on disk are dropped (counted in ``dropped``) — the
        signature of a crash between journal write and dataset rename,
        or of a dataset regenerated outside the importer. Raises
        :class:`FileNotFoundError` when ``root`` is not a directory, so
        a mistyped spool path fails before anything creates it instead
        of reading as an empty spool. Dataset paths are resolved, so a
        journal names its dataset the same from any working directory
        (a relative name an older journal recorded resolves against
        the current one).
        """
        if not Path(root).is_dir():
            raise FileNotFoundError(f"no spool directory at {root}")
        journal_path = Path(root) / JOURNAL_NAME
        state = cls(journal_path=journal_path)
        if dataset_path is not None:
            state.dataset_path = Path(dataset_path).resolve()
        if not journal_path.exists():
            return state
        lines = [
            line.strip()
            for line in journal_path.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        if not lines:
            return state
        header = json.loads(lines[0])
        if (
            header.get("kind") != JOURNAL_KIND
            or header.get("version") != JOURNAL_VERSION
        ):
            raise ValueError(
                f"{journal_path} is not a version-{JOURNAL_VERSION} "
                f"{JOURNAL_KIND} file"
            )
        recorded = Path(header["dataset"]).resolve()
        if state.dataset_path is None:
            state.dataset_path = recorded
        elif state.dataset_path != recorded:
            raise ValueError(
                f"{journal_path} tracks dataset {recorded}, not "
                f"{state.dataset_path}; use one dataset per spool"
            )
        state.entries = [json.loads(line) for line in lines[1:]]
        actual = (
            file_fingerprint(state.dataset_path)
            if state.dataset_path.exists() else None
        )
        while state.entries and state.entries[-1]["fingerprint"] != actual:
            state.entries.pop()
            state.dropped += 1
        return state

    def save(self) -> None:
        """Atomically rewrite the journal from the validated entries."""
        header = {
            "kind": JOURNAL_KIND,
            "version": JOURNAL_VERSION,
            "dataset": str(self.dataset_path),
        }
        body = "".join(
            json.dumps(payload, sort_keys=True) + "\n"
            for payload in [header] + self.entries
        )
        atomic_write(self.journal_path, body)


@dataclass
class ImportResult:
    """What one import pass did.

    ``no_op`` is True when every sealed segment was already journaled
    — the idempotence contract ``repro spool import`` re-runs lean on.
    """

    dataset_path: Path
    imported_segments: list[str] = field(default_factory=list)
    new_records: int = 0
    new_sites: int = 0
    total_records: int = 0
    deduped_sites: int = 0
    fingerprint: str = ""
    no_op: bool = False


def _replay_segment(
    info: SegmentInfo,
    dataset: StudyDataset,
    known_sites: set[tuple[int, str]],
) -> tuple[int, int]:
    """Merge one segment's journaled shard folds into the dataset.

    Returns ``(new_sites, duplicate_sites)``. Mirrors what the study
    runner feeds the dataset for each shard — the shard's fold, then
    its sites' ``(domain, rank)`` slots in the crawl's site list — so
    replay order in, canonical dataset out. A shard whose sites
    ``known_sites`` already holds is skipped; one that overlaps them
    only in part cannot come from one study and raises.
    """
    new_sites = 0
    dupes = 0
    for payload in read_segment(info.path):
        kind = payload.get("t")
        if kind == "crawl":
            index = payload["index"]
            if index not in dataset.crawl_labels:
                dataset.crawl_labels[index] = payload["label"]
                dataset.crawl_sites.setdefault(index, [])
            continue
        if kind != "shard":
            raise ValueError(
                f"{info.path}: unknown spool record type {kind!r}"
            )
        entry = JournaledShard.from_json(payload)
        keys = {(entry.crawl, site.domain) for site in entry.sites}
        known = len(keys & known_sites)
        if known == len(keys):
            dupes += known
            continue
        if known:
            raise ValueError(
                f"{info.path}: shard {entry.shard} of crawl "
                f"{entry.crawl} overlaps the dataset's sites in part; "
                "the dataset is not this spool's"
            )
        known_sites.update(keys)
        new_sites += len(keys)
        dataset.merge(entry.fold)
        dataset.crawl_sites.setdefault(entry.crawl, []).extend(
            (site.domain, site.rank) for site in entry.sites
        )
    return new_sites, dupes


def import_spool(
    root: str | Path,
    dataset_path: str | Path,
    engine: "CompiledFilterEngine | None" = None,
) -> ImportResult:
    """Drain every unimported sealed segment into the dataset file.

    Opens (and thereby recovers) the spool, merges new segments' shard
    folds onto the existing dataset — restored aggregates plus raw record
    lines, never a re-crawl or a re-match — and commits dataset +
    journal in the two-phase order described in the module docstring.
    ``engine`` only becomes the written dataset's engine: an import
    matches nothing. Returns a no-op result when there is nothing new.
    """
    from repro.spool.store import SpoolStore

    root = Path(root)
    dataset_path = Path(dataset_path)
    state = ImportState.load(root, dataset_path)
    store = SpoolStore.open(root)
    segments = [info for info in store.segments() if info.sealed]
    fresh = [
        info for info in segments
        if info.segment_id not in state.imported_ids
    ]
    if not fresh:
        return ImportResult(
            dataset_path=dataset_path,
            total_records=sum(
                s.stop - s.start for s in state.slices
            ),
            fingerprint=state.fingerprint or "",
            no_op=True,
        )

    base_exists = dataset_path.exists()
    if base_exists:
        reader = DatasetReader(dataset_path, engine=engine)
        dataset = reader.dataset
        known_sites = {
            (crawl.index, domain)
            for crawl in reader.meta.crawls
            for domain, _rank in crawl.sites
        }
        preamble_skip = reader.preamble_lines
    else:
        dataset = StudyDataset(engine=engine)
        known_sites = set()
        preamble_skip = 0

    result = ImportResult(dataset_path=dataset_path)
    segment_ranges: list[tuple[str, int, int]] = []
    for info in fresh:
        start = len(dataset.socket_records)
        new_sites, dupes = _replay_segment(info, dataset, known_sites)
        segment_ranges.append(
            (info.segment_id, start, len(dataset.socket_records))
        )
        result.new_sites += new_sites
        result.deduped_sites += dupes
        result.imported_segments.append(info.segment_id)
    result.new_records = len(dataset.socket_records)

    # Write the new dataset to a temp file: recomputed preamble, the
    # old file's record lines verbatim, then the replayed records —
    # hashing lines as they go so the journal entry can name the new
    # fingerprint before the file exists under its final name.
    temp = dataset_path.parent / f".{dataset_path.name}.import.tmp"
    dataset_path.parent.mkdir(parents=True, exist_ok=True)
    hasher = hashlib.sha256()
    base_records = 0
    new_line_hashes = [hashlib.sha256() for _ in segment_ranges]
    try:
        with _plain_temp_open(temp, dataset_path) as handle:
            for payload in dataset_preamble(dataset):
                line = dumps(payload) + "\n"
                handle.write(line)
                hasher.update(line.encode("utf-8"))
            if base_exists:
                skipped = 0
                for line in iter_lines(dataset_path):
                    if skipped < preamble_skip:
                        skipped += 1
                        continue
                    handle.write(line)
                    hasher.update(line.encode("utf-8"))
                    if line.strip():
                        base_records += 1
            for index, (_, start, stop) in enumerate(segment_ranges):
                for record in dataset.socket_records[start:stop]:
                    line = dumps(socket_record_to_json(record)) + "\n"
                    handle.write(line)
                    hasher.update(line.encode("utf-8"))
                    new_line_hashes[index].update(line.encode("utf-8"))
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    result.fingerprint = hasher.hexdigest()
    result.total_records = base_records + result.new_records

    state.entries.append({
        "kind": "import",
        "fingerprint": result.fingerprint,
        "segments": [
            SegmentSlice(
                segment_id=segment_id,
                start=base_records + start,
                stop=base_records + stop,
                lines_sha=new_line_hashes[index].hexdigest(),
            ).to_json()
            for index, (segment_id, start, stop)
            in enumerate(segment_ranges)
        ],
    })
    state.save()
    os.replace(temp, dataset_path)
    fsync_dir(dataset_path.parent)
    return result


@contextmanager
def _plain_temp_open(temp: Path, final: Path) -> Iterator:
    """A text handle on ``temp``, gzip-encoded when ``final`` is .gz.

    Fully fsync'd on clean exit, but *not* renamed — the commit has to
    happen after the journal write, which is why this is not
    :func:`repro.util.atomicio.atomic_open`. ``mtime=0`` on the gzip
    member keeps equal content byte-identical, matching the dataset
    files :func:`repro.util.serialization.write_jsonl` produces.
    """
    raw = open(temp, "wb")
    if final.suffix == ".gz":
        inner = gzip.GzipFile(filename="", fileobj=raw, mode="wb", mtime=0)
    else:
        inner = raw
    text = io.TextIOWrapper(inner, encoding="utf-8")
    try:
        yield text
        text.flush()
        text.detach()
        if inner is not raw:
            inner.close()
        raw.flush()
        os.fsync(raw.fileno())
    finally:
        raw.close()
