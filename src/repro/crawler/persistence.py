"""Archiving the study dataset — the study's primary artifact.

The original study archived raw crawl output; the compact equivalent
here is the *dataset file*: a JSONL header (typed metadata), the
dataset's aggregate counters, then every socket record — everything
``repro analyze`` needs to recompute Tables 1–5, Figure 3, and the
prose statistics without re-crawling (:func:`save_dataset` /
:func:`open_dataset`). :func:`dataset_fingerprint` hashes the exact
byte stream :func:`save_dataset` writes, so a live dataset and its
saved file share one content address for the stage cache, and
:class:`SegmentSlice` content-addresses a record range of one.

This module also holds the crawl journal's entry codec (a finished
shard, :class:`JournaledShard`: one row per site's
:class:`~repro.crawler.outcome.SiteOutcome` and the shard's one fold,
written with the dataset file's aggregate and socket-record encoders)
and the interface a study resumes from (:class:`CrawlJournal`);
:class:`repro.spool.SpoolJournal` is the journal that implements it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Protocol

from repro.content.ads import AdUnit
from repro.content.items import ReceivedClass, SentItem
from repro.crawler.dataset import (
    ChainSignature,
    CrawlMeta,
    DatasetMeta,
    SocketRecord,
    StudyDataset,
)
from repro.crawler.outcome import SiteOutcome
from repro.labeling.aa_labeler import DomainTagCounter
from repro.labeling.cloudfront import CloudfrontMapper
from repro.util.serialization import (
    dumps,
    iter_lines,
    read_jsonl,
    write_jsonl,
)

if TYPE_CHECKING:
    from repro.filters import CompiledFilterEngine

DATASET_FORMAT = "repro.dataset"
DATASET_VERSION = 2


class DatasetError(ValueError):
    """A dataset file is missing, malformed, or an unsupported version."""


def socket_record_to_json(record: SocketRecord) -> dict:
    """Encode one socket record as a JSON-able dict."""
    return {
        "crawl": record.crawl,
        "site": record.site_domain,
        "rank": record.rank,
        "page": record.page_url,
        "socket_host": record.socket_host,
        "initiator_host": record.initiator_host,
        "initiator_url": record.initiator_url,
        "chain_hosts": list(record.chain_hosts),
        "chain_script_urls": list(record.chain_script_urls),
        "first_party_host": record.first_party_host,
        "cross_origin": record.cross_origin,
        "handshake_cookie": record.handshake_cookie,
        "sent_items": sorted(item.value for item in record.sent_items),
        "received_classes": sorted(
            cls.value for cls in record.received_classes
        ),
        "sent_nothing": record.sent_nothing,
        "received_nothing": record.received_nothing,
        "partial": record.partial,
        "ad_units": [
            {"image_url": u.image_url, "caption": u.caption,
             "width": u.width, "height": u.height,
             "click_url": u.click_url}
            for u in record.ad_units
        ],
    }


def socket_record_from_json(payload: dict) -> SocketRecord:
    """Decode one socket record."""
    return SocketRecord(
        crawl=payload["crawl"],
        site_domain=payload["site"],
        rank=payload["rank"],
        page_url=payload["page"],
        socket_host=payload["socket_host"],
        initiator_host=payload["initiator_host"],
        initiator_url=payload["initiator_url"],
        chain_hosts=tuple(payload["chain_hosts"]),
        chain_script_urls=tuple(payload["chain_script_urls"]),
        first_party_host=payload["first_party_host"],
        cross_origin=payload["cross_origin"],
        handshake_cookie=payload["handshake_cookie"],
        sent_items=frozenset(
            SentItem(value) for value in payload["sent_items"]
        ),
        received_classes=frozenset(
            ReceivedClass(value) for value in payload["received_classes"]
        ),
        sent_nothing=payload["sent_nothing"],
        received_nothing=payload["received_nothing"],
        # Records written before the completeness flag existed are
        # complete by construction.
        partial=payload.get("partial", False),
        ad_units=tuple(
            AdUnit(**unit) for unit in payload.get("ad_units", ())
        ),
    )


def save_socket_records(
    path: str | Path, records: Iterable[SocketRecord]
) -> int:
    """Write socket records to JSONL (``.gz`` supported); returns count."""
    return write_jsonl(path, (socket_record_to_json(r) for r in records))


def load_socket_records(path: str | Path) -> list[SocketRecord]:
    """Read socket records back from JSONL.

    Works on both bare record files and v2 dataset files (header and
    aggregate lines — the ones carrying a ``kind`` key — are skipped).
    """
    return [
        socket_record_from_json(payload)
        for payload in read_jsonl(path)
        if "kind" not in payload
    ]


# -- the dataset file (v2) -------------------------------------------------


def _meta_to_json(meta: DatasetMeta) -> dict:
    return {
        "crawls": [
            {
                "index": crawl.index,
                "label": crawl.label,
                "sites": [[domain, rank] for domain, rank in crawl.sites],
                "pages": crawl.pages,
            }
            for crawl in meta.crawls
        ],
    }


def _meta_from_json(payload: dict) -> DatasetMeta:
    return DatasetMeta(crawls=tuple(
        CrawlMeta(
            index=crawl["index"],
            label=crawl["label"],
            sites=tuple((domain, rank) for domain, rank in crawl["sites"]),
            pages=crawl["pages"],
        )
        for crawl in payload["crawls"]
    ))


def _item_counter_to_json(bucket: Counter) -> dict:
    return {
        item.value: count
        for item, count in sorted(
            bucket.items(), key=lambda kv: kv[0].value
        )
    }


def _count_lines(dataset: StudyDataset) -> list[dict]:
    """The tag, Cloudfront and HTTP aggregate lines."""
    return [
        {
            "kind": "tags",
            "aa": dict(dataset.tag_counter.aa),
            "non_aa": dict(dataset.tag_counter.non_aa),
        },
        {
            "kind": "cloudfront",
            "adjacency": {
                host: dict(counter)
                for host, counter in dataset.cf_mapper.adjacency.items()
            },
        },
        {
            "kind": "http",
            "requests": dict(dataset.http_requests_by_host),
            "items": {
                host: _item_counter_to_json(bucket)
                for host, bucket in dataset.http_items_by_host.items()
            },
            "received": {
                host: _item_counter_to_json(bucket)
                for host, bucket in dataset.http_received_by_host.items()
            },
        },
    ]


#: A chain signature row's fields, in order: the journal stores rows,
#: and a dataset file's ``kind: chain`` line names the same fields.
_CHAIN_FIELDS = ("hosts", "script_urls", "leaf_host", "leaf_is_script",
                 "count")


def _chain_rows(dataset: StudyDataset) -> list[list]:
    return [
        [list(signature.hosts), list(signature.script_urls),
         signature.leaf_host, signature.leaf_is_script, count]
        for signature, count in dataset.chain_signatures.items()
    ]


def _add_chain_row(dataset: StudyDataset, row: list) -> None:
    hosts, script_urls, leaf_host, leaf_is_script, count = row
    dataset.chain_signatures[ChainSignature(
        hosts=tuple(hosts),
        script_urls=tuple(script_urls),
        leaf_host=leaf_host,
        leaf_is_script=leaf_is_script,
    )] += count


def _add_aggregate(dataset: StudyDataset, payload: dict) -> None:
    """Add one aggregate line's counts into ``dataset``.

    Inverts :func:`dataset_preamble` line by line; unknown kinds are
    skipped.
    """
    kind = payload["kind"]
    if kind == "tags":
        dataset.tag_counter.merge(
            DomainTagCounter(aa=payload["aa"], non_aa=payload["non_aa"])
        )
    elif kind == "cloudfront":
        dataset.cf_mapper.merge(CloudfrontMapper(payload["adjacency"]))
    elif kind == "http":
        dataset.http_requests_by_host.update(payload["requests"])
        for target, field_name, decode in (
            (dataset.http_items_by_host, "items", SentItem),
            (dataset.http_received_by_host, "received", ReceivedClass),
        ):
            for host, counts in payload[field_name].items():
                target.setdefault(host, Counter()).update({
                    decode(value): count for value, count in counts.items()
                })
    elif kind == "chain":
        _add_chain_row(dataset, [payload[name] for name in _CHAIN_FIELDS])


def dataset_preamble(dataset: StudyDataset) -> list[dict]:
    """The header and aggregate lines preceding the socket records.

    Chain signatures get one ``kind: chain`` line each rather than one
    aggregate line: the chain population grows with pages crawled, and
    a single multi-megabyte JSON line would dominate the reader's
    transient memory (the whole point of streaming re-analysis is that
    nothing scales with crawl volume at parse time).
    """
    rows = sorted(_chain_rows(dataset),
                  key=lambda row: (row[2], row[0], row[1], row[3]))
    return [
        {
            "kind": "header",
            "format": DATASET_FORMAT,
            "version": DATASET_VERSION,
            "meta": _meta_to_json(dataset.meta),
        },
    ] + _count_lines(dataset) + [
        {"kind": "chain", **dict(zip(_CHAIN_FIELDS, row))} for row in rows
    ]


def _dataset_records(dataset: StudyDataset) -> Iterator[dict]:
    """Every JSONL line of the dataset file, in order."""
    return itertools.chain(
        dataset_preamble(dataset),
        (socket_record_to_json(r) for r in dataset.socket_records),
    )


def save_dataset(path: str | Path, dataset: StudyDataset) -> int:
    """Write the full dataset file; returns the socket-record count.

    The byte stream is canonical (compact JSON, sorted keys), so the
    file's fingerprint equals :func:`dataset_fingerprint` of the live
    dataset and two saves of equal datasets are byte-identical.
    """
    lines = write_jsonl(path, _dataset_records(dataset))
    return lines - 4 - len(dataset.chain_signatures)


def dataset_fingerprint(dataset: StudyDataset) -> str:
    """SHA-256 of the byte stream :func:`save_dataset` would write."""
    hasher = hashlib.sha256()
    for record in _dataset_records(dataset):
        hasher.update(dumps(record).encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def file_fingerprint(path: str | Path) -> str:
    """SHA-256 of a dataset file's (decompressed) bytes.

    Equals :func:`dataset_fingerprint` of the dataset the file was
    saved from; hashing the decoded text keeps ``.gz`` files and their
    plain twins interchangeable.
    """
    hasher = hashlib.sha256()
    for line in iter_lines(path):
        hasher.update(line.encode("utf-8"))
    return hasher.hexdigest()


@dataclass(frozen=True)
class SegmentSlice:
    """One contiguous record range of a dataset file, content-addressed.

    The spool importer appends each imported segment's records as a
    contiguous run of dataset lines and journals the run as a slice:
    the record-index range ``[start, stop)`` (``stop=None``: through
    the last record) plus ``lines_sha``, the SHA-256 over those
    records' canonical JSONL lines, newlines included — the hash
    :meth:`DatasetReader.record_range_sha` computes for any range. The
    hash, not the segment file (which may since have been
    quota-evicted), addresses the slice's cached per-stage analysis
    state, so incremental analysis keeps working after the spool
    itself is gone. ``to_json``/``from_json`` are the import journal's
    slice codec.
    """

    segment_id: str
    start: int
    stop: int | None
    lines_sha: str

    def to_json(self) -> dict:
        return {
            "id": self.segment_id,
            "start": self.start,
            "stop": self.stop,
            "lines_sha": self.lines_sha,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "SegmentSlice":
        return cls(
            segment_id=payload["id"],
            start=payload["start"],
            stop=payload["stop"],
            lines_sha=payload["lines_sha"],
        )


class DatasetReader:
    """Streaming reader over a saved v2 dataset file.

    Loading the reader parses only the header and aggregate lines into
    an otherwise-empty :class:`StudyDataset` (labeler derivation, the
    Table 5 HTTP half, and the §4.2 chain population all come from
    those aggregates); socket records are re-yielded from disk on each
    :meth:`iter_records` call, so analysis memory stays bounded by the
    aggregates, never the record count.
    """

    def __init__(
        self, path: str | Path, engine: "CompiledFilterEngine | None" = None
    ) -> None:
        self.path = Path(path)
        if not self.path.exists():
            raise DatasetError(f"no such dataset file: {self.path}")
        if engine is None:
            # The filter engine is scale-independent: it is built from
            # the full registry regardless of crawl sample, so a saved
            # dataset re-analyzes against the same rules it was
            # crawled under.
            from repro.web.filterlists import build_filter_engine
            from repro.web.registry import default_registry

            engine = build_filter_engine(default_registry())
        self.meta, self.dataset = self._load_preamble(engine)
        #: Torn trailing records skipped by the last ``iter_records``
        #: pass — 0 or 1 by construction.
        self.torn_tail_skipped = 0

    def _load_preamble(
        self, engine: "CompiledFilterEngine"
    ) -> tuple[DatasetMeta, StudyDataset]:
        header: dict | None = None
        dataset: StudyDataset | None = None
        # Lines before the first socket record; iter_records skips
        # them without re-parsing (the aggregate lines are large).
        self._preamble_lines = 0
        for line in iter_lines(self.path):
            stripped = line.strip()
            if not stripped:
                self._preamble_lines += 1
                continue
            payload = json.loads(stripped)
            kind = payload.get("kind") if isinstance(payload, dict) else None
            if header is None:
                if kind != "header" or payload.get("format") != DATASET_FORMAT:
                    raise DatasetError(
                        f"{self.path} is not a {DATASET_FORMAT} file "
                        "(no header line); re-export it with "
                        "`repro study --dataset-out`"
                    )
                if payload.get("version") != DATASET_VERSION:
                    raise DatasetError(
                        f"{self.path} is dataset version "
                        f"{payload.get('version')}; this build reads "
                        f"version {DATASET_VERSION}"
                    )
                header = payload
                dataset = StudyDataset(engine=engine)
                self._preamble_lines += 1
                continue
            if kind is None:
                break  # the socket records start here
            # Added as parsed: holding every aggregate line's raw dict
            # alongside the converted counters would double the
            # reader's peak memory.
            _add_aggregate(dataset, payload)
            self._preamble_lines += 1
        if header is None:
            raise DatasetError(f"{self.path} is empty")
        meta = _meta_from_json(header["meta"])
        for crawl in meta.crawls:
            dataset.crawl_sites[crawl.index] = list(crawl.sites)
            dataset.crawl_labels[crawl.index] = crawl.label
            if crawl.pages:
                dataset.crawl_pages[crawl.index] = crawl.pages
        return meta, dataset

    @property
    def preamble_lines(self) -> int:
        """Lines before the first socket record (header + aggregates)."""
        return self._preamble_lines

    def iter_records(
        self, start: int = 0, stop: int | None = None
    ) -> Iterator[SocketRecord]:
        """Stream socket records ``start`` ≤ index < ``stop``, in file order.

        The preamble prefix is skipped by line count, unparsed — the
        aggregate lines are the file's largest and re-decoding them on
        every pass would dominate the sweep's transient memory.

        A torn *final* line (no trailing newline, undecodable — the
        signature of a write cut off mid-record) is skipped and counted
        in :attr:`torn_tail_skipped` instead of crashing the sweep;
        any earlier undecodable line raises :class:`DatasetError`
        naming its 1-based line number, since damage *inside* the file
        cannot be explained by truncation.

        Lines before ``start`` are counted without being decoded (the
        record region holds one record per non-blank line — a writer
        invariant of both :func:`save_dataset` and the spool importer),
        so a ranged read of the file's tail costs O(range) decode work,
        not O(file). Validation consequently covers only the decoded
        range.
        """
        self.torn_tail_skipped = 0
        lines = iter_lines(self.path)
        line_number = 0
        for _ in range(self._preamble_lines):
            next(lines, None)
            line_number += 1
        index = 0
        pending: tuple[int, str, Exception] | None = None
        for line in lines:
            line_number += 1
            if pending is not None:
                number, _, error = pending
                raise DatasetError(
                    f"{self.path}:{number}: undecodable socket record "
                    f"({error})"
                )
            stripped = line.strip()
            if not stripped:
                continue
            if index < start:
                index += 1
                continue
            try:
                payload = json.loads(stripped)
                if not isinstance(payload, dict):
                    raise ValueError(
                        f"record is {type(payload).__name__}, not an object"
                    )
                if "kind" in payload:
                    continue
                record = socket_record_from_json(payload)
            except (ValueError, KeyError, TypeError) as error:
                # Defer: only raise if another line follows. A bad
                # FINAL line is a torn tail from an interrupted write
                # and is skipped (exactly one); a bad interior line is
                # corruption and must stop the sweep.
                pending = (line_number, stripped, error)
                continue
            if index >= start and (stop is None or index < stop):
                yield record
            index += 1
            if stop is not None and index >= stop:
                return
        if pending is not None:
            self.torn_tail_skipped = 1

    def record_range_sha(
        self, start: int = 0, stop: int | None = None
    ) -> tuple[int, str]:
        """(count, SHA-256) of the record lines ``start`` ≤ i < ``stop``.

        Hashes each record's canonical line (newline included) — the
        same content address the spool import journal stores per
        imported slice — so ``repro analyze --incremental`` can mint
        matching state keys for dataset regions that predate the
        journal (gap-fill base slices). A torn final line is excluded,
        mirroring :meth:`iter_records`.
        """
        lines = iter_lines(self.path)
        for _ in range(self._preamble_lines):
            next(lines, None)
        hasher = hashlib.sha256()
        index = 0
        held: str | None = None
        for line in lines:
            stripped = line.strip()
            if not stripped:
                continue
            if held is not None:
                # The held line has a successor, so it was a real
                # interior record; commit it.
                if index >= start and (stop is None or index < stop):
                    hasher.update((held + "\n").encode("utf-8"))
                index += 1
                if stop is not None and index >= stop:
                    return index - start, hasher.hexdigest()
            held = stripped
        if held is not None:
            try:
                payload = json.loads(held)
                decodable = isinstance(payload, dict)
            except ValueError:
                decodable = False
            if decodable:
                if index >= start and (stop is None or index < stop):
                    hasher.update((held + "\n").encode("utf-8"))
                index += 1
        limit = index if stop is None else min(index, stop)
        return max(0, limit - start), hasher.hexdigest()

    def fingerprint(self) -> str:
        """The file's content address (see :func:`file_fingerprint`)."""
        return file_fingerprint(self.path)


def open_dataset(
    path: str | Path, engine: "CompiledFilterEngine | None" = None
) -> DatasetReader:
    """Open a saved dataset file for streaming re-analysis."""
    return DatasetReader(path, engine=engine)


# -- checkpoint journal ---------------------------------------------------


def fold_to_json(fold: StudyDataset) -> dict:
    """Encode a page fold with the dataset file's encoders.

    Chain signatures go as rows: spelling out their field names would
    take a third of the journal's bytes. Engine and stats are left out.
    """
    return {
        "pages": sorted(fold.crawl_pages.items()),
        "aggregates": _count_lines(fold),
        "chains": _chain_rows(fold),
        "records": [socket_record_to_json(r) for r in fold.socket_records],
    }


def fold_from_json(payload: dict) -> StudyDataset:
    """Decode :func:`fold_to_json` into an engine-less partial."""
    fold = StudyDataset(engine=None)
    fold.crawl_pages.update(dict(payload["pages"]))
    for line in payload["aggregates"]:
        _add_aggregate(fold, line)
    for row in payload["chains"]:
        _add_chain_row(fold, row)
    fold.socket_records.extend(
        socket_record_from_json(record) for record in payload["records"]
    )
    return fold


def entry_to_json(entry: SiteOutcome) -> dict:
    """Encode a finished site's row (its page tallies stay out)."""
    return {
        "crawl": entry.crawl,
        "domain": entry.domain,
        "rank": entry.rank,
        "status": "quarantined" if entry.quarantined else "ok",
        "pages": entry.pages_visited,
        "sockets": entry.sockets_observed,
        "pages_failed": entry.pages_failed,
        "page_retries": entry.page_retries,
        "sockets_partial": entry.sockets_partial,
        "events_published": entry.events_published,
        "errors": entry.errors,
    }


def entry_from_json(payload: dict) -> SiteOutcome:
    return SiteOutcome(
        crawl=payload["crawl"],
        domain=payload["domain"],
        rank=payload["rank"],
        quarantined=payload["status"] == "quarantined",
        pages_visited=payload["pages"],
        sockets_observed=payload["sockets"],
        pages_failed=payload["pages_failed"],
        page_retries=payload["page_retries"],
        sockets_partial=payload["sockets_partial"],
        events_published=payload["events_published"],
        errors=payload["errors"],
    )


@dataclass
class JournaledShard:
    """One finished (crawl, shard) as the journal keeps it.

    Attributes:
        crawl: Crawl index.
        shard: Shard index within the crawl's seed-list plan.
        sites: One outcome per site, in rank order, without page
            tallies (a journaled site replays no spans).
        fold: Every page of the shard folded into one dataset partial,
            labeled by the shard that crawled it.
    """

    crawl: int
    shard: int
    sites: list[SiteOutcome]
    fold: StudyDataset

    def to_json(self) -> dict:
        return {
            "crawl": self.crawl,
            "shard": self.shard,
            "sites": [entry_to_json(site) for site in self.sites],
            "fold": fold_to_json(self.fold),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "JournaledShard":
        return cls(
            crawl=payload["crawl"],
            shard=payload["shard"],
            sites=[entry_from_json(row) for row in payload["sites"]],
            fold=fold_from_json(payload["fold"]),
        )


class CrawlJournal(Protocol):
    """A resumable record of per-shard crawl completion.

    The unit of resume is the shard, because a shard's lane state (its
    fault stream, its sim clock) cannot be rebuilt halfway: a study
    restores each journaled shard (its sites' counts into the run
    summary, its fold into the dataset), re-crawls every other shard
    whole, and records one entry per newly finished shard.
    :class:`repro.spool.SpoolJournal` is the implementation; the
    study runner only depends on this interface, never on the spool.
    """

    def __len__(self) -> int:
        """Sites journaled, over every shard."""

    def bind(self, study: Mapping[str, object]) -> None:
        """Tie the journal to the study about to resume from it.

        Raises ``ValueError`` when an earlier run journaled under a
        different ``study`` stamp: its shards are not this study's.
        """

    def get(self, crawl: int, shard: int) -> JournaledShard | None:
        """The entry an earlier run journaled for a shard, or ``None``.

        Entries recorded through this journal are not held in memory:
        they exist for the next run to resume from.
        """

    def record(self, entry: JournaledShard) -> None:
        """Durably append one finished shard."""
