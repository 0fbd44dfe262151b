"""The spool-backed crawl journal: how an interrupted study resumes.

:class:`SpoolJournal` implements
:class:`repro.crawler.persistence.CrawlJournal` — ``get`` /
``covers`` / ``record`` / ``__len__`` — so the crawler and the
parallel executor use it without importing the spool; the wiring
happens at the composition root
(:func:`repro.experiments.runner.run_study`).

Instead of one flat JSONL file, entries go through a
:class:`~repro.spool.store.SpoolStore`, one shard per crawl lane
(``crawl00`` …). Because the accountant records each crawl's sites in
canonical ``(shard, rank)`` order, replaying segments in ``(shard,
seq)`` order reproduces the canonical per-crawl site order — the
property the importer leans on to keep a crash-resumed dataset
byte-identical to an uninterrupted one.

Two record types live in the spool::

    {"t": "crawl", "index": 0, "label": "vanilla"}   # once per crawl
    {"t": "site",  "entry": {...}}                   # one per site

The ``crawl`` record carries what :meth:`StudyDataset.record_crawl`
needs; it is written lazily before a crawl's first site so an
untouched crawl leaves no trace. A ``site`` entry holds the site's
summary counts and its dataset fold, never raw page observations; the
journal keeps the entries it read at open, but not the ones it writes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

from repro.crawler.outcome import SiteOutcome
from repro.crawler.persistence import entry_from_json, entry_to_json
from repro.spool.segment import parse_segment_id, read_segment

if TYPE_CHECKING:
    from repro.spool.store import SpoolStore


def shard_for_crawl(index: int) -> str:
    """The spool shard name for a crawl lane."""
    return f"crawl{index:02d}"


def crawl_for_shard(shard: str) -> int:
    """Inverse of :func:`shard_for_crawl`; raises on foreign shards."""
    if not shard.startswith("crawl"):
        raise ValueError(f"not a crawl shard: {shard!r}")
    return int(shard[len("crawl"):])


class SpoolJournal:
    """Crash-safe crawl checkpoint journaled into spool segments."""

    def __init__(
        self, store: "SpoolStore", labels: Mapping[int, str]
    ) -> None:
        self.store = store
        self._labels = dict(labels)
        self._restored: dict[tuple[int, str], SiteOutcome] = {}
        self._journaled: set[tuple[int, str]] = set()
        self._crawls_started: set[int] = set()
        self.crawl_labels: dict[int, str] = {}
        for info in store.segments():
            shard = parse_segment_id(info.segment_id)[0]
            if not shard.startswith("crawl"):
                continue
            for payload in read_segment(info.path):
                self._restore(payload)
        self._crawls_started.update(self.crawl_labels)

    def _restore(self, payload: dict) -> None:
        kind = payload.get("t")
        if kind == "crawl":
            self.crawl_labels[payload["index"]] = payload["label"]
        elif kind == "site":
            entry = entry_from_json(payload["entry"])
            self._restored[(entry.crawl, entry.domain)] = entry
            self._journaled.add((entry.crawl, entry.domain))
        else:
            raise ValueError(f"unknown spool record type {kind!r}")

    def __len__(self) -> int:
        return len(self._journaled)

    def get(self, crawl: int, domain: str) -> SiteOutcome | None:
        """The entry read at open for a site, or ``None``."""
        return self._restored.get((crawl, domain))

    def covers(self, crawl: int, domains: Iterable[str]) -> bool:
        """Whether every one of ``domains`` is journaled for ``crawl``."""
        return all(
            (crawl, domain) in self._journaled for domain in domains
        )

    def record(self, entry: SiteOutcome) -> None:
        """Durably append one finished site to the crawl's shard."""
        shard = shard_for_crawl(entry.crawl)
        if entry.crawl not in self._crawls_started:
            self._crawls_started.add(entry.crawl)
            label = self._labels.get(entry.crawl, f"crawl-{entry.crawl}")
            self.crawl_labels[entry.crawl] = label
            self.store.append(
                shard, {"t": "crawl", "index": entry.crawl, "label": label}
            )
        self.store.append(shard, {"t": "site", "entry": entry_to_json(entry)})
        self._journaled.add((entry.crawl, entry.domain))
