"""The spool-backed crawl journal: how an interrupted study resumes.

:class:`SpoolJournal` implements
:class:`repro.crawler.persistence.CrawlJournal` — ``bind`` / ``get``
/ ``record`` / ``__len__`` — so the study runner uses it without
importing the spool; the wiring happens at the composition
root (:func:`repro.experiments.runner.run_study`).

Instead of one flat JSONL file, entries go through a
:class:`~repro.spool.store.SpoolStore`, one spool lane per crawl
(``crawl00`` …). Because the study runner records each crawl's shards
in canonical shard order, replaying segments in ``(lane, seq)`` order
reproduces the canonical per-crawl site order — the property the
importer leans on to keep a crash-resumed dataset byte-identical to an
uninterrupted one.

Two record types live in the spool::

    {"t": "crawl", "index": 0, "label": "vanilla"}
    {"t": "shard", "crawl": 0, "shard": 3, "study": {...},
     "sites": [...], "fold": {...}}

The ``crawl`` record, once per crawl, carries what
:meth:`StudyDataset.record_crawl` needs; it is written lazily before a
crawl's first shard so an untouched crawl leaves no trace. A ``shard``
record holds one row of summary counts per site and the shard's one
dataset fold, never raw page observations — exactly what a resume
restores — and the stamp of the study that wrote it
(:meth:`SpoolJournal.bind`). Every shard record carries the stamp
because quota eviction can delete the segment holding a crawl's
``crawl`` record while later segments of that crawl stay. The journal
keeps the entries it read at open, but not the ones it writes.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from repro.crawler.persistence import JournaledShard
from repro.spool.segment import parse_segment_id, read_segment

if TYPE_CHECKING:
    from repro.spool.store import SpoolStore


class StaleSpoolError(ValueError):
    """The spool was written by a study with different settings.

    Attributes:
        differences: Field name → (the spool's value, this study's).
    """

    def __init__(
        self, root: Path, differences: dict[str, tuple[object, object]]
    ) -> None:
        named = "; ".join(
            f"{name}: spool {journaled!r}, study {wanted!r}"
            for name, (journaled, wanted) in differences.items()
        )
        super().__init__(
            f"spool {root} was written by another study ({named}); "
            "resume it with the same settings or use a fresh spool "
            "directory"
        )
        self.differences = differences


def shard_for_crawl(index: int) -> str:
    """The spool shard name for a crawl lane."""
    return f"crawl{index:02d}"


class SpoolJournal:
    """Crash-safe crawl checkpoint journaled into spool segments."""

    def __init__(
        self, store: "SpoolStore", labels: Mapping[int, str]
    ) -> None:
        self.store = store
        self._labels = dict(labels)
        self._restored: dict[tuple[int, int], JournaledShard] = {}
        self._sites = 0
        self._stamps: list[dict] = []
        self._study: dict | None = None
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
        elif kind == "shard":
            self._stamps.append(payload["study"])
            entry = JournaledShard.from_json(payload)
            self._restored[(entry.crawl, entry.shard)] = entry
            self._sites += len(entry.sites)
        else:
            raise ValueError(f"unknown spool record type {kind!r}")

    def __len__(self) -> int:
        return self._sites

    def bind(self, study: Mapping[str, object]) -> None:
        """Refuse a spool another study wrote; stamp what this one writes.

        Raises :class:`StaleSpoolError` naming every field in which a
        ``shard`` record read at open disagrees with ``study``. Shard
        records written from now on carry ``study``.
        """
        for stamp in self._stamps:
            differences = {
                name: (stamp.get(name), study.get(name))
                for name in sorted(set(stamp) | set(study))
                if stamp.get(name) != study.get(name)
            }
            if differences:
                raise StaleSpoolError(self.store.root, differences)
        self._study = dict(study)

    def get(self, crawl: int, shard: int) -> JournaledShard | None:
        """The entry read at open for a shard, or ``None``."""
        return self._restored.get((crawl, shard))

    def record(self, entry: JournaledShard) -> None:
        """Durably append one finished shard to its crawl's lane.

        Raises ``RuntimeError`` before :meth:`bind`: a shard record
        without its study's stamp would resume into any study.
        """
        if self._study is None:
            raise RuntimeError("bind the journal to its study before "
                               "recording a shard")
        lane = shard_for_crawl(entry.crawl)
        if entry.crawl not in self._crawls_started:
            self._crawls_started.add(entry.crawl)
            label = self._labels.get(entry.crawl, f"crawl-{entry.crawl}")
            self.crawl_labels[entry.crawl] = label
            self.store.append(
                lane, {"t": "crawl", "index": entry.crawl, "label": label}
            )
        self.store.append(
            lane, {"t": "shard", "study": self._study, **entry.to_json()}
        )
        self._sites += len(entry.sites)
