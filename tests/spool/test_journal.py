"""Unit tests for :class:`SpoolJournal`, the journal a study resumes from.

Each test opens the journal over a spool directory, writes through it,
and reopens it the way a rerun of the same study would.
"""

import pytest

from repro.crawler.outcome import SiteOutcome
from repro.spool import SpoolJournal, SpoolStore, list_segments
from repro.spool.segment import read_segment


def _open(root) -> SpoolJournal:
    return SpoolJournal(SpoolStore.open(root), {0: "Apr 02-05, 2017"})


def _records(root, shard: str) -> list[dict]:
    return [
        payload
        for info in list_segments(root) if info.shard == shard
        for payload in read_segment(info.path)
    ]


def test_journal_round_trips(tmp_path):
    journal = _open(tmp_path)
    assert len(journal) == 0
    entry = SiteOutcome(crawl=1, domain="pub.com", rank=42,
                        pages_visited=15, sockets_observed=3)
    journal.record(entry)
    reopened = _open(tmp_path)
    assert len(reopened) == 1
    assert reopened.get(1, "pub.com") == entry
    assert reopened.get(0, "pub.com") is None
    assert reopened.covers(1, ["pub.com"])
    assert not reopened.covers(1, ["pub.com", "other.com"])
    assert not reopened.covers(0, ["pub.com"])


def test_journal_appends_across_opens(tmp_path):
    first = _open(tmp_path)
    first.record(SiteOutcome(crawl=0, domain="a.com", rank=1,
                             pages_visited=2))
    second = _open(tmp_path)
    second.record(SiteOutcome(crawl=0, domain="b.com", rank=2,
                              quarantined=True, pages_visited=1))
    third = _open(tmp_path)
    assert len(third) == 2
    assert third.get(0, "b.com").quarantined


def test_one_crawl_record_per_shard_across_opens(tmp_path):
    first = _open(tmp_path)
    first.record(SiteOutcome(crawl=0, domain="a.com", rank=1,
                             pages_visited=2))
    first.store.seal_active()
    second = _open(tmp_path)
    assert second.crawl_labels == {0: "Apr 02-05, 2017"}
    second.record(SiteOutcome(crawl=0, domain="b.com", rank=2,
                              pages_visited=2))
    second.record(SiteOutcome(crawl=1, domain="a.com", rank=1,
                              pages_visited=2))
    second.store.seal_active()
    crawl0 = [r["t"] for r in _records(tmp_path, "crawl00")]
    crawl1 = [r["t"] for r in _records(tmp_path, "crawl01")]
    assert crawl0 == ["crawl", "site", "site"]
    assert crawl1 == ["crawl", "site"]
    # A crawl with no label falls back to a numbered one.
    assert _records(tmp_path, "crawl01")[0]["label"] == "crawl-1"


def test_unknown_record_type_is_rejected(tmp_path):
    store = SpoolStore.open(tmp_path)
    store.append("crawl00", {"t": "bogus"})
    store.seal_active()
    with pytest.raises(ValueError, match="unknown spool record type"):
        _open(tmp_path)


def test_foreign_shards_are_ignored(tmp_path):
    store = SpoolStore.open(tmp_path)
    store.append("other", {"t": "bogus"})
    store.seal_active()
    journal = _open(tmp_path)
    assert len(journal) == 0
    assert journal.crawl_labels == {}
