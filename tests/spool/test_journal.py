"""Unit tests for :class:`SpoolJournal`, the journal a study resumes from.

Each test opens the journal over a spool directory, writes through it,
and reopens it the way a rerun of the same study would.
"""

import pytest

from repro.crawler.dataset import StudyDataset
from repro.crawler.outcome import SiteOutcome
from repro.crawler.persistence import JournaledShard
from repro.spool import (
    SpoolJournal,
    SpoolStore,
    StaleSpoolError,
    list_segments,
)
from repro.spool.segment import read_segment


STUDY = {"seed": 2017, "faults": "none", "pages_per_site": 2}


def _open(root, study=STUDY) -> SpoolJournal:
    journal = SpoolJournal(SpoolStore.open(root), {0: "Apr 02-05, 2017"})
    journal.bind(study)
    return journal


def _shard(shard: int, *sites: SiteOutcome) -> JournaledShard:
    return JournaledShard(sites[0].crawl, shard, list(sites),
                          StudyDataset(engine=None))


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
    journal.record(_shard(0, entry))
    reopened = _open(tmp_path)
    assert len(reopened) == 1
    assert reopened.get(1, 0).sites == [entry]
    assert reopened.get(0, 0) is None
    assert reopened.get(1, 0) is not None
    assert reopened.get(1, 1) is None


def test_journal_appends_across_opens(tmp_path):
    first = _open(tmp_path)
    first.record(_shard(0, SiteOutcome(crawl=0, domain="a.com", rank=1,
                                       pages_visited=2)))
    second = _open(tmp_path)
    second.record(_shard(1, SiteOutcome(crawl=0, domain="b.com", rank=2,
                                        quarantined=True, pages_visited=1)))
    third = _open(tmp_path)
    assert len(third) == 2
    assert third.get(0, 1).sites[0].quarantined


def test_one_crawl_record_per_shard_across_opens(tmp_path):
    first = _open(tmp_path)
    first.record(_shard(0, SiteOutcome(crawl=0, domain="a.com", rank=1,
                                       pages_visited=2)))
    first.store.seal_active()
    second = _open(tmp_path)
    assert second.crawl_labels == {0: "Apr 02-05, 2017"}
    second.record(_shard(1, SiteOutcome(crawl=0, domain="b.com", rank=2,
                                        pages_visited=2)))
    second.record(_shard(0, SiteOutcome(crawl=1, domain="a.com", rank=1,
                                        pages_visited=2)))
    second.store.seal_active()
    crawl0 = [r["t"] for r in _records(tmp_path, "crawl00")]
    crawl1 = [r["t"] for r in _records(tmp_path, "crawl01")]
    assert crawl0 == ["crawl", "shard", "shard"]
    assert crawl1 == ["crawl", "shard"]
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


def test_bind_refuses_a_spool_another_study_wrote(tmp_path):
    _open(tmp_path).record(
        _shard(0, SiteOutcome(crawl=0, domain="a.com", rank=1))
    )
    crawl, shard = _records(tmp_path, "crawl00")
    assert "study" not in crawl and shard["study"] == STUDY
    _open(tmp_path)  # the same study resumes
    other = {**STUDY, "faults": "flaky", "pages_per_site": 3}
    with pytest.raises(StaleSpoolError) as refused:
        _open(tmp_path, other)
    assert refused.value.differences == {
        "faults": ("none", "flaky"), "pages_per_site": (2, 3),
    }
    assert "faults: spool 'none', study 'flaky'" in str(refused.value)


def test_record_before_bind_is_refused(tmp_path):
    journal = SpoolJournal(SpoolStore.open(tmp_path), {})
    with pytest.raises(RuntimeError, match="bind the journal"):
        journal.record(_shard(0, SiteOutcome(crawl=0, domain="a.com",
                                             rank=1)))
    assert list_segments(tmp_path) == []
