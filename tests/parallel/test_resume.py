"""Journal resume at the study level: kill mid-crawl, resume, compare.

The resume bug this pins: restored shards must merge their journaled
dataset folds (labeled where they were crawled; no page observation
is journaled), or a resumed study silently loses every socket the
pre-kill crawl observed and each derived table under-counts. The tests
kill a run partway through (in the accountant's replay, and while a
later shard is still crawling), resume it, and compare the resumed
dataset against an uninterrupted run by its fingerprint — the hash of
every byte ``save_dataset`` writes: socket records, tag counts, chain
signatures, HTTP counters, Cloudfront adjacency and page counts.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.crawler.crawler import CrawlAccountant, Crawler
from repro.crawler.persistence import dataset_fingerprint
from repro.experiments.runner import run_crawls
from repro.obs import Obs
from repro.parallel import DEFAULT_SHARD_SIZE
from repro.spool import SpoolJournal, SpoolStore
from tests.conftest import TINY_STUDY_CONFIG

CONFIG = dataclasses.replace(TINY_STUDY_CONFIG, crawls=(0,),
                             faults="flaky")
KILL_AFTER = 100  # > one full shard, < the seed list


def _journal(root) -> SpoolJournal:
    return SpoolJournal(SpoolStore.open(root), {})


def _spool_bytes(root) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in root.iterdir()}


class _Killed(RuntimeError):
    pass


@pytest.fixture(scope="module")
def resumed(tiny_web, tmp_path_factory):
    """Kill a journaled run mid-crawl, then resume it."""
    tmp = tmp_path_factory.mktemp("resume")
    journal = tmp / "spool"
    real = CrawlAccountant.record_site
    done = 0

    def dying(self, outcome):
        nonlocal done
        if done >= KILL_AFTER:
            raise _Killed(outcome.domain)
        done += 1
        real(self, outcome)

    CrawlAccountant.record_site = dying
    try:
        with pytest.raises(_Killed):
            run_crawls(tiny_web, CONFIG,
                       checkpoint=_journal(journal))
    finally:
        CrawlAccountant.record_site = real
    assert len(_journal(journal)) == DEFAULT_SHARD_SIZE
    dataset, summaries = run_crawls(tiny_web, CONFIG,
                                    checkpoint=_journal(journal))
    return {"journal": journal, "dataset": dataset,
            "summaries": summaries}


@pytest.fixture(scope="module")
def uninterrupted(tiny_web):
    dataset, summaries = run_crawls(tiny_web, CONFIG)
    return {"dataset": dataset, "summaries": summaries}


def _assert_same_run(run, reference):
    assert ([dataclasses.asdict(s) for s in run["summaries"]]
            == [dataclasses.asdict(s) for s in reference["summaries"]])
    assert (dataset_fingerprint(run["dataset"])
            == dataset_fingerprint(reference["dataset"]))


def test_resumed_run_matches_uninterrupted(resumed, uninterrupted):
    _assert_same_run(resumed, uninterrupted)


def test_kill_while_crawling_keeps_merged_shards(
    tiny_web, tmp_path, monkeypatch, uninterrupted
):
    """Each shard is merged and journaled as soon as it is crawled, so
    a run killed inside the second shard's crawl has already journaled
    the whole first shard — and resumes from it to the same result."""
    real = Crawler.crawl_site
    crawled = 0

    def dying(self, site, *args, **kwargs):
        nonlocal crawled
        if crawled >= KILL_AFTER:
            raise _Killed(site.domain)
        crawled += 1
        return real(self, site, *args, **kwargs)

    monkeypatch.setattr(Crawler, "crawl_site", dying)
    with pytest.raises(_Killed):
        run_crawls(tiny_web, CONFIG, checkpoint=_journal(tmp_path))
    monkeypatch.undo()
    assert DEFAULT_SHARD_SIZE < KILL_AFTER < 2 * DEFAULT_SHARD_SIZE
    assert len(_journal(tmp_path)) >= DEFAULT_SHARD_SIZE
    dataset, summaries = run_crawls(tiny_web, CONFIG,
                                    checkpoint=_journal(tmp_path))
    _assert_same_run({"dataset": dataset, "summaries": summaries},
                     uninterrupted)


def test_fully_restored_run_emits_final_progress(tiny_web, resumed):
    """The end-of-crawl ``crawl.progress`` event fires even when every
    site came from the journal and the in-loop modulo never ran — and
    the fully restored run journals nothing."""
    obs = Obs()
    # Opening the journal seals the previous run's open segment, so
    # snapshot the spool only after it is open.
    journal = _journal(resumed["journal"])
    spool_bytes = _spool_bytes(resumed["journal"])
    dataset, summaries = run_crawls(
        tiny_web, CONFIG, obs=obs, checkpoint=journal,
    )
    assert _spool_bytes(resumed["journal"]) == spool_bytes
    assert summaries[0].sites_visited == len(tiny_web.seed_list.sites)
    progress = [e for e in obs.summary().events
                if e.name == "crawl.progress"]
    # Restoration opens no site spans and emits no in-loop progress;
    # the unconditional final event is the only one — and it reports
    # the complete crawl.
    assert len(progress) == 1
    assert progress[0].attrs["sites_done"] == len(tiny_web.seed_list.sites)
    assert progress[0].attrs["sites_total"] == len(tiny_web.seed_list.sites)
    assert (dataset_fingerprint(dataset)
            == dataset_fingerprint(resumed["dataset"]))
