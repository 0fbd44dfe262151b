"""Journal resume at the study level: kill mid-crawl, resume, compare.

The resume bug this pins: restored sites must replay their journaled
observations into the dataset observers, or a resumed study silently
loses every socket the pre-kill crawl observed and each derived table
under-counts. The tests kill a run partway through (after at least one
full shard so restoration actually happens), resume it, and compare
the resumed dataset against an uninterrupted run by its fingerprint —
the hash of every byte ``save_dataset`` writes: socket records, tag
counts, chain signatures, HTTP counters, Cloudfront adjacency and page
counts.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.crawler.crawler import CrawlAccountant
from repro.crawler.persistence import dataset_fingerprint
from repro.experiments.runner import run_crawls
from repro.obs import Obs
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
    assert KILL_AFTER <= len(_journal(journal)) < len(
        tiny_web.seed_list.sites
    )
    dataset, summaries = run_crawls(tiny_web, CONFIG,
                                    checkpoint=_journal(journal))
    return {"journal": journal, "dataset": dataset,
            "summaries": summaries}


def test_resumed_run_matches_uninterrupted(tiny_web, resumed):
    dataset, summaries = run_crawls(tiny_web, CONFIG)
    assert ([dataclasses.asdict(s) for s in resumed["summaries"]]
            == [dataclasses.asdict(s) for s in summaries])
    assert (dataset_fingerprint(resumed["dataset"])
            == dataset_fingerprint(dataset))


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
