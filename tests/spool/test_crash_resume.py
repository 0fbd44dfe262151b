"""End-to-end crash → recover → resume → import byte-identity.

The crash is simulated the way a real ``kill -9`` leaves the disk:
the spool of a finished study is rolled back to a snapshot taken
mid-crawl — earlier crawls sealed, the in-flight crawl's segment cut
at an arbitrary byte and still ``.open``, later crawls absent — or
the study is stopped from inside the crawl itself. A rerun over that
spool must recover, resume only the missing shards, and import to
exactly the uninterrupted dataset — under the clean profile and under
``flaky`` faults alike.
"""

from __future__ import annotations

import shutil

import pytest

from repro.crawler.crawler import Crawler
from repro.crawler.persistence import dataset_fingerprint, file_fingerprint
from repro.experiments.runner import run_study
from repro.parallel import plan_shards
from repro.spool.importer import import_spool
from repro.spool.segment import OPEN_SUFFIX, list_segments, read_segment

from tests.spool.conftest import SPOOL_STUDY_CONFIG


def crash_snapshot(src, dst, cut_shard="crawl02", cut_fraction=0.61):
    """Roll a sealed spool back to a simulated mid-``cut_shard`` crash."""
    dst.mkdir(parents=True)
    for info in list_segments(src):
        if info.shard < cut_shard:
            shutil.copy2(info.path, dst / info.path.name)
        elif info.shard == cut_shard:
            data = info.path.read_bytes()
            cut = max(1, int(len(data) * cut_fraction))
            torn = dst / (info.path.stem + OPEN_SUFFIX)
            torn.write_bytes(data[:cut])
        # Later shards: the crash happened before they started.


@pytest.mark.parametrize("faults", ["none", "flaky"])
def test_crash_resume_import_is_byte_identical(faults, tmp_path):
    config = SPOOL_STUDY_CONFIG.with_faults(faults)

    base_spool = tmp_path / "base-spool"
    base = run_study(config, spool_dir=base_spool)
    base_dataset = tmp_path / "base-dataset.jsonl"
    import_spool(base_spool, base_dataset)
    expected = file_fingerprint(base_dataset)
    assert expected == dataset_fingerprint(base.dataset)

    crashed_spool = tmp_path / "crashed-spool"
    crash_snapshot(base_spool, crashed_spool)

    resumed = run_study(config, spool_dir=crashed_spool)
    # The resumed in-memory dataset is already identical...
    assert dataset_fingerprint(resumed.dataset) == expected
    # ...and so is the dataset imported from the resumed spool.
    resumed_dataset = tmp_path / "resumed-dataset.jsonl"
    result = import_spool(crashed_spool, resumed_dataset)
    assert file_fingerprint(resumed_dataset) == expected
    assert result.fingerprint == expected
    # A resume journals only the shards it crawled, so the import
    # holds every record once.
    assert result.new_records == len(base.dataset.socket_records)


class _Killed(RuntimeError):
    pass


def test_killed_study_journals_each_shard_once(
    spooled, tmp_path, monkeypatch
):
    """Stopped inside crawl 1's second shard and resumed, a spooled
    study holds exactly one ``shard`` record per (crawl, shard) — the
    shard in flight is never journaled in part — and imports to the
    uninterrupted dataset."""
    _root, reference = spooled
    sites = reference.web.seed_list.sites
    kill_after = len(sites) + 100  # crawl 1, sites 64..127
    real = Crawler.crawl_site
    crawled = 0

    def dying(self, site, *args, **kwargs):
        nonlocal crawled
        if crawled >= kill_after:
            raise _Killed(site.domain)
        crawled += 1
        return real(self, site, *args, **kwargs)

    spool = tmp_path / "spool"
    monkeypatch.setattr(Crawler, "crawl_site", dying)
    with pytest.raises(_Killed):
        run_study(SPOOL_STUDY_CONFIG, spool_dir=spool)
    monkeypatch.undo()
    run_study(SPOOL_STUDY_CONFIG, spool_dir=spool)

    journaled = [
        (payload["crawl"], payload["shard"])
        for info in list_segments(spool)
        for payload in read_segment(info.path)
        if payload["t"] == "shard"
    ]
    assert journaled == [
        (crawl, shard.index)
        for crawl in SPOOL_STUDY_CONFIG.crawls
        for shard in plan_shards(sites)
    ]
    dataset = tmp_path / "dataset.jsonl"
    import_spool(spool, dataset)
    assert file_fingerprint(dataset) == dataset_fingerprint(
        reference.dataset
    )
