"""A spool is bound to the study that wrote it.

Every shard record carries the writing study's stamp: seed, both
scales, page budget, fault profile and a digest of the filter lists.
A study with other settings must not resume that spool's shards as
its own — ``repro study --spool-dir`` exits 2 before crawling and
names each field that differs.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cli import main
from repro.crawler.crawler import Crawler
from repro.experiments.runner import SMOKE_CONFIG, run_study
from repro.spool import import_spool, list_segments
from repro.spool.segment import read_segment

from tests.spool.conftest import SPOOL_STUDY_CONFIG


def test_study_refuses_a_spool_another_study_wrote(tmp_path, capsys):
    spool = tmp_path / "spool"
    run_study(dataclasses.replace(SMOKE_CONFIG, crawls=(0,),
                                  pages_per_site=3),
              spool_dir=spool)
    written = sorted(path.name for path in spool.iterdir())
    argv = ["--quiet", "study", "--preset", "smoke", "--faults", "flaky",
            "--spool-dir", str(spool)]
    assert main(argv) == 2
    error = capsys.readouterr().err
    assert "pages_per_site: spool 3, study 2" in error
    assert "faults: spool 'none', study 'flaky'" in error
    assert "seed:" not in error and "filter_lists:" not in error
    # Refused before crawling: no crawl of the smoke study was journaled.
    assert sorted(path.name for path in spool.iterdir()) == written


class _Killed(RuntimeError):
    pass


def test_quota_eviction_leaves_every_shard_bound(
    tmp_path, monkeypatch, capsys
):
    """Quota eviction deletes a crawl's oldest imported segment, the one
    holding its ``crawl`` record, while the crawl's later segments stay:
    the shards in those still name their study."""
    config = dataclasses.replace(SPOOL_STUDY_CONFIG, crawls=(0,))
    reference = tmp_path / "reference"
    run_study(config, spool_dir=reference)
    crawl_bytes = sum(info.size for info in list_segments(reference))

    spool = tmp_path / "spool"
    real = Crawler.crawl_site
    crawled = 0

    def dying(self, site, *args, **kwargs):
        nonlocal crawled
        if crawled >= 100:  # inside shard 1, sites 64..127
            raise _Killed(site.domain)
        crawled += 1
        return real(self, site, *args, **kwargs)

    monkeypatch.setattr(Crawler, "crawl_site", dying)
    with pytest.raises(_Killed):
        run_study(config, spool_dir=spool)
    monkeypatch.undo()
    import_spool(spool, tmp_path / "dataset.jsonl")
    [first] = list_segments(spool)  # the crawl record and shard 0
    # The whole crawl fits the quota only once the imported first
    # segment is evicted, so the resume evicts it.
    run_study(config, spool_dir=spool,
              spool_quota=crawl_bytes - first.size // 2)
    left = list_segments(spool)
    assert first.segment_id not in {info.segment_id for info in left}
    kinds = {payload["t"] for info in left
             for payload in read_segment(info.path)}
    assert kinds == {"shard"}

    argv = ["--quiet", "study", "--preset", "smoke", "--faults", "flaky",
            "--spool-dir", str(spool)]
    assert main(argv) == 2
    assert "faults: spool 'none', study 'flaky'" in capsys.readouterr().err
