"""Incremental analysis over spool slices.

The growth shape here matters: the tail of crawl 2 (the blocking
crawl) is hidden and then imported, because that growth leaves the
derived A&A label set unchanged — the precondition for per-slice
state reuse. Growth that shifts the labeler must (and does) refold
everything; that safety path is asserted too, indirectly, by keying
on the labeler fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.analysis.cache import StageCache, labeler_fingerprint
from repro.analysis.engine import AnalysisEngine, DatasetSource
from repro.analysis.stage import study_stages
from repro.cli import _spool_slices
from repro.crawler.persistence import open_dataset
from repro.spool.importer import import_spool
from repro.spool.segment import list_segments
from repro.util.serialization import dumps

from tests.spool.conftest import respool

SEGMENT_BYTES = 192 * 1024

ARTIFACTS = (
    "table1", "table2", "table3", "table4", "table5",
    "figure3", "blocking", "overall",
)


@dataclass
class Scenario:
    late_ids: list[str]
    slices_phase1: int
    cold: object
    warm: object
    third: object
    full: object
    study: object


@pytest.fixture(scope="module")
def scenario(spooled, tmp_path_factory) -> Scenario:
    src, study = spooled
    base = tmp_path_factory.mktemp("incremental")
    spool = base / "spool"
    respool(src, spool, SEGMENT_BYTES)
    dataset = base / "dataset.jsonl"

    crawl02 = [
        info for info in list_segments(spool) if info.shard == "crawl02"
    ]
    assert len(crawl02) >= 2, "need a crawl02 tail to hide"
    late = crawl02[-max(1, len(crawl02) // 2):]
    stash = base / "stash"
    stash.mkdir()
    for info in late:
        info.path.rename(stash / info.path.name)

    import_spool(spool, dataset)
    engine = AnalysisEngine(
        stages=study_stages(), cache=StageCache(base / "state-cache")
    )
    cold = engine.run(
        DatasetSource.from_file(dataset),
        slices=_spool_slices(spool, open_dataset(dataset)),
    )
    slices_phase1 = cold.segments_folded + cold.segments_cached

    for info in late:
        (stash / info.path.name).rename(info.path)
    import_spool(spool, dataset)
    warm = engine.run(
        DatasetSource.from_file(dataset),
        slices=_spool_slices(spool, open_dataset(dataset)),
    )
    third = engine.run(
        DatasetSource.from_file(dataset),
        slices=_spool_slices(spool, open_dataset(dataset)),
    )
    full = AnalysisEngine(stages=study_stages()).run(
        DatasetSource.from_file(dataset)
    )
    return Scenario(
        late_ids=[info.segment_id for info in late],
        slices_phase1=slices_phase1,
        cold=cold,
        warm=warm,
        third=third,
        full=full,
        study=study,
    )


class TestIncrementalGrowth:
    def test_labeler_is_stable_across_the_growth(self, scenario):
        # The precondition the growth shape was chosen for: adding
        # crawl02's tail must not move any domain over the A&A
        # threshold, or every state key below would miss.
        cold_fp = labeler_fingerprint(
            scenario.cold.labeler, scenario.cold.resolver
        )
        warm_fp = labeler_fingerprint(
            scenario.warm.labeler, scenario.warm.resolver
        )
        assert cold_fp == warm_fp

    def test_cold_run_folds_every_slice(self, scenario):
        assert scenario.cold.segments_cached == 0
        assert scenario.cold.segments_folded == scenario.slices_phase1

    def test_warm_run_folds_only_the_new_segments(self, scenario):
        assert scenario.warm.segments_folded == len(scenario.late_ids)
        assert scenario.warm.segments_cached == scenario.slices_phase1

    def test_warm_run_decodes_only_the_new_records(self, scenario):
        assert 0 < scenario.warm.views_folded < scenario.full.views_folded

    def test_third_run_is_fully_cached(self, scenario):
        assert scenario.third.segments_folded == 0
        assert scenario.third.views_folded == 0

    def test_incremental_artifacts_match_full_refold(self, scenario):
        for name in ARTIFACTS:
            assert dumps(scenario.warm[name]) == dumps(
                scenario.full[name]
            ), name

    def test_incremental_artifacts_match_the_live_study(self, scenario):
        # The grown spool is the whole study again, so the incremental
        # artifacts must equal the uninterrupted study's, byte for byte.
        for name in ARTIFACTS:
            assert dumps(scenario.warm[name]) == dumps(
                getattr(scenario.study, name)
            ), name

