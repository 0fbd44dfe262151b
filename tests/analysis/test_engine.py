"""Golden-equivalence tests for the streaming analysis engine.

The engine's one-sweep fold must agree byte-for-byte with the
materialized ``compute_*`` path (which `tiny_study` uses via the same
stages), whether the observations come from the live dataset, a saved
v2 file, a warm cache, or shard-local partial folds merged in any
order.
"""

from __future__ import annotations

import pytest

from repro.analysis.classify import classify_one
from repro.analysis.engine import (
    AnalysisEngine,
    DatasetSource,
    fold_shard,
    merge_stage_lists,
)
from repro.analysis.cache import StageCache
from repro.analysis.stage import (
    STUDY_STAGE_NAMES,
    StageContext,
    study_stages,
)
from repro.crawler.persistence import (
    dataset_fingerprint,
    file_fingerprint,
    open_dataset,
    save_dataset,
)
from repro.filters import CompiledFilterEngine
from repro.util.serialization import dumps
from repro.web.filterlists import build_filter_lists


@pytest.fixture(scope="module")
def dataset_file(tiny_study, tmp_path_factory):
    """The tiny study's dataset saved in the v2 on-disk format."""
    path = tmp_path_factory.mktemp("engine") / "dataset.jsonl"
    save_dataset(path, tiny_study.dataset)
    return path


def _study_artifacts(study):
    return {
        "table1": study.table1,
        "table2": study.table2,
        "table3": study.table3,
        "table4": study.table4,
        "table5": study.table5,
        "figure3": study.figure3,
        "blocking": study.blocking,
        "overall": study.overall,
    }


class TestStreamingEquivalence:
    def test_file_stream_matches_live_study(self, tiny_study, dataset_file):
        engine = AnalysisEngine(stages=study_stages())
        outcome = engine.run(DatasetSource.from_file(dataset_file))
        for name, expected in _study_artifacts(tiny_study).items():
            assert dumps(outcome[name]) == dumps(expected), name

    def test_study_views_match_file_records_in_order(self, tiny_study,
                                                     dataset_file):
        source = DatasetSource.from_file(dataset_file)
        labeler = source.dataset.derive_labeler()
        resolver = source.dataset.derive_resolver(labeler)
        views = [classify_one(record, labeler, resolver)
                 for record in source.records()]
        assert dumps(tiny_study.views) == dumps(views)

    def test_fingerprints_agree_live_vs_file(self, tiny_study, dataset_file):
        assert (dataset_fingerprint(tiny_study.dataset)
                == file_fingerprint(dataset_file))

    def test_gzip_file_same_fingerprint(self, tiny_study, tmp_path):
        path = tmp_path / "dataset.jsonl.gz"
        save_dataset(path, tiny_study.dataset)
        assert file_fingerprint(path) == dataset_fingerprint(
            tiny_study.dataset
        )

    def test_reader_restores_aggregates(self, tiny_study, dataset_file):
        reader = open_dataset(dataset_file)
        live = tiny_study.dataset
        assert reader.meta == live.meta
        assert reader.dataset.tag_counter.aa == live.tag_counter.aa
        assert reader.dataset.http_requests_by_host == \
            live.http_requests_by_host
        assert reader.dataset.chain_signatures == live.chain_signatures


class TestCaching:
    def test_cold_then_warm_is_byte_identical(self, dataset_file, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = AnalysisEngine(stages=study_stages(),
                              cache=StageCache(cache_dir))
        first = cold.run(DatasetSource.from_file(dataset_file))
        assert set(first.computed) == set(STUDY_STAGE_NAMES)
        assert first.cached == ()
        assert first.views_folded > 0

        warm_cache = StageCache(cache_dir)
        warm = AnalysisEngine(stages=study_stages(), cache=warm_cache)
        second = warm.run(DatasetSource.from_file(dataset_file))
        assert second.computed == ()
        assert set(second.cached) == set(STUDY_STAGE_NAMES)
        assert second.views_folded == 0  # the sweep was skipped
        assert warm_cache.hits == len(STUDY_STAGE_NAMES)
        for name in STUDY_STAGE_NAMES:
            assert dumps(first[name]) == dumps(second[name]), name

    def test_warm_run_matches_uncached_run(self, dataset_file, tmp_path):
        cache_dir = tmp_path / "cache"
        AnalysisEngine(stages=study_stages(),
                       cache=StageCache(cache_dir)).run(
            DatasetSource.from_file(dataset_file))
        cached = AnalysisEngine(stages=study_stages(),
                                cache=StageCache(cache_dir)).run(
            DatasetSource.from_file(dataset_file))
        uncached = AnalysisEngine(stages=study_stages()).run(
            DatasetSource.from_file(dataset_file))
        for name in STUDY_STAGE_NAMES:
            assert dumps(cached[name]) == dumps(uncached[name]), name

    def test_dataset_edit_invalidates_every_stage(
        self, dataset_file, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        AnalysisEngine(stages=study_stages(),
                       cache=StageCache(cache_dir)).run(
            DatasetSource.from_file(dataset_file))
        # Drop the last socket record: a different dataset must not
        # reuse any cached artifact.
        edited = tmp_path / "edited.jsonl"
        lines = dataset_file.read_text(encoding="utf-8").splitlines(True)
        edited.write_text("".join(lines[:-1]), encoding="utf-8")
        assert file_fingerprint(edited) != file_fingerprint(dataset_file)
        result = AnalysisEngine(stages=study_stages(),
                                cache=StageCache(cache_dir)).run(
            DatasetSource.from_file(edited))
        assert result.cached == ()
        assert set(result.computed) == set(STUDY_STAGE_NAMES)

    def test_cache_follows_the_filter_lists(
        self, dataset_file, registry, tmp_path
    ):
        # The blocking stage scores chains against the lists when it
        # finalizes, so a cache warmed under the bundled lists must
        # not answer for a run under EasyList alone.
        easylist = CompiledFilterEngine(build_filter_lists(registry)[:1])
        cache_dir = tmp_path / "cache"
        bundled = AnalysisEngine(stages=study_stages(),
                                 cache=StageCache(cache_dir)).run(
            DatasetSource.from_file(dataset_file))
        cached = AnalysisEngine(stages=study_stages(),
                                cache=StageCache(cache_dir)).run(
            DatasetSource.from_file(dataset_file, engine=easylist))
        uncached = AnalysisEngine(stages=study_stages()).run(
            DatasetSource.from_file(dataset_file, engine=easylist))
        assert dumps(uncached["blocking"]) != dumps(bundled["blocking"])
        assert cached.views_folded == 0
        assert dumps(cached["blocking"]) == dumps(uncached["blocking"])


class TestShardMerge:
    def test_merged_shards_match_sequential(self, tiny_study):
        views = tiny_study.views
        thirds = len(views) // 3
        chunks = [views[:thirds], views[thirds:2 * thirds],
                  views[2 * thirds:]]
        parts = [fold_shard(study_stages(), chunk) for chunk in chunks]
        # Merge in a non-sequential order: associativity and
        # order-insensitivity must hold.
        merged = merge_stage_lists([parts[2], parts[0], parts[1]])
        sequential = fold_shard(study_stages(), views)
        ctx = StageContext(
            meta=tiny_study.dataset.meta,
            labeler=tiny_study.labeler,
            resolver=tiny_study.resolver,
            engine=tiny_study.dataset.engine,
            dataset=tiny_study.dataset,
        )
        for merged_stage, seq_stage in zip(merged, sequential):
            assert dumps(merged_stage.finalize(ctx)) == \
                dumps(seq_stage.finalize(ctx)), merged_stage.name

    def test_merge_rejects_mismatched_lists(self):
        with pytest.raises(ValueError):
            merge_stage_lists([study_stages(), study_stages()[:-1]])

    def test_merge_rejects_reordered_lists(self):
        stages = study_stages()
        with pytest.raises(ValueError):
            merge_stage_lists([stages, list(reversed(study_stages()))])
