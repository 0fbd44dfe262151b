"""Unit tests for state keys and the content-addressed stage cache."""

from __future__ import annotations

import json

from repro.analysis.cache import CACHE_FORMAT_VERSION, StageCache, state_key
from repro.analysis.stage import register_stage
from repro.analysis.table2 import Table2Stage
from repro.analysis.table5 import Table5Stage

FP = "a" * 64
OTHER_FP = "b" * 64
LABELER_FP = "c" * 64


class TestStageKey:
    def test_dataset_edit_mints_a_new_key(self):
        stage = Table5Stage()
        assert (state_key(FP, LABELER_FP, stage)
                != state_key(OTHER_FP, LABELER_FP, stage))

    def test_version_bump_mints_a_new_key(self):
        class Bumped(Table5Stage):
            version = "2"

        assert (state_key(FP, LABELER_FP, Table5Stage())
                != state_key(FP, LABELER_FP, Bumped()))

    def test_config_change_mints_a_new_key(self):
        assert (state_key(FP, LABELER_FP, Table2Stage(top=15))
                != state_key(FP, LABELER_FP, Table2Stage(top=5)))

    def test_key_is_stable(self):
        assert (state_key(FP, LABELER_FP, Table5Stage())
                == state_key(FP, LABELER_FP, Table5Stage()))

    def test_distinct_stages_get_distinct_keys(self):
        assert (state_key(FP, LABELER_FP, Table5Stage())
                != state_key(FP, LABELER_FP, Table2Stage()))


class TestStageCache:
    def test_miss_on_empty_cache(self, tmp_path):
        cache = StageCache(tmp_path)
        key = state_key(FP, LABELER_FP, Table5Stage())
        assert cache.load("table5", key) is None
        assert (cache.hits, cache.misses) == (0, 1)

    def test_store_then_load_round_trips(self, tmp_path):
        cache = StageCache(tmp_path)
        stage = Table2Stage()
        key = state_key(FP, LABELER_FP, stage)
        artifact = [{"initiator": "x", "socket_count": 3}]
        path = cache.store(stage, key, artifact)
        assert path.exists()
        assert cache.load("table2", key) == artifact
        assert cache.hits == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = StageCache(tmp_path)
        stage = Table2Stage()
        key = state_key(FP, LABELER_FP, stage)
        path = cache.store(stage, key, {"rows": []})
        path.write_text("{truncated", encoding="utf-8")
        assert cache.load("table2", key) is None

    def test_key_mismatch_is_a_miss(self, tmp_path):
        """A 16-hex-prefix collision must never serve a wrong artifact."""
        cache = StageCache(tmp_path)
        stage = Table2Stage()
        key = state_key(FP, LABELER_FP, stage)
        path = cache.store(stage, key, {"rows": []})
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["key"] = state_key(OTHER_FP, LABELER_FP, stage)
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert cache.load("table2", key) is None

    def test_format_bump_is_a_miss(self, tmp_path):
        cache = StageCache(tmp_path)
        stage = Table2Stage()
        key = state_key(FP, LABELER_FP, stage)
        path = cache.store(stage, key, {"rows": []})
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["cache_format"] = CACHE_FORMAT_VERSION + 1
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert cache.load("table2", key) is None

    def test_entry_names_are_human_scannable(self, tmp_path):
        cache = StageCache(tmp_path)
        stage = Table5Stage()
        key = state_key(FP, LABELER_FP, stage)
        path = cache.store(stage, key, {})
        assert path.name == f"table5-{key[:16]}.json"


class TestRegistry:
    def test_duplicate_name_with_other_class_rejected(self):
        try:
            @register_stage
            class Impostor(Table5Stage):
                name = "table2"
        except ValueError as error:
            assert "table2" in str(error)
        else:
            raise AssertionError("duplicate stage name was accepted")

    def test_reregistering_same_class_is_idempotent(self):
        assert register_stage(Table2Stage) is Table2Stage
