"""Every resource is labeled once, in the shard that crawled it.

Shards fold their sites into dataset partials through the filter
engine; the parent's canonical-order replay only merges them. Counting
``CompiledFilterEngine.match`` calls (by wrapping it, not by timing)
pins that the replay matches nothing, and that merging charges the
engine's stats with exactly the matches the shards made.
"""

from __future__ import annotations

import dataclasses

import repro.experiments.runner as runner
import repro.parallel.executor as executor
from repro.filters import CompiledFilterEngine
from tests.conftest import TINY_STUDY_CONFIG

CONFIG = dataclasses.replace(TINY_STUDY_CONFIG, crawls=(0, 1))


def test_inline_replay_matches_nothing(tiny_web, monkeypatch):
    phase = {"now": "replay"}
    calls = {"shards": 0, "replay": 0}
    real_match = CompiledFilterEngine.match
    real_run_shard = executor.run_shard

    def counting_match(self, *args, **kwargs):
        calls[phase["now"]] += 1
        return real_match(self, *args, **kwargs)

    def shard_phase(*args, **kwargs):
        # The inline stream crawls each shard between two replays.
        phase["now"] = "shards"
        try:
            return real_run_shard(*args, **kwargs)
        finally:
            phase["now"] = "replay"

    monkeypatch.setattr(CompiledFilterEngine, "match", counting_match)
    monkeypatch.setattr(executor, "run_shard", shard_phase)
    dataset, _ = runner.run_crawls(tiny_web, CONFIG, workers=1)

    assert calls["shards"] > 0
    assert calls["replay"] == 0
    assert dataset.engine.stats.matches == calls["shards"]
