"""Opt-in stats recording: the shared-snapshot thread-safety contract.

`repro serve` shares one compiled engine across worker threads, so
``match()`` must be read-only on the engine when the caller says so.
The default still records into ``engine.stats`` (every pre-serve call
site keeps its telemetry); ``stats=None`` makes the call mutate
nothing; a caller-owned ``EngineStats`` routes the charge there.
"""

import threading

from repro.filters import CompiledFilterEngine, EngineStats, parse_filter_list
from repro.net.http import ResourceType

LIST_TEXT = """\
! test list
/banner/
||ads.example^
@@||ads.example/allowed.js
"""


def _engine():
    return CompiledFilterEngine([parse_filter_list("unit", LIST_TEXT)])


def _snapshot(stats: EngineStats) -> tuple[int, int, int]:
    return stats.matches, stats.blocked, stats.exception_overrides


class TestOptInRecording:
    def test_default_records_into_engine_stats(self):
        engine = _engine()
        verdict = engine.match(
            "https://ads.example/x.js", ResourceType.SCRIPT, ""
        )
        assert verdict.blocked
        assert engine.stats.matches == 1
        assert engine.stats.blocked == 1

    def test_stats_none_is_read_only(self):
        engine = _engine()
        blocked = engine.match(
            "https://ads.example/x.js", ResourceType.SCRIPT, "",
            stats=None,
        )
        rescued = engine.match(
            "https://ads.example/allowed.js", ResourceType.SCRIPT, "",
            stats=None,
        )
        assert blocked.blocked and not rescued.blocked
        assert _snapshot(engine.stats) == (0, 0, 0)

    def test_caller_owned_stats_receive_the_charge(self):
        engine = _engine()
        own = EngineStats()
        engine.match(
            "https://ads.example/x.js", ResourceType.SCRIPT, "",
            stats=own,
        )
        engine.match(
            "https://ads.example/allowed.js", ResourceType.SCRIPT, "",
            stats=own,
        )
        assert own.matches == 2
        assert own.blocked == 1
        assert own.exception_overrides == 1
        assert _snapshot(engine.stats) == (0, 0, 0)

    def test_verdicts_identical_across_stats_modes(self):
        engine = _engine()
        urls = (
            "https://ads.example/x.js",
            "https://ads.example/allowed.js",
            "https://clean.example/app.js",
            "https://cdn.example/banner/ad.gif",
        )
        for url in urls:
            default = engine.match(url, ResourceType.SCRIPT, "")
            silent = engine.match(url, ResourceType.SCRIPT, "", stats=None)
            assert (default.blocked, default.matched) == (
                silent.blocked, silent.matched
            )


class TestConcurrentMatching:
    def test_threads_with_stats_none_never_touch_shared_state(self):
        engine = _engine()
        urls = [
            "https://ads.example/x.js",
            "https://ads.example/allowed.js",
            "https://clean.example/app.js",
            "https://cdn.example/banner/ad.gif",
        ] * 50
        expected = [
            engine.match(url, ResourceType.SCRIPT, "", stats=None).blocked
            for url in urls
        ]
        per_thread: dict[int, tuple] = {}
        failures: list[str] = []

        def worker(thread_id: int) -> None:
            own = EngineStats()
            verdicts = []
            for url in urls:
                verdicts.append(engine.match(
                    url, ResourceType.SCRIPT, "", stats=own
                ).blocked)
            if verdicts != expected:
                failures.append(f"thread {thread_id} verdicts diverged")
            per_thread[thread_id] = _snapshot(own)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert failures == []
        # The shared engine was never written: its counters are
        # untouched, and every thread's private counters agree exactly
        # (no lost updates — each thread did all the counting itself).
        assert _snapshot(engine.stats) == (0, 0, 0)
        assert len(per_thread) == 8
        assert len(set(per_thread.values())) == 1
        matches, blocked, overrides = per_thread[0]
        assert matches == len(urls)
        assert blocked == sum(expected)
        assert overrides == 50  # one rescued URL per cycle of 4
