"""Tests for the trace file round trip and the obs summary."""

import pytest

from repro.obs import Obs, read_trace, write_metrics, write_trace
from repro.obs.recorder import ObsSummary
from repro.obs.tracer import ObsEvent, SpanAggregate, SpanRecord


def _summary():
    obs = Obs()
    with obs.span("study", preset="x"):
        with obs.span("crawl", index=0) as crawl:
            obs.event("crawl.progress", sites_done=1)
            crawl.set(sites=1)
        obs.metrics.counter("crawler.pages").add(4)
        obs.metrics.histogram("crawler.sockets_per_page").observe(2)
    return obs.summary(preset="test", seed=7)


class TestTraceRoundTrip:
    def test_write_read_round_trip(self, tmp_path):
        summary = _summary()
        path = tmp_path / "trace.jsonl"
        lines = write_trace(path, summary)
        # meta + 2 spans + 2 aggs + 1 event + 1 counter + 1 hist.
        assert lines == 8
        loaded = read_trace(path)
        assert loaded.meta == {"version": 1, "preset": "test", "seed": 7}
        assert loaded.ticks == summary.ticks
        assert loaded.spans == summary.spans
        assert loaded.aggregates == summary.aggregates
        assert loaded.events == summary.events
        assert loaded.counters == summary.counters
        assert loaded.histograms == summary.histograms

    def test_rewrite_of_loaded_summary_is_identical(self, tmp_path):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        write_trace(first, _summary())
        write_trace(second, read_trace(first))
        assert second.read_bytes() == first.read_bytes()

    def test_metrics_json_stable(self, tmp_path):
        summary = _summary()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_metrics(a, summary)
        write_metrics(b, summary)
        assert a.read_bytes() == b.read_bytes()
        assert b'"crawler.pages": 4' in a.read_bytes()

    def test_read_trace_requires_meta(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "counter", "name": "a", "value": 1}\n')
        with pytest.raises(ValueError, match="no meta record"):
            read_trace(path)

    def test_read_trace_rejects_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "mystery"}\n')
        with pytest.raises(ValueError, match="unknown trace record kind"):
            read_trace(path)


class TestObsSummaryHelpers:
    def test_spans_named(self):
        summary = _summary()
        assert [s.name for s in summary.spans_named("crawl")] == ["crawl"]

    def test_counters_with_prefix(self):
        summary = ObsSummary(counters={"a.x": 1, "a.y": 2, "ab.z": 3})
        assert summary.counters_with_prefix("a") == {"x": 1, "y": 2}


class TestObsFacade:
    def test_summary_freezes_state(self):
        summary = _summary()
        assert summary.ticks > 0
        assert summary.dropped_spans == 0
        assert [a.name for a in summary.aggregates] == ["crawl", "study"]
        assert isinstance(summary.spans[0], SpanRecord)
        assert isinstance(summary.aggregates[0], SpanAggregate)
        assert isinstance(summary.events[0], ObsEvent)
