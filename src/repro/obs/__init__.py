"""Observability for the study pipeline: spans, metrics, trace export.

The paper's measurement campaign is only trustworthy if we know what
the crawler actually observed — which CDP events fired, which sockets
were attributed, which filter rules were exercised. This package gives
every stage of ``repro study`` a verifiable audit trail:

* :class:`~repro.obs.tracer.Tracer` — nested spans
  (study → crawl → site → page) plus a structured event log;
* :class:`~repro.obs.metrics.MetricsRegistry` — counters and
  histograms harvested from the filter engine, CDP bus, crawler, and
  ``chrome.webRequest`` simulation;
* :mod:`~repro.obs.recorder` — the JSONL trace file format
  (:func:`write_trace` / :func:`read_trace`);
* :func:`~repro.obs.report.render_obs_summary` — the per-stage
  timing/attribution report;
* :mod:`~repro.obs.critical_path` / :mod:`~repro.obs.perf` — the
  analytics layer over exported traces (self-time attribution, flame
  aggregation, critical path, trace diffing) behind ``repro perf``;
* :mod:`~repro.obs.history` — the durable benchmark history store and
  its rolling-baseline regression gate (``repro perf check``).

Everything runs on the deterministic tick clock
(:mod:`repro.util.obsclock`), so two same-seed studies produce
byte-identical traces — the property the trace round-trip tests pin.

The :class:`Obs` facade bundles one clock, tracer, and registry; pass
it (or ``None`` to opt out) down the pipeline.
"""

from __future__ import annotations

from repro.obs.critical_path import PathStats, SpanNode, SpanTree
from repro.obs.history import (
    BenchRecord,
    HistoryCheck,
    append_history,
    check_history,
    check_json,
    fingerprint_key,
    git_sha,
    hardware_fingerprint,
    read_history,
    render_check,
)
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.perf import (
    FlameReport,
    TraceDiff,
    build_flame,
    diff_json,
    diff_traces,
    flame_json,
    render_diff,
    render_flame,
)
from repro.obs.recorder import (
    ObsSummary,
    read_trace,
    write_metrics,
    write_trace,
)
from repro.obs.report import obs_summary_json, render_obs_summary
from repro.obs.tracer import ObsEvent, SpanAggregate, SpanRecord, Tracer
from repro.util.obsclock import TickClock, WallClock


class Obs:
    """One study's observability context: clock + tracer + metrics."""

    def __init__(
        self, clock: TickClock | None = None, max_spans: int = 100_000
    ) -> None:
        self.clock = clock or TickClock()
        self.tracer = Tracer(self.clock, max_spans=max_spans)
        self.metrics = MetricsRegistry(self.clock)

    def span(self, name: str, **attrs):
        """Open a span on the tracer (context manager)."""
        return self.tracer.span(name, **attrs)

    def event(self, name: str, **attrs) -> ObsEvent:
        """Log one structured event."""
        return self.tracer.event(name, **attrs)

    def summary(self, **meta) -> ObsSummary:
        """Freeze the current state into an :class:`ObsSummary`."""
        return ObsSummary(
            meta=dict(meta),
            ticks=self.clock.now(),
            spans=list(self.tracer.finished),
            aggregates=sorted(
                self.tracer.aggregates.values(), key=lambda a: a.name
            ),
            dropped_spans=self.tracer.dropped_spans,
            events=list(self.tracer.events),
            counters=self.metrics.counter_values(),
            histograms=self.metrics.histogram_records(),
        )


__all__ = [
    "Obs",
    "ObsEvent",
    "ObsSummary",
    "BenchRecord",
    "Counter",
    "FlameReport",
    "Histogram",
    "HistoryCheck",
    "MetricsRegistry",
    "PathStats",
    "SpanAggregate",
    "SpanNode",
    "SpanRecord",
    "SpanTree",
    "TickClock",
    "TraceDiff",
    "WallClock",
    "Tracer",
    "append_history",
    "build_flame",
    "check_history",
    "check_json",
    "diff_json",
    "diff_traces",
    "flame_json",
    "render_check",
    "fingerprint_key",
    "git_sha",
    "hardware_fingerprint",
    "obs_summary_json",
    "read_history",
    "read_trace",
    "render_diff",
    "render_flame",
    "render_obs_summary",
    "write_metrics",
    "write_trace",
]
