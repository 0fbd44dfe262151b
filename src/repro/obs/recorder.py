"""The trace file format: :class:`ObsSummary` to JSONL and back.

The trace file is JSONL (one self-describing record per line, compact
separators, sorted keys — byte-identical across same-seed runs):

* ``{"kind": "meta", ...}`` — preset name, seed, tick total, version;
* ``{"kind": "span", ...}`` — one line per retained finished span;
* ``{"kind": "agg", ...}`` — per-span-name aggregate (never truncated);
* ``{"kind": "event", ...}`` — one line per structured obs event;
* ``{"kind": "counter", ...}`` / ``{"kind": "hist", ...}`` — the final
  metrics snapshot.

``repro obs <trace>`` re-reads this file into an :class:`ObsSummary`
and renders the same per-stage report the live study prints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.obs.tracer import ObsEvent, SpanAggregate, SpanRecord
from repro.util.atomicio import atomic_write
from repro.util.serialization import read_jsonl, write_jsonl

TRACE_VERSION = 1


@dataclass
class ObsSummary:
    """The obs layer's final state, embeddable and serializable.

    Attributes:
        meta: Identity of the run (preset name, seed, …).
        ticks: Final tick-clock reading.
        spans: Retained finished spans (capped at the tracer budget).
        aggregates: Per-name span totals (complete).
        dropped_spans: Spans finished beyond the retention budget.
        events: The structured event log.
        counters / histograms: Final metrics snapshot.
    """

    meta: dict[str, Any] = field(default_factory=dict)
    ticks: int = 0
    spans: list[SpanRecord] = field(default_factory=list)
    aggregates: list[SpanAggregate] = field(default_factory=list)
    dropped_spans: int = 0
    events: list[ObsEvent] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    histograms: dict[str, dict[str, Any]] = field(default_factory=dict)

    def spans_named(self, name: str) -> list[SpanRecord]:
        """Retained spans with the given name, in creation order."""
        return [span for span in self.spans if span.name == name]

    def counters_with_prefix(self, prefix: str) -> dict[str, int]:
        """Counters under ``prefix.``, keyed by the remainder."""
        cut = len(prefix) + 1
        return {name[cut:]: value for name, value in self.counters.items()
                if name.startswith(prefix + ".")}


def write_trace(path: str | Path, summary: ObsSummary) -> int:
    """Write a summary as a trace JSONL file; returns the line count."""

    def records():
        yield {"kind": "meta", "version": TRACE_VERSION,
               "ticks": summary.ticks,
               "dropped_spans": summary.dropped_spans, **summary.meta}
        for span in summary.spans:
            yield {"kind": "span", "id": span.span_id,
                   "parent": span.parent_id, "name": span.name,
                   "depth": span.depth, "start": span.start,
                   "end": span.end, "attrs": span.attrs}
        for aggregate in sorted(summary.aggregates, key=lambda a: a.name):
            yield {"kind": "agg", "name": aggregate.name,
                   "count": aggregate.count, "ticks": aggregate.total_ticks}
        for event in summary.events:
            yield {"kind": "event", "tick": event.tick, "name": event.name,
                   "span": event.span_id, "attrs": event.attrs}
        for name, value in sorted(summary.counters.items()):
            yield {"kind": "counter", "name": name, "value": value}
        for name, record in sorted(summary.histograms.items()):
            yield {"kind": "hist", "name": name, **record}

    return write_jsonl(path, records())


def write_metrics(path: str | Path, summary: ObsSummary) -> None:
    """Write the metrics snapshot as one sorted, stable JSON document."""
    payload = {"counters": summary.counters,
               "histograms": summary.histograms, **summary.meta}
    atomic_write(
        Path(path),
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
    )


def read_trace(path: str | Path) -> ObsSummary:
    """Parse a trace JSONL file back into an :class:`ObsSummary`.

    Raises:
        ValueError: When the file has no ``meta`` line or an unknown
            record kind (corrupt traces fail loudly).
    """
    summary = ObsSummary()
    saw_meta = False
    for record in read_jsonl(path):
        kind = record.get("kind")
        if kind == "meta":
            saw_meta = True
            summary.ticks = record.get("ticks", 0)
            summary.dropped_spans = record.get("dropped_spans", 0)
            summary.meta = {k: v for k, v in record.items()
                            if k not in ("kind", "ticks", "dropped_spans")}
        elif kind == "span":
            summary.spans.append(SpanRecord(
                span_id=record["id"], parent_id=record["parent"],
                name=record["name"], start=record["start"],
                end=record["end"], depth=record.get("depth", 0),
                attrs=record.get("attrs", {}),
            ))
        elif kind == "agg":
            summary.aggregates.append(SpanAggregate(
                name=record["name"], count=record["count"],
                total_ticks=record["ticks"],
            ))
        elif kind == "event":
            summary.events.append(ObsEvent(
                tick=record["tick"], name=record["name"],
                span_id=record.get("span", 0),
                attrs=record.get("attrs", {}),
            ))
        elif kind == "counter":
            summary.counters[record["name"]] = record["value"]
        elif kind == "hist":
            summary.histograms[record["name"]] = {
                k: v for k, v in record.items() if k not in ("kind", "name")
            }
        else:
            raise ValueError(f"unknown trace record kind: {kind!r}")
    if not saw_meta:
        raise ValueError(f"{path}: not a repro trace (no meta record)")
    return summary
