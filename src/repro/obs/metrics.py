"""Counters and histograms for the study pipeline.

A :class:`MetricsRegistry` is a flat, name-keyed collection of
:class:`Counter` and :class:`Histogram` instruments. Instruments are
created on first use and memoized, so call sites can say
``metrics.counter("filters.matches").add(n)`` without registration
ceremony. Snapshots are sorted by name so serialized metrics are
byte-stable across runs.

Naming convention (dotted, lowercase): ``<subsystem>.<quantity>``, e.g.
``cdp.publish.Network.webSocketCreated``, ``filters.host_candidates``,
``crawler.sockets``, ``webrequest.suppressed_wrb``. DESIGN.md §8 lists
the full vocabulary.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.util.obsclock import TickClock

# Powers-of-two-ish bounds covering "a handful" through "thousands";
# fine enough for candidates-per-match and frames-per-socket alike.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096,
)


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value", "_clock")

    def __init__(self, name: str, clock: TickClock | None = None) -> None:
        self.name = name
        self.value = 0
        self._clock = clock

    def inc(self) -> None:
        """Add one."""
        self.add(1)

    def add(self, n: int) -> None:
        """Add ``n`` (must be non-negative)."""
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += n
        if self._clock is not None:
            self._clock.tick()


class Histogram:
    """A fixed-bucket histogram of observed values.

    Attributes:
        name: Instrument name.
        bounds: Upper-inclusive bucket bounds; values above the last
            bound land in an implicit overflow bucket.
        counts: Per-bucket observation counts (len(bounds) + 1).
    """

    __slots__ = ("name", "bounds", "counts", "count", "total",
                 "min", "max", "_clock")

    def __init__(
        self,
        name: str,
        bounds: Sequence[float] = DEFAULT_BUCKETS,
        clock: TickClock | None = None,
    ) -> None:
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name}: bounds must be sorted")
        self.name = name
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._clock = clock

    def observe(self, value: float) -> None:
        """Record one value."""
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if self._clock is not None:
            self._clock.tick()

    @property
    def mean(self) -> float:
        """Mean observed value (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def to_record(self) -> dict[str, Any]:
        """JSON-shaped summary of this histogram."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Name-keyed counters and histograms, created on first use."""

    def __init__(self, clock: TickClock | None = None) -> None:
        self._clock = clock
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter named ``name`` (created if new)."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name, self._clock)
        return counter

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        """The histogram named ``name`` (created if new)."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(
                name, bounds, self._clock
            )
        return histogram

    def record_counts(self, prefix: str, counts: Mapping[str, int]) -> None:
        """Bulk-add a mapping of counts under ``prefix.``.

        Used to harvest subsystem-internal tallies (the event bus's
        per-method counts, the filter engine's match stats) into the
        registry at stage boundaries, keeping hot paths free of
        registry lookups.
        """
        for key in sorted(counts):
            self.counter(f"{prefix}.{key}").add(counts[key])

    def counter_values(self) -> dict[str, int]:
        """All counter values, sorted by name."""
        return {name: self._counters[name].value
                for name in sorted(self._counters)}

    def histogram_records(self) -> dict[str, dict[str, Any]]:
        """All histogram summaries, sorted by name."""
        return {name: self._histograms[name].to_record()
                for name in sorted(self._histograms)}

    def snapshot(self) -> dict[str, Any]:
        """The full registry as a JSON-shaped dict."""
        return {
            "counters": self.counter_values(),
            "histograms": self.histogram_records(),
        }

    def __len__(self) -> int:
        return len(self._counters) + len(self._histograms)
