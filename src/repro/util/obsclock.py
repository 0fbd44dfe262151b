"""The observability clock: deterministic monotonic "ticks".

Span timings and trace files must be **byte-identical across same-seed
runs** (DESIGN.md §5 extends the calibration contract to telemetry), so
the obs layer cannot read the host's monotonic clock. Instead it runs on
a :class:`TickClock`: a counter that advances only when instrumented
work happens — every metric increment and span boundary charges one or
more ticks. A published CDP event charges none: the bus tallies events
per method, and each crawl adds the tallies to its ``cdp.publish.*``
counters when it finishes. A span's duration in ticks is therefore a
deterministic *work proxy*: the amount of instrumented activity that
happened while the span was open, stable across hosts, Python
versions, and ``PYTHONHASHSEED`` values.

For real before/after performance numbers (benchmarks, profiling
sessions) the same interface is available over the host's performance
counter as :class:`WallClock`. That variant is the single sanctioned
home of ``time.perf_counter_ns`` — the DET-OBS linter rule
(:mod:`repro.staticlint.determinism`) forbids direct
``time.perf_counter``/``time.monotonic`` calls anywhere else in
``src/repro``.
"""

from __future__ import annotations

import time


class TickClock:
    """Deterministic monotonic clock counting instrumented work units.

    Attributes:
        ticks: The current tick count (monotonically non-decreasing).
    """

    deterministic = True

    def __init__(self, start: int = 0) -> None:
        if start < 0:
            raise ValueError("TickClock cannot start before tick 0")
        self.ticks = start

    def now(self) -> int:
        """The current tick count (does not advance)."""
        return self.ticks

    def tick(self, n: int = 1) -> int:
        """Advance by ``n`` work units; returns the new tick count."""
        if n < 0:
            raise ValueError("TickClock cannot run backwards")
        self.ticks += n
        return self.ticks


class WallClock:
    """The same interface over the host's performance counter.

    ``now()``/``tick()`` return nanoseconds from an arbitrary origin.
    Use only where bit-reproducibility is explicitly not required
    (benchmark breakdowns, ad-hoc profiling); ``repro study --trace``
    always runs on :class:`TickClock`.
    """

    deterministic = False

    def __init__(self) -> None:
        self._origin = time.perf_counter_ns()

    def now(self) -> int:
        """Nanoseconds since this clock was created."""
        return time.perf_counter_ns() - self._origin

    def tick(self, n: int = 1) -> int:
        """Reads the counter; ``n`` is ignored (time advances itself)."""
        return self.now()
