"""Recording and replaying CDP sessions.

The original study archived raw crawl output and analyzed it post-hoc
(e.g. the filter lists were applied to chains "post-hoc", §4.2). The
recorder captures the exact event stream of a page visit in memory, so
analyses can be re-run without re-crawling. Like all of ``repro.cdp``
(the crawl hot path) it does no I/O: ``repro visit --har`` writes the
HAR (:func:`repro.cdp.har.events_to_har`) itself.
"""

from __future__ import annotations

from typing import Iterator

from repro.cdp.bus import EventBus
from repro.cdp.events import CdpEvent


class SessionRecorder:
    """Accumulates every event published on a bus."""

    def __init__(self, bus: EventBus | None = None) -> None:
        self.events: list[CdpEvent] = []
        self._unsubscribe = None
        if bus is not None:
            self.attach(bus)

    def attach(self, bus: EventBus) -> None:
        """Start recording events from a bus."""
        self.detach()
        self._unsubscribe = bus.subscribe(self.events.append)

    def detach(self) -> None:
        """Stop recording."""
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None

    def clear(self) -> None:
        """Drop recorded events."""
        self.events.clear()

    def replay_into(self, bus: EventBus) -> int:
        """Publish all recorded events onto another bus, in order."""
        for event in self.events:
            bus.publish(event)
        return len(self.events)

    def __iter__(self) -> Iterator[CdpEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)
