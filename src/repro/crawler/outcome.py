"""Per-site crawl outcomes — the one record of a finished site.

A :class:`SiteOutcome` is everything one site visit produced: its
counts and the per-page socket tallies the trace replay reads. The
crawler produces outcomes (in a worker process or inline) and hands
each full page observation to its ``observe`` callback, never keeping
it: the shard that crawled the site folds its pages, with the rest of
the shard's, into one dataset partial (:meth:`StudyDataset.spawn`).
The :class:`~repro.crawler.crawler.CrawlAccountant` folds outcomes
into the run summary and the obs trace in canonical site-rank order.
The journal stores the same record (page tallies aside) as one row of
its shard's record, so a resumed site restores through the same code a
crawled one is counted by. Keeping production and accounting separate
is what makes ``--workers N`` byte-identical to ``--workers 1``: no
matter where a site was crawled, its bookkeeping replays in the same
order on the same process.

Everything here is plain picklable data (strings, ints, dataclasses of
the same) so outcomes can cross a ``multiprocessing`` pipe.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.crawler.observation import PageObservation


@dataclass
class PageOutcome:
    """One page visit's socket tallies, for the trace replay.

    Attributes:
        page_index: Page index within the site (0 = homepage).
        visited: The visit produced an observation (``False`` when it
            exhausted its retries).
        sockets: Sockets observed on the page.
        cross_origin: Of those, third-party endpoints.
        third_party_initiated: Of those, opened by a resource whose host
            is not the page's.
    """

    page_index: int
    visited: bool
    sockets: int = 0
    cross_origin: int = 0
    third_party_initiated: int = 0


@dataclass
class SiteOutcome:
    """Everything one site visit produced, before any bookkeeping.

    Attributes:
        crawl: Crawl index the site was visited under.
        domain: Site domain.
        rank: Alexa rank.
        pages_visited: Pages that produced an observation.
        sockets_observed: Sockets seen across those pages.
        pages_failed: Pages abandoned after exhausting retries.
        page_retries: Extra load attempts beyond each page's first.
        sockets_partial: Observed sockets flagged ``partial``.
        events_published: CDP events the site's visits published (a
            delta of the lane's bus counter — sums to the lane total
            because publishing only happens inside visits).
        quarantined: The site was abandoned after consecutive failures.
        errors: Error-taxonomy counts for this site (sorted keys).
        consecutive_failures: Failure streak at abandonment time.
        pages: Per-page tallies in visit order (quarantine truncates);
            empty for a journaled site, which replays no spans.
    """

    crawl: int
    domain: str
    rank: int
    pages_visited: int = 0
    sockets_observed: int = 0
    pages_failed: int = 0
    page_retries: int = 0
    sockets_partial: int = 0
    events_published: int = 0
    quarantined: bool = False
    errors: dict[str, int] = field(default_factory=dict)
    consecutive_failures: int = 0
    pages: list[PageOutcome] = field(default_factory=list)

    def add_page(
        self, page_index: int, observation: PageObservation | None
    ) -> None:
        """Count one page visit (``None``: its retries exhausted)."""
        if observation is None:
            self.pages_failed += 1
            self.pages.append(PageOutcome(page_index, visited=False))
            return
        sockets = observation.sockets
        self.pages_visited += 1
        self.sockets_observed += len(sockets)
        self.sockets_partial += sum(1 for s in sockets if s.partial)
        self.pages.append(PageOutcome(
            page_index,
            visited=True,
            sockets=len(sockets),
            cross_origin=sum(1 for s in sockets if s.cross_origin),
            third_party_initiated=sum(
                1 for s in sockets if s.initiator_host != s.first_party_host
            ),
        ))


@dataclass
class LaneStats:
    """Telemetry harvested from one crawl lane (browser + bus + faults).

    A *lane* is the per-shard browser/event-bus/fault-injector triple.
    Lane stats are additive: the accountant merges every shard's stats
    into one per-crawl total before harvesting them into the metrics
    registry, so a four-shard crawl reports the same counters a
    one-lane crawl would. (The events a lane published are counted per
    site, on :attr:`SiteOutcome.events_published`.)

    Attributes:
        delivered_count: Event deliveries to subscribers.
        published_by_method: Publish counts by CDP method name.
        webrequest_counts: ``webRequest`` dispatch counters.
        fault_counters: Injected-fault counts (empty without faults).
    """

    delivered_count: int = 0
    published_by_method: dict[str, int] = field(default_factory=dict)
    webrequest_counts: dict[str, int] = field(default_factory=dict)
    fault_counters: dict[str, int] = field(default_factory=dict)

    def merge(self, other: "LaneStats") -> None:
        """Fold another lane's telemetry in (all fields additive)."""
        self.delivered_count += other.delivered_count
        for target, source in (
            (self.published_by_method, other.published_by_method),
            (self.webrequest_counts, other.webrequest_counts),
            (self.fault_counters, other.fault_counters),
        ):
            merged = Counter(target)
            merged.update(source)
            target.clear()
            target.update(merged)
