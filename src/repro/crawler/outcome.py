"""Per-site crawl outcomes — the unit of work the parallel engine moves.

A :class:`SiteOutcome` is everything one site visit produced, with no
observability or summary bookkeeping attached: the crawler produces
outcomes (in a worker process or inline), the shard folds each site's
pages into a dataset partial (:meth:`StudyDataset.spawn`) and keeps
only their sockets, and the
:class:`~repro.crawler.crawler.CrawlAccountant` folds outcomes into the
run summary, the obs trace, the dataset (a merge of the partial) and
the checkpoint journal in canonical site-rank order. Keeping
production and accounting separate is what makes ``--workers N``
byte-identical to ``--workers 1``: no matter where a site was crawled,
its bookkeeping replays in the same order on the same process.

Everything here is plain picklable data (strings, ints, dataclasses of
the same; a partial pickles without its filter engine) so outcomes can
cross a ``multiprocessing`` pipe.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.crawler.observation import PageObservation

if TYPE_CHECKING:  # avoids the dataset → crawler → outcome cycle
    from repro.crawler.dataset import StudyDataset


@dataclass
class PageOutcome:
    """One page visit: its index on the site, and what it measured.

    Attributes:
        page_index: Page index within the site (0 = homepage).
        observation: The page's measurement record, or ``None`` when
            the visit exhausted its retries.
    """

    page_index: int
    observation: PageObservation | None


@dataclass
class SiteOutcome:
    """Everything one site visit produced, before any bookkeeping.

    Attributes:
        domain: Site domain.
        rank: Alexa rank.
        pages: Visited pages in visit order (quarantine truncates).
        quarantined: The site was abandoned after consecutive failures.
        consecutive_failures: Failure streak at abandonment time.
        page_retries: Extra load attempts beyond each page's first.
        events_published: CDP events the site's visits published (a
            delta of the lane's bus counter — sums to the lane total
            because publishing only happens inside visits).
        errors: Error-taxonomy counts for this site (sorted keys).
        fold: The site's pages folded into a dataset partial, set by
            the shard that crawled it (``None`` straight out of
            :meth:`~repro.crawler.crawler.Crawler.crawl_site`).
    """

    domain: str
    rank: int
    pages: list[PageOutcome] = field(default_factory=list)
    quarantined: bool = False
    consecutive_failures: int = 0
    page_retries: int = 0
    events_published: int = 0
    errors: dict[str, int] = field(default_factory=dict)
    fold: "StudyDataset | None" = None

    @property
    def pages_visited(self) -> int:
        """Pages that produced an observation."""
        return sum(1 for p in self.pages if p.observation is not None)

    @property
    def pages_failed(self) -> int:
        """Pages abandoned after exhausting retries."""
        return sum(1 for p in self.pages if p.observation is None)

    @property
    def sockets_observed(self) -> int:
        """Sockets seen across the site's visited pages."""
        return sum(
            len(p.observation.sockets)
            for p in self.pages if p.observation is not None
        )

    @property
    def sockets_partial(self) -> int:
        """Observed sockets flagged ``partial``."""
        return sum(
            1
            for p in self.pages if p.observation is not None
            for s in p.observation.sockets if s.partial
        )


@dataclass
class LaneStats:
    """Telemetry harvested from one crawl lane (browser + bus + faults).

    A *lane* is the per-shard browser/event-bus/fault-injector triple.
    Lane stats are additive: the accountant merges every shard's stats
    into one per-crawl total before harvesting them into the metrics
    registry, so a four-shard crawl reports the same counters a
    one-lane crawl would.

    Attributes:
        events_published: CDP events the lane's bus accepted.
        delivered_count: Event deliveries to subscribers.
        published_by_method: Publish counts by CDP method name.
        webrequest_counts: ``webRequest`` dispatch counters.
        fault_counters: Injected-fault counts (empty without faults).
    """

    events_published: int = 0
    delivered_count: int = 0
    published_by_method: dict[str, int] = field(default_factory=dict)
    webrequest_counts: dict[str, int] = field(default_factory=dict)
    fault_counters: dict[str, int] = field(default_factory=dict)

    def merge(self, other: "LaneStats") -> None:
        """Fold another lane's telemetry in (all fields additive)."""
        self.events_published += other.events_published
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
