"""The crawl driver: one crawl = one browser version over the seed list.

Robustness model (PR 3): every page visit runs against a sim-clock
deadline with bounded retry and exponential (simulated) backoff; a site
whose pages fail consecutively is quarantined; everything that goes
wrong lands in an error taxonomy on the run summary. With a
:class:`~repro.faults.injector.FaultInjector` installed the crawler
survives injected page failures, stalls, blackouts, and lossy event
streams — without one, none of this machinery draws entropy or
publishes events, so fault-free runs are unchanged.

Parallel model (PR 4): crawling and bookkeeping are two phases. A
:class:`CrawlLane` (browser + bus + fault gate + sim clock) produces
:class:`~repro.crawler.outcome.SiteOutcome` records — pure data, no
obs/summary side effects; each page observation goes to the caller's
``observe`` callback and is not kept — and a :class:`CrawlAccountant`
folds outcomes into the run summary and obs spans/counters, always in
canonical site order (the study runner merges each shard's
already-labeled dataset fold and journals the shard beside it).
Because producing an outcome never touches the obs tick clock, the
accountant's replay is byte-identical whether the outcome was crawled
inline one second ago or in a worker process (see
:mod:`repro.parallel`).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.browser.browser import Browser
from repro.cdp.bus import EventBus
from repro.crawler.errors import CrawlErrorKind, ErrorTally
from repro.crawler.observation import PageObservation, observe_page
from repro.crawler.outcome import LaneStats, PageOutcome, SiteOutcome
from repro.crawler.policy import VisitPolicy, page_index_for_link
from repro.faults.injector import (
    FaultInjector,
    PageLoadFailure,
    PageLoadTimeout,
)
from repro.inclusion.builder import InclusionTreeBuilder, NoDocumentError
from repro.obs import Obs
from repro.util.rng import RngStream
from repro.util.simtime import SimClock, parse_date
from repro.web.alexa import Site
from repro.web.server import SyntheticWeb

Observer = Callable[[PageObservation], None]

#: Sites between two in-loop ``crawl.progress`` events.
PROGRESS_EVERY = 25


@dataclass(frozen=True)
class CrawlConfig:
    """One crawl's parameters (a row of Table 1).

    Attributes:
        index: Crawl index (0–3 in the four-crawl study).
        label: Human-readable window, e.g. ``"Apr 02-05, 2017"``.
        chrome_major: Browser version (57 pre-patch, 58 post).
        start_date: ISO date the crawl begins.
        pages_per_site: Page budget per site.
        seed: RNG seed for link selection.
    """

    index: int
    label: str
    chrome_major: int
    start_date: str
    pages_per_site: int = 15
    seed: int = 2017


@dataclass(frozen=True)
class RetryPolicy:
    """How the crawler responds to failing page loads.

    Attributes:
        max_attempts: Load attempts per page before giving up.
        backoff_seconds: Simulated wait before the first retry.
        backoff_factor: Multiplier applied per further retry.
        page_timeout_seconds: Sim-clock budget per load attempt; a
            visit that exceeds it raises
            :class:`~repro.faults.injector.PageLoadTimeout` mid-walk.
        quarantine_after: Consecutive failed *pages* after which the
            whole site is abandoned for this crawl.
    """

    max_attempts: int = 3
    backoff_seconds: float = 30.0
    backoff_factor: float = 2.0
    page_timeout_seconds: float = 90.0
    quarantine_after: int = 2


@dataclass
class CrawlRunSummary:
    """What one crawl did.

    Attributes:
        config: The crawl's configuration.
        sites_visited: Sites crawled (quarantined sites included — they
            stay in the Table 1 denominators).
        pages_visited: Page visits that produced an observation.
        sockets_observed: Total sockets seen.
        events_published: CDP events emitted during the crawl.
        sites: (domain, rank) of every crawled site.
        pages_failed: Pages abandoned after exhausting retries.
        page_retries: Extra load attempts beyond each page's first.
        sites_quarantined: Sites abandoned mid-crawl.
        sockets_partial: Observed sockets flagged ``partial``.
        errors: Error-taxonomy counts (:class:`CrawlErrorKind` values).
    """

    config: CrawlConfig
    sites_visited: int = 0
    pages_visited: int = 0
    sockets_observed: int = 0
    events_published: int = 0
    sites: list[tuple[str, int]] = field(default_factory=list)
    pages_failed: int = 0
    page_retries: int = 0
    sites_quarantined: int = 0
    sockets_partial: int = 0
    errors: dict[str, int] = field(default_factory=dict)


@dataclass
class CrawlLane:
    """One crawl execution lane: browser, event bus, gate, sim clock.

    Sequential runs use a single lane for the whole seed list; the
    parallel executor gives every shard its own lane, so per-lane state
    (CDP request counters, the event-gate RNG position, the sim clock)
    is a function of the shard plan alone — never of the worker count.
    """

    clock: SimClock
    bus: EventBus
    gate: object | None
    browser: Browser

    def stats(self, faults: FaultInjector | None) -> LaneStats:
        """Harvest the lane's telemetry (bus, webRequest, faults)."""
        return LaneStats(
            delivered_count=self.bus.delivered_count,
            published_by_method=dict(self.bus.published_by_method),
            webrequest_counts=self.browser.webrequest.as_counts(),
            fault_counters=(
                dict(sorted(faults.counters.items()))
                if faults is not None and faults.counters else {}
            ),
        )


class CrawlAccountant:
    """Folds site outcomes into the run summary and the obs trace.

    All per-site bookkeeping lives here so the sequential path and the
    parallel merge are literally the same code: ``record_site``
    replays a freshly crawled site's site/page spans and
    ``crawl.quarantine`` event, counts it through ``restore_site`` and
    emits ``crawl.progress``; ``restore_site`` alone is how a
    journaled site comes back (its counts added to the run summary),
    so a resumed study's summary equals an uninterrupted one;
    ``finish`` emits the unconditional end-of-crawl progress event and
    harvests lane telemetry into the metrics registry. The dataset
    and the journal are the study runner's: it merges and journals
    each shard whole.

    Use as a context manager — the crawl span opens on entry and
    closes on exit, and ``finish`` must be called inside the block.
    """

    def __init__(
        self,
        config: CrawlConfig,
        site_total: int,
        obs: Obs | None = None,
    ) -> None:
        self.config = config
        self.site_total = site_total
        self.obs = obs
        self.summary = CrawlRunSummary(config=config)
        self.tally = ErrorTally()
        self._span_cm = None
        self._span = None

    def __enter__(self) -> "CrawlAccountant":
        self._span_cm = (
            self.obs.span("crawl", index=self.config.index,
                          chrome=self.config.chrome_major,
                          label=self.config.label)
            if self.obs is not None else nullcontext()
        )
        self._span = self._span_cm.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb):
        return self._span_cm.__exit__(exc_type, exc, tb)

    def record_site(self, outcome: SiteOutcome) -> None:
        """Count one freshly crawled site in (canonical-order replay)."""
        obs = self.obs
        if obs is not None:
            with obs.span("site", domain=outcome.domain, rank=outcome.rank):
                for page in outcome.pages:
                    with obs.span("page", index=page.page_index):
                        if page.visited:
                            Crawler._count_page(obs, page)
            if outcome.quarantined:
                obs.event(
                    "crawl.quarantine",
                    crawl=self.config.index,
                    domain=outcome.domain,
                    rank=outcome.rank,
                    consecutive_failures=outcome.consecutive_failures,
                )
        self.restore_site(outcome)
        sites_done = self.summary.sites_visited
        if obs is not None and (
            sites_done % PROGRESS_EVERY == 0 and sites_done != self.site_total
        ):
            self._progress_event()

    def restore_site(self, outcome: SiteOutcome) -> None:
        """Add one site's counts to the summary.

        On its own this is how a journaled site comes back: it reaches
        the summary (its shard's fold reaches the dataset beside it)
        but opens no spans and touches no counters, because the
        metrics describe work this process actually did and the trace
        shows the resume for what it is.
        """
        summary = self.summary
        summary.sites_visited += 1
        summary.sites.append((outcome.domain, outcome.rank))
        summary.pages_visited += outcome.pages_visited
        summary.sockets_observed += outcome.sockets_observed
        summary.pages_failed += outcome.pages_failed
        summary.page_retries += outcome.page_retries
        summary.sockets_partial += outcome.sockets_partial
        summary.events_published += outcome.events_published
        if outcome.quarantined:
            summary.sites_quarantined += 1
        self.tally.merge(outcome.errors)

    def finish(self, lane: LaneStats) -> None:
        """End-of-crawl bookkeeping; call once, inside the span."""
        summary = self.summary
        obs = self.obs
        if obs is not None:
            # Unconditional: fires even when journal restoration or
            # quarantine kept the in-loop modulo from landing on the
            # final site.
            self._progress_event()
        summary.errors = self.tally.as_counts()
        if obs is not None:
            self._span.set(sites=summary.sites_visited,
                           pages=summary.pages_visited,
                           sockets=summary.sockets_observed,
                           events=summary.events_published)
            self._harvest(obs, lane)

    # -- internals ----------------------------------------------------------

    def _progress_event(self) -> None:
        summary = self.summary
        self.obs.event(
            "crawl.progress",
            crawl=self.config.index,
            chrome=self.config.chrome_major,
            sites_done=summary.sites_visited,
            sites_total=self.site_total,
            pages=summary.pages_visited,
            sockets=summary.sockets_observed,
        )

    def _harvest(self, obs: Obs, lane: LaneStats) -> None:
        summary = self.summary
        obs.metrics.record_counts("cdp.publish", lane.published_by_method)
        obs.metrics.counter("cdp.delivered").add(lane.delivered_count)
        obs.metrics.record_counts("webrequest", lane.webrequest_counts)
        obs.metrics.counter("crawler.sites").add(summary.sites_visited)
        # Robustness counters only exist when something went wrong, so
        # fault-free artifacts stay byte-identical to the pre-fault era.
        if summary.page_retries:
            obs.metrics.counter("crawler.page_retries").add(
                summary.page_retries)
        if summary.pages_failed:
            obs.metrics.counter("crawler.pages_failed").add(
                summary.pages_failed)
        if summary.sites_quarantined:
            obs.metrics.counter("crawler.sites_quarantined").add(
                summary.sites_quarantined)
        if summary.sockets_partial:
            obs.metrics.counter("crawler.sockets_partial").add(
                summary.sockets_partial)
        if summary.errors:
            obs.metrics.record_counts("crawl.errors", summary.errors)
        if lane.fault_counters:
            obs.metrics.record_counts("faults", lane.fault_counters)


class Crawler:
    """Crawls the synthetic web with a simulated browser.

    The browser profile is reset per site (a stateless measurement
    profile, as measurement crawlers use); the simulated clock advances
    ~60 s between page visits per the paper's politeness policy.

    When an :class:`~repro.obs.Obs` context is supplied, the crawl runs
    under a ``crawl`` span with nested ``site`` and ``page`` spans,
    emits ``crawl.progress`` events every :data:`PROGRESS_EVERY` sites
    (sites done / pages / sockets seen), ``crawl.quarantine`` events
    when a site is abandoned, and harvests the bus's per-method publish
    counts, the ``webRequest`` dispatch counters, the error taxonomy,
    and any injected-fault counters into the metrics registry when the
    crawl finishes.
    """

    def __init__(
        self,
        web: SyntheticWeb,
        config: CrawlConfig,
        observers: Iterable[Observer] = (),
        extension_installer: Callable[[Browser], None] | None = None,
        obs: Obs | None = None,
        faults: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.web = web
        self.config = config
        self.observers = list(observers)
        self.extension_installer = extension_installer
        self.obs = obs
        self.policy = VisitPolicy(pages_per_site=config.pages_per_site)
        self.faults = faults
        self.retry = retry or RetryPolicy()

    def make_lane(self) -> CrawlLane:
        """A fresh execution lane (browser, bus, fault gate, clock)."""
        clock = SimClock(now=parse_date(self.config.start_date))
        bus = EventBus()
        gate = self.faults.gate(bus) if self.faults is not None else None
        browser = Browser(
            version=self.config.chrome_major,
            bus=gate if gate is not None else bus,
            clock=clock,
            seed=self.config.seed,
            faults=self.faults,
        )
        if self.extension_installer is not None:
            self.extension_installer(browser)
        return CrawlLane(clock=clock, bus=bus, gate=gate, browser=browser)

    def run(self, sites: Iterable[Site] | None = None) -> CrawlRunSummary:
        """Crawl the given sites (default: the full seed list).

        Always crawls every site: resuming from a journal is
        shard-granular and lives in
        :func:`repro.experiments.runner.run_crawls`. Each observer sees
        every visited page's full observation, resources included, as
        the page finishes.
        """
        lane = self.make_lane()
        site_list = list(sites) if sites is not None else self.web.seed_list.sites
        accountant = CrawlAccountant(self.config, len(site_list), obs=self.obs)
        with accountant:
            for site in site_list:
                accountant.record_site(
                    self.crawl_site(site, lane, self._observe)
                )
            accountant.finish(lane.stats(self.faults))
        return accountant.summary

    def crawl_site(
        self,
        site: Site,
        lane: CrawlLane,
        observe: Observer | None = None,
    ) -> SiteOutcome:
        """Visit one site's page budget; pure outcome production.

        Each visited page's observation goes to ``observe`` as the page
        finishes and is not kept. Never touches the obs clock, the
        dataset or any summary, so the outcome is identical wherever
        (and whenever) the site is crawled.
        """
        browser = lane.browser
        browser.new_profile(f"{self.config.index}:{site.domain}")
        tally = ErrorTally()
        rng = RngStream(self.config.seed, "crawl", self.config.index,
                        "site", site.domain)
        homepage = self.web.blueprint(site, 0, self.config.index)
        links = self.policy.select_links(homepage.url, homepage.links, rng,
                                         errors=tally)
        page_indices = [0] + [page_index_for_link(link) for link in links]
        blackout = (
            self.faults is not None
            and self.faults.site_blacked_out(self.config.index, site.domain)
        )
        outcome = SiteOutcome(crawl=self.config.index, domain=site.domain,
                              rank=site.rank)
        events_before = lane.bus.published_count
        consecutive_failures = 0
        for page_index in page_indices:
            blueprint = (
                homepage if page_index == 0
                else self.web.blueprint(site, page_index, self.config.index)
            )
            observation, retries = self._visit_page(
                blueprint, site, lane, tally, blackout,
            )
            outcome.add_page(page_index, observation)
            outcome.page_retries += retries
            if observation is None:
                consecutive_failures += 1
                if (self.retry.quarantine_after > 0
                        and consecutive_failures
                        >= self.retry.quarantine_after):
                    outcome.quarantined = True
            else:
                consecutive_failures = 0
                if observe is not None:
                    observe(observation)
            browser.clock.advance(self.policy.wait_seconds)
            if outcome.quarantined:
                break
        outcome.consecutive_failures = consecutive_failures
        outcome.events_published = lane.bus.published_count - events_before
        if outcome.quarantined:
            tally.record(CrawlErrorKind.SITE_QUARANTINED)
            if self.faults is not None:
                self.faults.count("site_quarantined")
        outcome.errors = tally.as_counts()
        return outcome

    # -- internals ----------------------------------------------------------

    def _visit_page(
        self,
        blueprint,
        site: Site,
        lane: CrawlLane,
        tally: ErrorTally,
        blackout: bool,
    ) -> tuple[PageObservation | None, int]:
        """One page with bounded retry.

        Returns ``(observation, retries_used)``; the observation is
        ``None`` when retries exhaust.
        """
        retry = self.retry
        browser = lane.browser
        clock = browser.clock
        faults = self.faults
        retries = 0
        for attempt in range(1, retry.max_attempts + 1):
            if attempt > 1:
                retries += 1
                clock.advance(
                    retry.backoff_seconds
                    * retry.backoff_factor ** (attempt - 2)
                )
            builder = InclusionTreeBuilder()
            builder.attach(lane.bus)
            try:
                if blackout or (
                    faults is not None
                    and faults.page_fails(blueprint.url, self.config.index,
                                          attempt)
                ):
                    if faults is not None:
                        faults.count("page_failed")
                    # A refused connection costs ~a second, not a load.
                    clock.advance(1.0)
                    raise PageLoadFailure(blueprint.url,
                                          "simulated load failure")
                deadline = (
                    clock.timestamp() + retry.page_timeout_seconds
                    if retry.page_timeout_seconds > 0 else None
                )
                browser.visit(blueprint, crawl=self.config.index,
                              attempt=attempt, deadline=deadline)
                tree = builder.result()
            except PageLoadTimeout:
                tally.record(CrawlErrorKind.PAGE_TIMEOUT)
                continue
            except PageLoadFailure:
                tally.record(CrawlErrorKind.PAGE_FAILURE)
                continue
            except NoDocumentError:
                # Every event of the load was dropped — treat like a
                # failed load and retry.
                tally.record(CrawlErrorKind.NO_DOCUMENT)
                continue
            finally:
                if lane.gate is not None:
                    lane.gate.flush()
                builder.detach()
            return observe_page(
                tree, site.domain, site.rank, site.category,
                self.config.index, errors=tally,
            ), retries
        tally.record(CrawlErrorKind.RETRY_EXHAUSTED)
        return None, retries

    def _observe(self, observation: PageObservation) -> None:
        for observer in self.observers:
            observer(observation)

    @staticmethod
    def _count_page(obs: Obs, page: PageOutcome) -> None:
        metrics = obs.metrics
        metrics.counter("crawler.pages").inc()
        if page.sockets:
            metrics.counter("crawler.sockets").add(page.sockets)
            if page.cross_origin:
                metrics.counter("crawler.sockets_cross_origin").add(
                    page.cross_origin)
            if page.third_party_initiated:
                metrics.counter(
                    "crawler.sockets_third_party_initiated"
                ).add(page.third_party_initiated)
        metrics.histogram("crawler.sockets_per_page").observe(page.sockets)
