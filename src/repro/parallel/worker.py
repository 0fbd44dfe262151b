"""The shard worker: crawl one (crawl, shard) unit, return pure data.

Workers never see the obs context, the study's dataset, or the
journal — they produce one :class:`~repro.crawler.outcome.SiteOutcome`
per site, one dataset partial holding every page of the shard folded
through the shard's filter engine as the crawler observes it (no page
observation outlives its fold), and lane telemetry, all plain
picklable data; the parent merges them in canonical order and
journals the shard as one record. The synthetic web and the engine
reach a pool worker once, through its initializer
(:func:`install_worker`): inherited under fork, unpickled once per
worker under spawn; tasks carry only the shard.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crawler.crawler import CrawlConfig, Crawler
from repro.crawler.dataset import StudyDataset
from repro.crawler.outcome import LaneStats, SiteOutcome
from repro.faults import FaultInjector, profile_named
from repro.filters import CompiledFilterEngine
from repro.web.alexa import Site
from repro.web.server import SyntheticWeb


@dataclass(frozen=True)
class ShardTask:
    """One unit of parallel work: crawl these sites under this config.

    Attributes:
        crawl: The crawl's configuration (picklable dataclass).
        shard_index: Which shard of the seed list this is — also the
            fault injector's event-stream lane, so event fates are a
            function of the shard plan, not the worker count.
        sites: The shard's sites, in rank order.
        faults: Named fault profile for the study.
    """

    crawl: CrawlConfig
    shard_index: int
    sites: tuple[Site, ...]
    faults: str


@dataclass
class ShardResult:
    """What one shard produced, ready to merge parent-side.

    Attributes:
        outcomes: One outcome per site, in rank order.
        fold: Every visited page of the shard folded into one
            :meth:`StudyDataset.spawn` partial.
        lane: The shard lane's telemetry.
    """

    outcomes: list[SiteOutcome]
    fold: StudyDataset
    lane: LaneStats


def shard_injector(task: ShardTask) -> FaultInjector | None:
    """The shard's fault injector (``None`` for a zero profile).

    Entity-keyed draws (page failures, blackouts, socket faults) hang
    off the ``(seed, "faults", profile, crawl)`` lane and are keyed by
    stable entities, so they survive re-sharding; the sequential
    event-gate stream is additionally keyed by the shard index.
    """
    profile = profile_named(task.faults)
    if profile.is_zero:
        return None
    return FaultInjector(profile, task.crawl.seed, task.crawl.index,
                         event_lane=task.shard_index)


def run_shard(
    web: SyntheticWeb, task: ShardTask, engine: CompiledFilterEngine
) -> ShardResult:
    """Crawl one shard on a fresh lane; no side effects beyond it.

    The shard's pages fold through ``engine`` into one fresh partial as
    the crawler observes them.
    """
    crawler = Crawler(web, task.crawl, faults=shard_injector(task))
    lane = crawler.make_lane()
    fold = StudyDataset(engine=engine).spawn()
    outcomes = [crawler.crawl_site(site, lane, fold.observe)
                for site in task.sites]
    return ShardResult(outcomes=outcomes, fold=fold,
                       lane=lane.stats(crawler.faults))


# -- worker-process plumbing ----------------------------------------------

_worker_web: tuple[SyntheticWeb, CompiledFilterEngine] | None = None


def install_worker(web: SyntheticWeb, engine: CompiledFilterEngine) -> None:
    """Pool initializer: keep the study's web and engine in this worker
    process for every shard it crawls."""
    global _worker_web
    _worker_web = (web, engine)


def run_shard_task(task: ShardTask) -> ShardResult:
    """Pool entry point: crawl the shard on the installed web and engine."""
    web, engine = _worker_web
    return run_shard(web, task, engine)
