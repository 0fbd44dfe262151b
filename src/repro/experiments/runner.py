"""The four-crawl study runner.

Reproduces the paper's measurement campaign end to end: build the
synthetic web once, crawl it four times (Chrome 57 twice before the
patch date, Chrome 58 twice after), stream everything into a
:class:`~repro.crawler.dataset.StudyDataset`, then derive labels and
compute every table and figure.
"""

from __future__ import annotations

from contextlib import closing, nullcontext
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

from repro.analysis import (
    AnalysisEngine,
    BlockingStats,
    DatasetSource,
    Figure3Series,
    OverallStats,
    SocketView,
    Table1Row,
    Table2Row,
    Table3Row,
    Table4,
    Table5,
    classify_sockets,
    study_stages,
)
from repro.crawler.crawler import (
    CrawlAccountant,
    CrawlConfig,
    CrawlRunSummary,
)
from repro.crawler.dataset import StudyDataset
from repro.crawler.outcome import LaneStats
from repro.crawler.persistence import CrawlJournal, JournaledShard
from repro.filters import CompiledFilterEngine, filter_lists_digest
from repro.labeling.aa_labeler import AaLabeler
from repro.labeling.resolver import DomainResolver
from repro.obs import Obs, ObsSummary
from repro.parallel import ShardTask, execute_shards, plan_shards
from repro.staticlint.runner import FullLintResult, run_full_lint
from repro.web.filterlists import build_filter_engine
from repro.web.server import SyntheticWeb, WebScale


@dataclass(frozen=True)
class StudyConfig:
    """Knobs for one full study run.

    Attributes:
        scale: Calibrated-deployment (entity) scale — how hard the
            socket ecosystem is shrunk relative to the paper's web.
        sample_scale: Crawl-sample scale (1.0 ≈ the paper's ~100K
            sites). Defaults to ``scale`` when ``None``; the default
            preset oversamples publishers relative to entities so the
            fraction of socket-hosting sites stays near the paper's
            ~2% despite the anchored unique entities.
        pages_per_site: Page budget per site (the paper used 15).
        seed: Root RNG seed.
        crawls: Which of the four crawls to run.
        name: Preset name, for reports.
        faults: Named fault profile (``none``/``flaky``/``hostile``);
            ``none`` injects nothing and leaves every artifact
            byte-identical to a run without an injector.
    """

    scale: float = 0.05
    sample_scale: float | None = 0.11
    pages_per_site: int = 15
    seed: int = 2017
    crawls: tuple[int, ...] = (0, 1, 2, 3)
    name: str = "default"
    faults: str = "none"

    @property
    def resolved_sample_scale(self) -> float:
        return self.sample_scale if self.sample_scale is not None else self.scale

    def with_scale(self, scale: float) -> "StudyConfig":
        """A copy at a different scale."""
        return replace(self, scale=scale)

    def with_faults(self, faults: str) -> "StudyConfig":
        """A copy under a different fault profile."""
        return replace(self, faults=faults)


SMOKE_CONFIG = StudyConfig(scale=0.004, sample_scale=0.002, pages_per_site=2,
                           name="smoke")
TINY_CONFIG = StudyConfig(scale=0.004, sample_scale=0.004, pages_per_site=4,
                          name="tiny")
DEFAULT_CONFIG = StudyConfig(name="default")
FULL_CONFIG = StudyConfig(scale=1.0, sample_scale=1.0, pages_per_site=15,
                          name="full")


@dataclass
class StudyResult:
    """Everything the study produced.

    Attributes:
        config: The configuration used.
        web: The synthetic web crawled.
        dataset: Raw accumulated measurements.
        summaries: Per-crawl run summaries.
        labeler / resolver: Derived A&A labels and Cloudfront mapping.
        table1 … figure3, blocking, overall: The computed artifacts.
        lint: Static-analysis companion report over the same registry
            the crawls used (filter-list blindspots, webRequest
            verdicts, static-vs-dynamic cross-check).
        obs: Observability summary — per-stage span timings, the
            structured event log, and the harvested metrics snapshot
            (``None`` only when analysis ran without an obs context).
    """

    config: StudyConfig
    web: SyntheticWeb
    dataset: StudyDataset
    summaries: list[CrawlRunSummary]
    labeler: AaLabeler
    resolver: DomainResolver
    table1: list[Table1Row]
    table2: list[Table2Row]
    table3: list[Table3Row]
    table4: Table4
    table5: Table5
    figure3: Figure3Series
    blocking: BlockingStats
    overall: OverallStats
    lint: FullLintResult | None = None
    obs: ObsSummary | None = None

    @cached_property
    def views(self) -> list[SocketView]:
        """Classified socket records, in record order (classified on
        first use; the analysis sweep keeps none)."""
        return classify_sockets(self.dataset, self.labeler, self.resolver)


def crawl_configs(web: SyntheticWeb, config: StudyConfig) -> list[CrawlConfig]:
    """The four crawl configurations, from the registry's crawl moods."""
    configs = []
    for index in config.crawls:
        mood = web.registry.moods[index]
        configs.append(CrawlConfig(
            index=index,
            label=mood.label,
            chrome_major=mood.chrome_major,
            start_date=mood.start_date,
            pages_per_site=config.pages_per_site,
            seed=config.seed,
        ))
    return configs


def study_stamp(
    config: StudyConfig, engine: CompiledFilterEngine
) -> dict[str, object]:
    """The settings a journal must share with a study to resume it.

    Everything that changes what a crawled shard holds: the seed, both
    scales, the page budget, the fault profile, and a SHA-256 over the
    filter lists' raw rules (the engine labels every resource a shard
    folds, and real lists change between crawls).
    """
    return {
        "seed": config.seed,
        "scale": config.scale,
        "sample_scale": config.resolved_sample_scale,
        "pages_per_site": config.pages_per_site,
        "faults": config.faults,
        "filter_lists": filter_lists_digest(engine.lists).hexdigest()[:16],
    }


def run_crawls(
    web: SyntheticWeb,
    config: StudyConfig,
    obs: Obs | None = None,
    checkpoint: CrawlJournal | None = None,
    workers: int = 1,
) -> tuple[StudyDataset, list[CrawlRunSummary]]:
    """Run the configured crawls, returning the accumulated dataset.

    Every run shards the seed list (:mod:`repro.parallel`); each shard
    labels its own resources into one dataset fold, and the folds
    merge in canonical shard order, each as soon as its shard is done,
    so a ``checkpoint`` journal grows by one record per shard while
    later shards still crawl. ``workers`` only chooses where shards
    execute (inline for 1, a process pool otherwise), so
    artifacts are byte-identical across worker counts. The ``faults``
    profile on ``config`` gives each (crawl, shard) its own seeded
    fault lane; a ``checkpoint`` journal lets an interrupted study
    resume, restoring journaled shards (their folds included) and
    re-crawling the rest whole. It must have been written by the same
    study (:func:`study_stamp`): ``bind`` raises before anything is
    crawled when it was not.
    """
    engine = build_filter_engine(web.registry)
    if checkpoint is not None:
        checkpoint.bind(study_stamp(config, engine))
    dataset = StudyDataset(engine=engine)
    summaries: list[CrawlRunSummary] = []
    shards = plan_shards(web.seed_list.sites)
    site_total = len(web.seed_list.sites)
    configs = crawl_configs(web, config)
    restored = {} if checkpoint is None else {
        (crawl_config.index, shard.index): entry
        for crawl_config in configs for shard in shards
        if (entry := checkpoint.get(crawl_config.index, shard.index))
        is not None
    }
    tasks = [
        ShardTask(crawl=crawl_config, shard_index=shard.index,
                  sites=shard.sites, faults=config.faults)
        for crawl_config in configs for shard in shards
        if (crawl_config.index, shard.index) not in restored
    ]
    # Closed on the way out, so a failed merge cancels every shard the
    # pool has not yet handed to a worker.
    with closing(execute_shards(web, tasks, engine,
                                workers=workers)) as results:
        for crawl_config in configs:
            stats_before = engine.stats.snapshot()
            lane_total = LaneStats()
            accountant = CrawlAccountant(crawl_config, site_total, obs=obs)
            with accountant:
                for shard in shards:
                    entry = restored.get((crawl_config.index, shard.index))
                    if entry is not None:
                        for outcome in entry.sites:
                            accountant.restore_site(outcome)
                        dataset.merge(entry.fold)
                        continue
                    result = next(results)
                    for outcome in result.outcomes:
                        accountant.record_site(outcome)
                    dataset.merge(result.fold)
                    if checkpoint is not None:
                        checkpoint.record(JournaledShard(
                            crawl_config.index, shard.index,
                            result.outcomes, result.fold,
                        ))
                    lane_total.merge(result.lane)
                accountant.finish(lane_total)
            dataset.record_crawl(accountant.summary)
            summaries.append(accountant.summary)
            if obs is not None:
                # Attribute this crawl's share of the match telemetry (the
                # merged folds charged it); the unprefixed filters.*
                # counters stay additive across crawls.
                delta = engine.stats.delta_since(stats_before)
                obs.metrics.record_counts("filters", delta)
                obs.metrics.record_counts(
                    f"filters.by_crawl.{crawl_config.index}", delta
                )
    return dataset, summaries


def analyze(
    config: StudyConfig,
    web: SyntheticWeb,
    dataset: StudyDataset,
    summaries: list[CrawlRunSummary],
    obs: Obs | None = None,
) -> StudyResult:
    """Derive labels and compute every artifact from a dataset.

    A thin driver over :class:`repro.analysis.engine.AnalysisEngine`:
    one classification sweep feeds every stage accumulator, and the
    finalized artifacts land in the same ``StudyResult`` fields as
    before.
    """
    engine = AnalysisEngine(stages=study_stages(), obs=obs)
    outcome = engine.run(DatasetSource.from_dataset(dataset))
    lint_span = (obs.span("lint") if obs is not None else nullcontext())
    with lint_span:
        lint = run_full_lint(registry=web.registry, check_self=False)
    return StudyResult(
        config=config,
        web=web,
        dataset=dataset,
        summaries=summaries,
        labeler=outcome.labeler,
        resolver=outcome.resolver,
        table1=outcome["table1"],
        table2=outcome["table2"],
        table3=outcome["table3"],
        table4=outcome["table4"],
        table5=outcome["table5"],
        figure3=outcome["figure3"],
        blocking=outcome["blocking"],
        overall=outcome["overall"],
        lint=lint,
        obs=obs.summary(preset=config.name, seed=config.seed)
        if obs is not None else None,
    )


def run_study(
    config: StudyConfig = DEFAULT_CONFIG,
    obs: Obs | None = None,
    workers: int = 1,
    spool_dir: str | Path | None = None,
    spool_quota: int = 0,
) -> StudyResult:
    """Build the web, run the crawls, compute everything.

    An :class:`~repro.obs.Obs` context is created when none is passed,
    so every study carries its audit trail in ``result.obs``. With a
    ``spool_dir``, per-shard completion is journaled into the durable
    write-ahead spool (:mod:`repro.spool`) and a rerun of the same
    study with the same directory resumes from it — crash-recovered on
    open, refused (:class:`~repro.spool.StaleSpoolError`) when another
    study wrote it, quota-bounded by ``spool_quota`` bytes (0 =
    unlimited), and importable into a dataset file with ``repro spool
    import``. ``workers`` fans the
    crawl shards out over a process pool without changing a byte of
    any artifact.
    """
    obs = obs or Obs()
    checkpoint: CrawlJournal | None = None
    spool_store = None
    with obs.span("study", preset=config.name, seed=config.seed):
        obs.event("stage", stage="build-web")
        with obs.span("build-web"):
            web = SyntheticWeb(
                scale=WebScale(sample_scale=config.resolved_sample_scale,
                               entity_scale=config.scale),
                seed=config.seed,
            )
        if spool_dir is not None:
            from repro.faults.injector import FaultInjector
            from repro.faults.plan import profile_named
            from repro.spool import SpoolJournal, SpoolStore

            with obs.span("spool-open"):
                spool_store = SpoolStore.open(
                    spool_dir,
                    quota_bytes=spool_quota,
                    obs=obs,
                    injector=FaultInjector(
                        profile_named(config.faults), config.seed, "spool"
                    ),
                )
                checkpoint = SpoolJournal(
                    spool_store,
                    {c.index: c.label
                     for c in crawl_configs(web, config)},
                )
        obs.event("stage", stage="crawls")
        dataset, summaries = run_crawls(web, config, obs=obs,
                                        checkpoint=checkpoint,
                                        workers=workers)
        if spool_store is not None:
            spool_store.seal_active()
        obs.event("stage", stage="analyze")
        result = analyze(config, web, dataset, summaries, obs=obs)
    # Re-freeze after the study span closed so its record is included.
    result.obs = obs.summary(preset=config.name, seed=config.seed)
    return result
