"""Parallel crawl executor: speedup, merge overhead, and equivalence.

The sharded executor's contract is byte-identity first, speedup
second: ``--workers N`` must change no artifact, and the canonical-
order merge must stay cheap enough that parallelism is pure upside on
multi-core hosts. This bench measures both and writes the honest
numbers — including ``cpu_count``, because speedup is bounded by the
cores the host actually has — to ``results/bench/BENCH_PARALLEL.json``.
On a single-core container the 4-worker run is *slower* (pool spawn
and pickling with no cores to amortize them); the merge-overhead
budget (<5% of crawl time, DESIGN.md §10) is the assertion that holds
everywhere.
"""

import dataclasses
import os
import time

from conftest import write_bench_json

from repro.crawler.crawler import CrawlAccountant
from repro.crawler.dataset import StudyDataset
from repro.crawler.outcome import LaneStats
from repro.experiments import StudyConfig
from repro.experiments.runner import crawl_configs, run_crawls
from repro.parallel import ShardTask, execute_shards, plan_shards
from repro.web.filterlists import build_filter_engine
from repro.web.server import SyntheticWeb, WebScale

_MERGE_CEILING_PCT = 5.0  # DESIGN.md §10 merge budget

PARALLEL_CONFIG = StudyConfig(scale=0.03, sample_scale=0.002,
                              pages_per_site=4, crawls=(0,),
                              name="parallel-bench")


def _bench_web():
    return SyntheticWeb(
        scale=WebScale(
            sample_scale=PARALLEL_CONFIG.resolved_sample_scale,
            entity_scale=PARALLEL_CONFIG.scale,
        ),
        seed=PARALLEL_CONFIG.seed,
    )


def test_parallel_speedup_and_merge_overhead():
    web = _bench_web()
    run_crawls(web, PARALLEL_CONFIG)  # warm every lazy path

    timings: dict[int, float] = {}
    artifacts: dict[int, list] = {}
    for workers in (1, 4):
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            _, summaries = run_crawls(web, PARALLEL_CONFIG,
                                      workers=workers)
            best = min(best, time.perf_counter() - t0)
        timings[workers] = best
        artifacts[workers] = [dataclasses.asdict(s) for s in summaries]
    # The speedup claim is only meaningful because the artifacts match.
    assert artifacts[4] == artifacts[1]

    exec_seconds, merge_seconds, lane_merge_seconds = _merge_cost(web)
    total = exec_seconds + merge_seconds
    merge_pct = merge_seconds / total * 100.0
    lane_merge_pct = lane_merge_seconds / total * 100.0
    speedup = timings[1] / timings[4]

    print(f"\nworkers=1 {timings[1]:.3f}s, workers=4 {timings[4]:.3f}s "
          f"(speedup {speedup:.2f}x on {os.cpu_count()} cpu), "
          f"accounting {merge_pct:.1f}% of crawl "
          f"(lane merge alone {lane_merge_pct:.2f}%)")
    write_bench_json("parallel", {
        "cpu_count": os.cpu_count(),
        "workers_1_seconds": round(timings[1], 4),
        "workers_4_seconds": round(timings[4], 4),
        "speedup_4_workers": round(speedup, 3),
        "shard_execute_seconds": round(exec_seconds, 4),
        "accounting_seconds": round(merge_seconds, 4),
        "accounting_pct_of_crawl": round(merge_pct, 2),
        "lane_merge_overhead_pct": round(lane_merge_pct, 3),
        "merge_budget_pct": _MERGE_CEILING_PCT,
    })
    # The merge the parallel path *adds* over sequential accounting is
    # the LaneStats fold; it must stay within the documented budget.
    assert lane_merge_pct < _MERGE_CEILING_PCT


def _merge_cost(web):
    """Time shard execution vs the canonical-order accounting replay."""
    crawl = crawl_configs(web, PARALLEL_CONFIG)[0]
    tasks = [
        ShardTask(crawl=crawl, shard_index=shard.index, sites=shard.sites,
                  faults=PARALLEL_CONFIG.faults)
        for shard in plan_shards(web.seed_list.sites)
    ]
    engine = build_filter_engine(web.registry)
    t0 = time.perf_counter()
    results = list(execute_shards(web, tasks, engine, workers=1))
    exec_seconds = time.perf_counter() - t0

    dataset = StudyDataset(engine=engine)
    site_total = len(web.seed_list.sites)
    t1 = time.perf_counter()
    lane_total = LaneStats()
    accountant = CrawlAccountant(crawl, site_total)
    with accountant:
        for result in results:
            for outcome in result.outcomes:
                accountant.record_site(outcome)
            dataset.merge(result.fold)
            lane_total.merge(result.lane)
        accountant.finish(lane_total)
    merge_seconds = time.perf_counter() - t1

    # The parallel-specific part alone: folding per-shard lane stats.
    lanes = [result.lane for result in results]
    t2 = time.perf_counter()
    for _ in range(100):
        total = LaneStats()
        for lane in lanes:
            total.merge(lane)
    lane_merge_seconds = (time.perf_counter() - t2) / 100.0
    return exec_seconds, merge_seconds, lane_merge_seconds
