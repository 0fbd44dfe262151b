"""Streaming analysis engine vs the materialized view list.

Measures, at the bench scale (≥4× the smoke preset on every axis),

* the **materialized** path: load every socket record from the saved
  dataset into one in-memory list, classify it into a second list of
  views, then compute the eight study artifacts from that list (how a
  saved dataset had to be re-analyzed before the engine existed);
* the **streaming** path: one ``AnalysisEngine`` sweep over the saved
  v2 dataset file, folding all eight stage accumulators per view with
  no view list retained;
* the same sweep while **storing** to a cold stage cache; and
* the **warm-cache** re-run, which restores every stage's state, folds
  no view and only finalizes.

Peak memory is measured per phase with ``tracemalloc`` (traced Python
allocations — per-phase and comparable, unlike the process-wide RSS
high-water mark, which never decreases once the first phase raises
it); the process ``ru_maxrss`` is reported once alongside for context.
Wall-clock numbers are from ``time.perf_counter`` on whatever hardware
runs the bench — compare ratios, not absolutes. Results land in
``results/bench/BENCH_ANALYSIS.json``.
"""

import os
import platform
import resource
import time
import tracemalloc

from conftest import BENCH_CONFIG, write_bench_json

from repro.analysis.cache import StageCache
from repro.analysis.classify import classify_sockets
from repro.analysis.engine import AnalysisEngine, DatasetSource
from repro.analysis.stage import study_stages
from repro.analysis.blocking import compute_blocking_stats
from repro.analysis.figure3 import compute_figure3
from repro.analysis.stats import compute_overall_stats
from repro.analysis.table1 import compute_table1
from repro.analysis.table2 import compute_table2
from repro.analysis.table3 import compute_table3
from repro.analysis.table4 import compute_table4
from repro.analysis.table5 import compute_table5
from repro.crawler.persistence import open_dataset, save_dataset
from repro.util.serialization import dumps


def _measured(fn):
    """(result, wall-clock seconds, traced-alloc peak bytes)."""
    tracemalloc.start()
    t0 = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, seconds, peak


def _materialized(path, engine):
    reader = open_dataset(path, engine=engine)
    dataset = reader.dataset
    dataset.socket_records.extend(reader.iter_records())
    labeler = dataset.derive_labeler()
    resolver = dataset.derive_resolver(labeler)
    views = classify_sockets(dataset, labeler, resolver)
    meta = dataset.meta
    return {
        "table1": compute_table1(views, meta),
        "table2": compute_table2(views),
        "table3": compute_table3(views),
        "table4": compute_table4(views),
        "table5": compute_table5(dataset, views, labeler, resolver),
        "figure3": compute_figure3(views, meta),
        "blocking": compute_blocking_stats(dataset, views, labeler,
                                           resolver),
        "overall": compute_overall_stats(views),
    }


def test_streaming_vs_materialized(bench_dataset, tmp_path):
    dataset, _ = bench_dataset
    path = tmp_path / "bench-dataset.jsonl"
    record_count = save_dataset(path, dataset)

    # Both paths read the same file and reuse the same filter engine;
    # what varies is record/view materialization and caching.
    def source():
        return DatasetSource.from_file(path, engine=dataset.engine)

    materialized, mat_seconds, mat_peak = _measured(
        lambda: _materialized(path, dataset.engine)
    )
    streamed, cold_seconds, cold_peak = _measured(
        lambda: AnalysisEngine(stages=study_stages()).run(source())
    )
    cache_dir = tmp_path / "cache"
    stored, store_seconds, store_peak = _measured(
        lambda: AnalysisEngine(stages=study_stages(),
                               cache=StageCache(cache_dir)).run(source())
    )
    warm, warm_seconds, warm_peak = _measured(
        lambda: AnalysisEngine(stages=study_stages(),
                               cache=StageCache(cache_dir)).run(source())
    )

    # Correctness first: every path agrees byte-for-byte.
    for name, artifact in materialized.items():
        assert dumps(streamed[name]) == dumps(artifact), name
        assert dumps(stored[name]) == dumps(artifact), name
        assert dumps(warm[name]) == dumps(artifact), name

    # The tentpole claims: folding per view beats materializing the
    # view list on peak memory, and a warm cache skips the sweep.
    assert cold_peak < mat_peak
    assert warm.views_folded == 0 and len(warm.cached) == 8
    assert warm_seconds < store_seconds

    payload = {
        "preset": BENCH_CONFIG.name,
        "scale": BENCH_CONFIG.scale,
        "sample_scale": BENCH_CONFIG.resolved_sample_scale,
        "pages_per_site": BENCH_CONFIG.pages_per_site,
        "socket_records": record_count,
        "views_folded_cold": streamed.views_folded,
        "materialized": {"seconds": round(mat_seconds, 4),
                         "traced_alloc_peak_bytes": mat_peak},
        "streaming_cold": {"seconds": round(cold_seconds, 4),
                           "traced_alloc_peak_bytes": cold_peak},
        "streaming_cache_store": {"seconds": round(store_seconds, 4),
                                  "traced_alloc_peak_bytes": store_peak},
        "warm_cache": {"seconds": round(warm_seconds, 4),
                       "traced_alloc_peak_bytes": warm_peak},
        "peak_ratio_materialized_over_streaming":
            round(mat_peak / cold_peak, 2),
        "warm_speedup_over_cold": round(cold_seconds / warm_seconds, 1),
        "memory_qualifier": "tracemalloc traced-alloc peaks per phase, "
                            "not RSS; ru_maxrss is the whole process "
                            "high-water mark",
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "hardware": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
    }
    write_bench_json("analysis", payload)
    print()
    print(f"materialized: {mat_seconds:.3f}s, peak {mat_peak/1e6:.1f} MB")
    print(f"streaming:    {cold_seconds:.3f}s, peak {cold_peak/1e6:.1f} MB")
    print(f"warm cache:   {warm_seconds:.3f}s, peak {warm_peak/1e6:.1f} MB")
