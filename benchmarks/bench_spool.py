"""Spool durability and incremental-analysis cost, end to end.

Measures, at the configured bench preset,

* the **spooled study**: the full crawl with every checkpoint going
  through the write-ahead spool (the durability tax on the hot path);
* **append throughput**: replaying every journal payload through
  ``SpoolStore.append`` — frame encode, CRC, flush — in records/s;
* **recovery scan**: re-opening the spool after a simulated torn-tail
  crash (the cost a resume pays before its first append);
* **import** into a v2 dataset file; and
* **incremental analysis**: after growing the spool by the tail of
  crawl 2 (~the last half of its segments — the growth shape that
  keeps the derived A&A label set stable), ``AnalysisEngine.run`` with
  the spool's slices and a state cache must decode and fold only the
  new records. The gated invariant is the *work* ratio — views folded
  over total records stays ≤ 0.25 — not wall-clock: at bench scales
  the full sweep is already sub-second, dominated by file-open and
  labeling fixed costs that incremental pays too, so wall parity is
  expected and only sanity-bounded here.

Results land in ``results/bench/BENCH_SPOOL.json`` and feed the
``repro perf check`` history gate like every other bench.
"""

import time

from conftest import BENCH_CONFIG, write_bench_json

from repro.analysis.cache import StageCache, labeler_fingerprint
from repro.analysis.engine import AnalysisEngine, DatasetSource
from repro.analysis.stage import study_stages
from repro.cli import _spool_slices
from repro.crawler.persistence import open_dataset
from repro.experiments.runner import run_study
from repro.spool.importer import import_spool
from repro.spool.segment import list_segments, read_segment
from repro.spool.store import SpoolStore
from repro.util.serialization import dumps

ARTIFACTS = (
    "table1", "table2", "table3", "table4", "table5",
    "figure3", "blocking", "overall",
)


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def test_spool_durability_and_incremental(tmp_path):
    spool = tmp_path / "spool"
    _study, study_seconds = _timed(
        lambda: run_study(BENCH_CONFIG, spool_dir=spool)
    )
    payloads = [
        (info.shard, payload)
        for info in list_segments(spool)
        for payload in read_segment(info.path)
    ]
    spool_bytes = sum(info.size for info in list_segments(spool))

    # Append throughput: every payload through the framed, CRC'd,
    # flushed append path.
    def replay():
        store = SpoolStore.open(tmp_path / "throughput")
        for shard, payload in payloads:
            store.append(shard, payload)
        store.seal_active()
        return store

    _store, append_seconds = _timed(replay)

    # Recovery scan after a simulated torn-tail crash.
    scan_root = tmp_path / "throughput"
    victim = list_segments(scan_root)[-1]
    torn_open = victim.path.with_suffix(".open")
    victim.path.rename(torn_open)
    data = torn_open.read_bytes()
    torn_open.write_bytes(data[: len(data) - 3])
    recovered, recovery_seconds = _timed(
        lambda: SpoolStore.open(scan_root)
    )
    assert recovered.recovery.torn_records == 1

    # Regranulate for incremental: ~64 segments so a crawl02 tail is
    # a meaningful growth increment.
    fine = tmp_path / "fine"
    segment_bytes = max(64 * 1024, spool_bytes // 64)
    fine_store = SpoolStore.open(fine, segment_bytes=segment_bytes)
    for shard, payload in payloads:
        fine_store.append(shard, payload)
    fine_store.seal_active()

    crawl02 = [i for i in list_segments(fine) if i.shard == "crawl02"]
    late = crawl02[-max(1, len(crawl02) * 45 // 100):]
    stash = tmp_path / "stash"
    stash.mkdir()
    for info in late:
        info.path.rename(stash / info.path.name)

    dataset = tmp_path / "dataset.jsonl"
    _imp, import_seconds = _timed(lambda: import_spool(fine, dataset))
    engine = AnalysisEngine(
        stages=study_stages(), cache=StageCache(tmp_path / "state-cache")
    )
    cold, cold_seconds = _timed(lambda: engine.run(
        DatasetSource.from_file(dataset),
        slices=_spool_slices(fine, open_dataset(dataset)),
    ))

    for info in late:
        (stash / info.path.name).rename(info.path)
    import_spool(fine, dataset)

    warm_slices = _spool_slices(fine, open_dataset(dataset))
    warm, warm_seconds = _timed(lambda: engine.run(
        DatasetSource.from_file(dataset),
        slices=warm_slices,
    ))
    full, full_seconds = _timed(
        lambda: AnalysisEngine(stages=study_stages()).run(
            DatasetSource.from_file(dataset)
        )
    )

    # Correctness before cost: the growth left the labeler stable,
    # incremental folded only the new segments, and the artifacts are
    # byte-identical to the full re-fold.
    assert labeler_fingerprint(
        warm.labeler, warm.resolver
    ) == labeler_fingerprint(cold.labeler, cold.resolver)
    # A late segment whose sites opened no sockets contributes zero
    # records and so no slice; fold exactly the slices the re-import
    # added, never more than the segments restored.
    assert warm.segments_folded == len(warm_slices) - cold.segments_folded
    assert 0 < warm.segments_folded <= len(late)
    assert warm.segments_cached == cold.segments_folded
    for name in ARTIFACTS:
        assert dumps(warm[name]) == dumps(full[name]), name

    # The work-ratio gate: incremental decodes only the new tail.
    work_ratio = warm.views_folded / full.views_folded
    assert work_ratio <= 0.25
    # Wall sanity only (see module docstring for why not 0.25).
    assert warm_seconds <= max(2.0 * full_seconds, full_seconds + 0.5)

    write_bench_json("spool", {
        "preset": BENCH_CONFIG.name,
        "socket_records": full.views_folded,
        "spool_bytes": spool_bytes,
        "segments": len(list_segments(fine)),
        "spooled_study_seconds": round(study_seconds, 4),
        "append": {
            "records": len(payloads),
            "seconds": round(append_seconds, 4),
            "records_per_second": round(
                len(payloads) / append_seconds, 1
            ),
        },
        "recovery_scan_seconds": round(recovery_seconds, 4),
        "import_seconds": round(import_seconds, 4),
        "incremental": {
            "cold_seconds": round(cold_seconds, 4),
            "warm_seconds": round(warm_seconds, 4),
            "full_seconds": round(full_seconds, 4),
            "late_segments": len(late),
            "views_folded_warm": warm.views_folded,
            "work_ratio_warm_over_full": round(work_ratio, 4),
            "wall_ratio_warm_over_full": round(
                warm_seconds / full_seconds, 4
            ),
        },
    })
