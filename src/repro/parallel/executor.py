"""Dispatch shard tasks inline or across a multiprocessing pool.

The executor is deliberately dumb: it runs every task and hands back a
``{(crawl_index, shard_index): ShardResult}`` map. All ordering
guarantees live in the caller, which folds results in canonical shard
order regardless of completion order — so scheduling jitter in the
pool can never reach an artifact.

``workers=1`` executes inline in the parent process (no pickling, no
pool), which keeps the default study path dependency-free and makes
the single-worker run the reference the multi-worker run must match
byte-for-byte.
"""

from __future__ import annotations

import multiprocessing

from repro.filters import CompiledFilterEngine
from repro.parallel.worker import (
    ShardResult,
    ShardTask,
    WebSpec,
    prime_worker_web,
    run_shard,
    run_shard_task,
)
from repro.web.server import SyntheticWeb

ShardKey = tuple[int, int]


class ParallelExecutionError(RuntimeError):
    """A shard worker failed; the study cannot merge a complete crawl."""

    def __init__(self, key: ShardKey, cause: BaseException) -> None:
        crawl_index, shard_index = key
        super().__init__(
            f"shard worker failed (crawl {crawl_index}, "
            f"shard {shard_index}): {cause!r}"
        )
        self.key = key


def _start_context() -> multiprocessing.context.BaseContext:
    # Fork lets workers inherit the parent's already-built web
    # copy-on-write; elsewhere workers rebuild it from the WebSpec.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def execute_shards(
    web: SyntheticWeb,
    spec: WebSpec,
    tasks: list[ShardTask],
    engine: CompiledFilterEngine,
    workers: int = 1,
) -> dict[ShardKey, ShardResult]:
    """Run every task, returning results keyed by (crawl, shard).

    ``engine`` labels every crawled resource where its shard runs (see
    :func:`run_shard`); it must be the engine the web's registry
    builds, which is what workers without fork inheritance rebuild.
    Raises :class:`ParallelExecutionError` when any worker dies; a
    partial merge would silently skew every downstream table.
    """
    if workers <= 1 or len(tasks) <= 1:
        return {
            (task.crawl.index, task.shard_index): run_shard(web, task, engine)
            for task in tasks
        }
    context = _start_context()
    prime_worker_web(spec, web, engine)
    results: dict[ShardKey, ShardResult] = {}
    with context.Pool(processes=min(workers, len(tasks))) as pool:
        pending = [
            ((task.crawl.index, task.shard_index),
             pool.apply_async(run_shard_task, (task,)))
            for task in tasks
        ]
        for key, handle in pending:
            try:
                results[key] = handle.get()
            except Exception as error:
                raise ParallelExecutionError(key, error) from error
    return results
