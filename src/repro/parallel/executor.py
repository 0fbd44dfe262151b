"""Dispatch shard tasks inline or across a process pool.

The executor is deliberately dumb: it streams one ``ShardResult`` per
task, in task order, each as soon as it is done — so the caller merges
(and journals) a shard while later shards still crawl, and scheduling
jitter in the pool can never reach an artifact.

``workers=1`` executes inline in the parent process, one task per
result drawn (no pickling, no pool), which keeps the default study
path dependency-free and makes the single-worker run the reference the
multi-worker run must match byte-for-byte. More workers run on a
``concurrent.futures.ProcessPoolExecutor``, which fails every
unfinished task when a worker dies instead of waiting for it.
"""

from __future__ import annotations

import multiprocessing
from typing import Iterator

from repro.filters import CompiledFilterEngine
from repro.parallel.worker import (
    ShardResult,
    ShardTask,
    install_worker,
    run_shard,
    run_shard_task,
)
from repro.web.server import SyntheticWeb


class ParallelExecutionError(RuntimeError):
    """A shard worker failed; the study cannot merge a complete crawl."""

    def __init__(self, task: ShardTask, cause: BaseException) -> None:
        super().__init__(
            f"shard worker failed (crawl {task.crawl.index}, "
            f"shard {task.shard_index}): {cause!r}"
        )


def _start_context() -> multiprocessing.context.BaseContext:
    # Fork lets workers inherit the parent's already-built web and
    # engine copy-on-write; elsewhere each worker unpickles them once.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def execute_shards(
    web: SyntheticWeb,
    tasks: list[ShardTask],
    engine: CompiledFilterEngine,
    workers: int = 1,
) -> Iterator[ShardResult]:
    """Stream one result per task, in task order, as each is done.

    Inline, each task runs when its result is drawn; a pool runs ahead
    of the draws. ``engine`` labels every crawled resource where its
    shard runs (see :func:`run_shard`). Raises
    :class:`ParallelExecutionError` naming the first task, in task
    order, that did not finish when a worker raises or dies; a partial
    merge would silently skew every downstream table. Closing the
    stream cancels every task not yet handed to a worker and waits for
    the rest.
    """
    if workers <= 1 or len(tasks) <= 1:
        for task in tasks:
            yield run_shard(web, task, engine)
        return
    # Imported here, so that importing the package does not pay for it.
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        max_workers=min(workers, len(tasks)),
        mp_context=_start_context(),
        initializer=install_worker,
        initargs=(web, engine),
    )
    try:
        results = pool.map(run_shard_task, tasks)
        for task in tasks:
            try:
                result = next(results)
            except Exception as error:
                raise ParallelExecutionError(task, error) from error
            yield result
    finally:
        pool.shutdown(cancel_futures=True)
