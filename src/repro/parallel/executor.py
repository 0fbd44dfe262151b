"""Dispatch shard tasks inline or across a multiprocessing pool.

The executor is deliberately dumb: it streams one ``ShardResult`` per
task, in task order, each as soon as it is done — so the caller merges
(and journals) a shard while later shards still crawl, and scheduling
jitter in the pool can never reach an artifact.

``workers=1`` executes inline in the parent process, one task per
result drawn (no pickling, no pool), which keeps the default study
path dependency-free and makes the single-worker run the reference the
multi-worker run must match byte-for-byte.
"""

from __future__ import annotations

import multiprocessing
from typing import Iterator

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


class ParallelExecutionError(RuntimeError):
    """A shard worker failed; the study cannot merge a complete crawl."""

    def __init__(self, task: ShardTask, cause: BaseException) -> None:
        super().__init__(
            f"shard worker failed (crawl {task.crawl.index}, "
            f"shard {task.shard_index}): {cause!r}"
        )


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
) -> Iterator[ShardResult]:
    """Stream one result per task, in task order, as each is done.

    Inline, each task runs when its result is drawn; a pool runs ahead
    of the draws. ``engine`` labels every crawled resource where its
    shard runs (see :func:`run_shard`); it must be the engine the
    web's registry builds, which is what workers without fork
    inheritance rebuild. Raises :class:`ParallelExecutionError` when
    any worker dies; a partial merge would silently skew every
    downstream table.
    """
    if workers <= 1 or len(tasks) <= 1:
        for task in tasks:
            yield run_shard(web, task, engine)
        return
    context = _start_context()
    prime_worker_web(spec, web, engine)
    with context.Pool(processes=min(workers, len(tasks))) as pool:
        results = pool.imap(run_shard_task, tasks)
        for task in tasks:
            try:
                result = next(results)
            except Exception as error:
                raise ParallelExecutionError(task, error) from error
            yield result
