"""Deterministic sharded crawl execution.

The paper's campaign got its scale from parallel crawler instances;
this package gives the reproduction the same shape without giving up
its byte-reproducibility contract. The seed list is partitioned into
fixed-size, rank-ordered shards (:func:`plan_shards`) whose boundaries
depend only on the seed list — never on the worker count. Each
(crawl, shard) pair is crawled on its own lane (browser + event bus +
fault-injector event stream), inline or on a process pool
(:func:`execute_shards`), and the results stream back in task order,
each merged into the study (its sites counted by the crawl accountant
in canonical site-rank order, its one dataset fold merged, the shard
journaled as one record) as soon as it is done. A worker that raises
or dies fails the study with :class:`ParallelExecutionError`.

Because outcome production never touches the obs tick clock, replaying
outcomes parent-side reproduces the exact span/event/counter stream a
sequential crawl would have written: ``--workers N`` artifacts are
byte-identical to ``--workers 1`` for every fault profile.
"""

from repro.parallel.executor import ParallelExecutionError, execute_shards
from repro.parallel.shards import DEFAULT_SHARD_SIZE, Shard, plan_shards
from repro.parallel.worker import ShardResult, ShardTask, run_shard

__all__ = [
    "DEFAULT_SHARD_SIZE",
    "ParallelExecutionError",
    "Shard",
    "ShardResult",
    "ShardTask",
    "execute_shards",
    "plan_shards",
    "run_shard",
]
