"""The process pool: what a worker needs reaches it once, and a failed
worker fails the study instead of hanging it.

A spawned worker starts from a fresh interpreter, so it crawls on the
web and engine it unpickled from the pool's initializer arguments; its
shard folds must match the inline run's. A worker that raises or dies
(the OOM killer, ``kill -9``) must surface as
:class:`~repro.parallel.ParallelExecutionError`, and a study that stops
early must leave no worker behind. The failing studies run in a child
process with its own session, so a pool that waits forever for a dead
worker fails the test on its time bound instead of hanging the suite.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.parallel.executor as executor
from repro.crawler.persistence import dataset_fingerprint
from repro.experiments.runner import crawl_configs
from repro.parallel import ShardTask, execute_shards, plan_shards
from tests.conftest import TINY_STUDY_CONFIG

#: Seconds a failing study gets to report its failure.
BOUND_S = 60

#: Runs a one-crawl smoke study on two workers, with shard 0 failing
#: as ``argv[1]`` says, and prints the error it ended with and the
#: pool workers still alive.
FAILING_STUDY = """\
import dataclasses, multiprocessing, os, signal, sys

import repro.experiments.runner as runner
import repro.parallel.worker as worker
from repro.web.server import SyntheticWeb, WebScale

fault = sys.argv[1]
run_shard = worker.run_shard


def failing_shard(web, task, engine):
    if task.shard_index == 0:
        if fault == "sigkill":
            os.kill(os.getpid(), signal.SIGKILL)
        if fault == "raises":
            raise RuntimeError("injected shard failure")
    return run_shard(web, task, engine)


def failing_merge(accountant, outcome):
    raise RuntimeError("injected merge failure")


worker.run_shard = failing_shard
if fault == "merge":
    runner.CrawlAccountant.record_site = failing_merge
config = dataclasses.replace(runner.SMOKE_CONFIG, crawls=(0,))
web = SyntheticWeb(
    scale=WebScale(sample_scale=config.resolved_sample_scale,
                   entity_scale=config.scale),
    seed=config.seed,
)
try:
    runner.run_crawls(web, config, workers=2)
except Exception as error:
    print(f"{type(error).__name__}: {error}")
else:
    print("no error")
print(len(multiprocessing.active_children()))
"""

#: The first line each failure must print: a dead or raising worker
#: names the first unfinished shard, and a failed merge is its own.
FAILURES = {
    "sigkill": "ParallelExecutionError: shard worker failed "
               "(crawl 0, shard 0): BrokenProcessPool(",
    "raises": "ParallelExecutionError: shard worker failed "
              "(crawl 0, shard 0): RuntimeError('injected shard failure')",
    "merge": "RuntimeError: injected merge failure",
}


def test_spawned_workers_fold_what_inline_does(tiny_web, filter_engine,
                                               monkeypatch):
    crawl = crawl_configs(tiny_web, TINY_STUDY_CONFIG)[0]
    tasks = [
        ShardTask(crawl=crawl, shard_index=shard.index, sites=shard.sites,
                  faults="none")
        for shard in plan_shards(tiny_web.seed_list.sites, shard_size=4)[:2]
    ]
    inline = [dataset_fingerprint(result.fold) for result
              in execute_shards(tiny_web, tasks, filter_engine)]
    monkeypatch.setattr(executor, "_start_context",
                        lambda: multiprocessing.get_context("spawn"))
    spawned = [dataset_fingerprint(result.fold) for result
               in execute_shards(tiny_web, tasks, filter_engine, workers=2)]
    assert spawned == inline


@pytest.mark.parametrize("fault", sorted(FAILURES))
def test_failed_study_ends_in_bounded_time_with_no_worker_left(fault):
    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    study = subprocess.Popen(
        [sys.executable, "-c", FAILING_STUDY, fault], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = study.communicate(timeout=BOUND_S)
    except subprocess.TimeoutExpired:
        os.killpg(study.pid, signal.SIGKILL)
        study.communicate()
        pytest.fail(f"the study did not fail within {BOUND_S} s")
    try:
        # Anything left in the session outlived the study.
        os.killpg(study.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    else:
        pytest.fail("a pool worker outlived the study")
    assert study.returncode == 0, err
    message, children = out.splitlines()
    assert message.startswith(FAILURES[fault])
    assert children == "0"
