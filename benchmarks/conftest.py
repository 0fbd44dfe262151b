"""Shared benchmark fixtures.

The four-crawl dataset is built once per session (the expensive part);
each table/figure bench then measures its analysis stage and prints the
regenerated artifact next to the paper's values. The shared study runs
with a full obs context, and its per-stage breakdown is exported to
``results/bench/BENCH_OBS.json`` at the end of the session.

Every bench payload funnels through :func:`write_bench_json`, which
stamps provenance (git sha + hardware fingerprint — a bench number
without the machine it ran on is noise) and appends one canonical
record per numeric metric to ``results/bench/history.jsonl``, the
longitudinal store ``repro perf check`` regression-gates.

``REPRO_BENCH_PRESET=smoke`` shrinks the shared study to CI scale;
the preset name rides along as the history records' ``context`` so
smoke-scale numbers never get compared against full bench-scale ones.

:func:`speed_meter` lends the benches perfbench's ``SpeedMeter``, which
rescales a timed block to a quiet core of the reference host.
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

from repro.experiments import StudyConfig
from repro.experiments.runner import SyntheticWeb, WebScale, analyze, run_crawls
from repro.obs import Obs
from repro.util.atomicio import atomic_write
from repro.obs.history import (
    append_history,
    fingerprint_key,
    git_sha,
    hardware_fingerprint,
    records_for_payload,
)

# Bench preset: enough scale for every entity to appear, small enough
# that the one-time crawl stays in tens of seconds. CI's perf-gate job
# runs the same suite at smoke scale via REPRO_BENCH_PRESET.
_PRESETS = {
    "bench": StudyConfig(scale=0.05, sample_scale=0.01, pages_per_site=10,
                         name="bench"),
    "smoke": StudyConfig(scale=0.004, sample_scale=0.002, pages_per_site=2,
                         name="bench-smoke"),
}
BENCH_CONFIG = _PRESETS[os.environ.get("REPRO_BENCH_PRESET", "bench")]

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = REPO_ROOT / "results" / "bench"
BENCH_OBS_PATH = BENCH_DIR / "BENCH_OBS.json"
HISTORY_PATH = Path(
    os.environ.get("REPRO_BENCH_HISTORY", str(BENCH_DIR / "history.jsonl"))
)

def speed_meter() -> type:
    """``perfbench/speed.py``'s ``SpeedMeter`` class, loaded on first use.

    The module builds its ~10 MB calibration table when it loads, so
    call this inside the bench that times with it, not at import. It
    is registered as ``speed``, the name ``perfbench/run.py`` imports
    it under, so a process loads it once.
    """
    module = sys.modules.get("speed")
    if module is None:
        spec = importlib.util.spec_from_file_location(
            "speed", REPO_ROOT / "perfbench" / "speed.py"
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules["speed"] = module
        spec.loader.exec_module(module)
    return module.SpeedMeter


# Provenance is constant for the session; resolve it once.
_HARDWARE = hardware_fingerprint()
_HARDWARE_KEY = fingerprint_key(_HARDWARE)
_GIT_SHA = git_sha(REPO_ROOT)


def write_bench_json(name: str, payload: dict) -> Path:
    """Write one benchmark's results to ``results/bench/BENCH_<NAME>.json``.

    Every bench module funnels its measured numbers through here so the
    emission format stays uniform (sorted keys, two-space indent,
    trailing newline — diff-friendly when committed) and every payload
    carries provenance: the git sha and a canonical hardware
    fingerprint. Each numeric leaf with perf semantics is also appended
    to the history JSONL that ``repro perf check`` gates.
    """
    stamped = {
        **payload,
        "git_sha": _GIT_SHA,
        "hardware": {**_HARDWARE, "key": _HARDWARE_KEY},
    }
    path = BENCH_DIR / f"BENCH_{name.upper()}.json"
    atomic_write(
        path,
        json.dumps(stamped, indent=2, sort_keys=True) + "\n",
    )
    append_history(
        HISTORY_PATH,
        records_for_payload(name, payload, sha=_GIT_SHA,
                            hardware=_HARDWARE_KEY,
                            context=BENCH_CONFIG.name),
    )
    return path


@pytest.fixture(scope="session")
def bench_web():
    return SyntheticWeb(
        scale=WebScale(sample_scale=BENCH_CONFIG.resolved_sample_scale,
                       entity_scale=BENCH_CONFIG.scale),
        seed=BENCH_CONFIG.seed,
    )


@pytest.fixture(scope="session")
def bench_obs():
    """The shared study's observability context."""
    return Obs()


@pytest.fixture(scope="session")
def bench_dataset(bench_web, bench_obs):
    dataset, summaries = run_crawls(bench_web, BENCH_CONFIG, obs=bench_obs)
    return dataset, summaries


@pytest.fixture(scope="session")
def bench_study(bench_web, bench_dataset, bench_obs):
    dataset, summaries = bench_dataset
    result = analyze(BENCH_CONFIG, bench_web, dataset, summaries,
                     obs=bench_obs)
    _write_bench_obs(result.obs)
    return result


def _write_bench_obs(summary) -> None:
    """Per-stage breakdown next to the pytest-benchmark BENCH_*.json."""
    write_bench_json("obs", {
        "preset": BENCH_CONFIG.name,
        "ticks": summary.ticks,
        "stages": [
            {"stage": a.name, "spans": a.count, "ticks": a.total_ticks}
            for a in summary.aggregates
        ],
        "counters": summary.counters,
        "histograms": summary.histograms,
    })
