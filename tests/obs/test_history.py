"""The benchmark history store and its regression gate.

Pins the ISSUE acceptance pair directly: a synthetic 2x slowdown
appended to a healthy history must trip the gate, and an unchanged
re-run must not.
"""

import json
import subprocess

import pytest

from repro.obs.history import (
    HIGHER_IS_BETTER,
    LOWER_IS_BETTER,
    BenchRecord,
    append_history,
    check_history,
    check_json,
    fingerprint_key,
    flatten_metrics,
    git_sha,
    hardware_fingerprint,
    metric_direction,
    read_history,
    records_for_payload,
    render_check,
)


def _rec(value, bench="parallel", metric="workers_4_seconds",
         hardware="hw1", context="bench"):
    return BenchRecord(bench=bench, metric=metric, value=value,
                       hardware=hardware, context=context)


# -- provenance -------------------------------------------------------------


def test_fingerprint_is_stable_and_short():
    hw = hardware_fingerprint()
    assert set(hw) == {"cpu_count", "platform", "python"}
    key = fingerprint_key(hw)
    assert key == fingerprint_key(hw)
    assert len(key) == 12
    assert int(key, 16) >= 0
    assert fingerprint_key({"cpu_count": 1}) != key


def test_git_sha_in_repo_and_fallback(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    identity = ["-c", "user.name=bench", "-c", "user.email=bench@example.com",
                "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"],
                 [*identity, "commit", "-q", "--allow-empty", "-m", "empty"]):
        subprocess.run(["git", *args], cwd=repo, check=True,
                       capture_output=True)
    sha = git_sha(repo)
    assert len(sha) == 40 and int(sha, 16) >= 0
    # A plain sibling dir is not a repo: degrade, never raise.
    plain = tmp_path / "plain"
    plain.mkdir()
    assert git_sha(plain) == "unknown"


# -- payload flattening -----------------------------------------------------


def test_flatten_walks_nests_lists_and_skips_non_numbers():
    flat = flatten_metrics({
        "speedup": 1.4,
        "ok": True,                      # bool is not a metric
        "label": "smoke",                # nor is a string
        "nested": {"p99_ms": 12, "name": "x"},
        "rows": [{"sockets": 3}, {"sockets": 5}],
        "git_sha": "deadbeef",           # provenance, skipped
        "hardware": {"cpu_count": 64},   # provenance, skipped
    })
    assert flat == {
        "speedup": 1.4,
        "nested.p99_ms": 12,
        "rows.0.sockets": 3,
        "rows.1.sockets": 5,
    }


def test_records_for_payload_carries_provenance():
    records = records_for_payload(
        "faults", {"bare_seconds": 0.5}, sha="abc", hardware="hw",
        context="bench-smoke",
    )
    assert len(records) == 1
    record = records[0]
    assert record.group_key() == (
        "faults", "bare_seconds", "hw", "bench-smoke")
    assert record.git_sha == "abc"
    assert record.to_json()["version"] == 1


def test_records_for_payload_keeps_only_gated_metrics():
    # Counts and _pct ratios have no perf semantics: the gate never
    # reads them, so they stay in the BENCH_*.json payload only.
    records = records_for_payload(
        "b", {"x_seconds": 1.0, "rows": 12, "overhead_pct": 3.5}
    )
    assert [r.metric for r in records] == ["x_seconds"]


# -- store round-trip -------------------------------------------------------


def test_append_read_round_trip_skips_corrupt_lines(tmp_path):
    path = tmp_path / "deep" / "history.jsonl"
    first = records_for_payload("b", {"x_seconds": 1.0}, sha="s1")
    second = records_for_payload("b", {"x_seconds": 1.1}, sha="s2")
    assert append_history(path, first) == 1
    with path.open("a") as handle:
        handle.write("{not json\n")
        handle.write(json.dumps({"bench": "b"}) + "\n")  # incomplete
        handle.write("\n")
    append_history(path, second)
    records, skipped = read_history(path)
    assert [r.value for r in records] == [1.0, 1.1]
    assert [r.git_sha for r in records] == ["s1", "s2"]
    assert skipped == 2


def test_history_lines_are_canonical_json(tmp_path):
    path = tmp_path / "history.jsonl"
    append_history(path, [_rec(1.5)])
    line = path.read_text().strip()
    assert line == json.dumps(json.loads(line),
                              separators=(",", ":"), sort_keys=True)


# -- direction inference ----------------------------------------------------

@pytest.mark.parametrize("metric,expected", [
    ("workers_4_seconds", LOWER_IS_BETTER),
    ("timings.replay.p99_ms", LOWER_IS_BETTER),
    ("overhead_seconds", LOWER_IS_BETTER),
    ("trace_bytes", LOWER_IS_BETTER),
    ("speedup_workers_4", HIGHER_IS_BETTER),
    ("flame_throughput_spans_per_sec", HIGHER_IS_BETTER),
    ("budget_pct", None),               # a budget is a constant
    ("total_sockets", None),            # a count is a fact
    ("attribution_pct", None),
    # A _pct metric is already a ratio of two timings; ratio-gating it
    # compounds jitter. Its bench's own budget assert is the contract.
    ("zero_fault_overhead_pct", None),
])
def test_metric_direction(metric, expected):
    assert metric_direction(metric) == expected


def test_direction_uses_leaf_not_path():
    # The dotted path may mention seconds; only the leaf decides.
    assert metric_direction("workers_4_seconds.count") is None


# -- the gate ---------------------------------------------------------------


def _healthy(n=5, value=1.0):
    return [_rec(value) for _ in range(n)]


def test_unchanged_rerun_passes():
    check = check_history(_healthy(6))
    assert check.ok
    assert check.compared == 1
    assert "no regressions" in render_check(check)


def test_2x_slowdown_trips_the_gate():
    check = check_history(_healthy(5) + [_rec(2.0)])
    assert not check.ok
    regression = check.regressions[0]
    assert regression.ratio == 2.0
    assert regression.direction == LOWER_IS_BETTER
    assert regression.baseline == 1.0
    assert "2.00x" in regression.describe()
    assert "REGRESSION" in render_check(check)
    assert check_json(check)["ok"] is False


def test_speedup_collapse_trips_the_gate():
    series = [_rec(2.0, metric="speedup_workers_4") for _ in range(4)]
    series.append(_rec(0.8, metric="speedup_workers_4"))
    check = check_history(series)
    assert not check.ok
    assert check.regressions[0].direction == HIGHER_IS_BETTER
    # …and a speedup going UP is never a regression.
    assert check_history(series[:-1] + [_rec(4.0, metric="speedup_workers_4")]).ok


def test_tolerance_band_absorbs_noise():
    assert check_history(_healthy(5) + [_rec(1.4)]).ok       # +40% < 50%
    assert not check_history(_healthy(5) + [_rec(1.6)]).ok   # +60% > 50%
    assert check_history(_healthy(5) + [_rec(1.2)],
                         tolerance=0.1).regressions


def test_min_delta_guards_near_zero_baselines():
    series = [_rec(0.001) for _ in range(5)] + [_rec(0.004)]
    assert check_history(series).ok            # 4x, but |Δ| < 0.01
    assert not check_history(series, min_delta=0.0001).ok


def test_window_bounds_the_baseline():
    # Old slow records must age out of the rolling window.
    series = [_rec(9.0)] * 10 + [_rec(1.0)] * 6 + [_rec(2.0)]
    assert not check_history(series, window=5).ok
    assert check_history(series, window=16).ok  # median back in slow era


def test_first_appearance_is_fresh_not_compared():
    check = check_history([_rec(1.0)])
    assert check.ok
    assert check.fresh == 1 and check.compared == 0


def test_groups_do_not_cross_hardware_or_context():
    # 2x move, but on different hardware / preset: incomparable.
    series = _healthy(5) + [_rec(2.0, hardware="hw2")]
    assert check_history(series).ok
    series = _healthy(5) + [_rec(2.0, context="bench-smoke")]
    assert check_history(series).ok


def test_ungated_metrics_never_regress():
    series = [_rec(10, metric="total_sockets") for _ in range(5)]
    series.append(_rec(500, metric="total_sockets"))
    check = check_history(series)
    assert check.ok and check.ungated == 1
