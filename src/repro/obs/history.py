"""The durable benchmark history store and its regression gate.

``BENCH_*.json`` files overwrite in place, so before this module the
repo had no perf *trajectory* — every PR's numbers displaced the last
PR's. Here every bench emission also appends canonical records to
``results/bench/history.jsonl``: one line per gated metric, carrying
the bench name, dotted metric path, value, git sha, and a hardware
fingerprint, so runs are only ever compared against runs from the same
kind of machine.

The regression gate (``repro perf check``) groups the history per
``(bench, metric, hardware, context)``, takes the latest record per
group, and compares it against the *median* of a rolling window of
prior records. It gates only the groups of the host it runs on
(:func:`fingerprint_key`): no later run can move another host's
groups, so their last verdict would stand for good. Direction is
inferred from the metric name
(``*_seconds`` regress upward, ``*speedup*`` regress downward;
unclassifiable metrics — table values, counts — are never gated). A
regression means the latest value moved past the tolerance band, and
the CLI exits 5 so CI can gate on it.

This is the one sanctioned write path of the perf observatory: the
OBS-PERF staticlint zone contract keeps ``repro.obs.perf`` and
``repro.obs.critical_path`` free of filesystem writes, and masks
``fs-write`` at this module's boundary.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

HISTORY_VERSION = 1

#: Default location of the append-only history, next to BENCH_*.json.
DEFAULT_HISTORY_PATH = Path("results") / "bench" / "history.jsonl"


# -- provenance -------------------------------------------------------------


def hardware_fingerprint() -> dict:
    """A canonical description of the machine benches ran on."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def fingerprint_key(hardware: dict | None = None) -> str:
    """A short stable key for one hardware fingerprint (12 hex chars
    of its canonical-JSON sha256) — the history grouping key and the
    CI cache key."""
    hardware = hardware if hardware is not None else hardware_fingerprint()
    canonical = json.dumps(hardware, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def git_sha(root: str | Path | None = None) -> str:
    """The current commit sha, or ``"unknown"``.

    A missing git binary, a non-repo directory, or any git failure
    must never crash a bench run — provenance degrades, benches don't.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(root) if root is not None else None,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    if out.returncode != 0 or not sha:
        return "unknown"
    return sha


# -- records ----------------------------------------------------------------


@dataclass(frozen=True)
class BenchRecord:
    """One (bench, metric) measurement with provenance.

    Attributes:
        bench: Bench name (``parallel``, ``faults``, …).
        metric: Dotted path of the numeric leaf inside the bench's
            payload (``workers_4_seconds``, ``hardware.cpu_count`` is
            excluded — provenance keys never become metrics).
        value: The measured number.
        git_sha: Commit the bench ran at (``"unknown"`` outside git).
        hardware: The machine's fingerprint key.
        context: Free-form comparability tag (the bench preset name);
            records only compare within one context.
    """

    bench: str
    metric: str
    value: float
    git_sha: str = "unknown"
    hardware: str = ""
    context: str = ""

    def group_key(self) -> tuple[str, str, str, str]:
        """Records compare only within this key."""
        return (self.bench, self.metric, self.hardware, self.context)

    def to_json(self) -> dict:
        return {
            "version": HISTORY_VERSION,
            "bench": self.bench,
            "metric": self.metric,
            "value": self.value,
            "git_sha": self.git_sha,
            "hardware": self.hardware,
            "context": self.context,
        }


#: Payload keys that are provenance, not measurements.
_NON_METRIC_KEYS = frozenset({"git_sha", "hardware", "hardware_key"})


def flatten_metrics(payload: dict, prefix: str = "") -> dict[str, float]:
    """Every numeric leaf of a bench payload, keyed by dotted path.

    Booleans and strings are not metrics; lists index their elements
    (``rows.0.total_sockets``). Provenance keys are skipped at the
    top level.
    """
    out: dict[str, float] = {}
    for key in sorted(payload):
        if not prefix and key in _NON_METRIC_KEYS:
            continue
        dotted = f"{prefix}{key}"
        value = payload[key]
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            out[dotted] = value
        elif isinstance(value, dict):
            out.update(flatten_metrics(value, prefix=f"{dotted}."))
        elif isinstance(value, (list, tuple)):
            indexed = {str(i): item for i, item in enumerate(value)}
            out.update(flatten_metrics(indexed, prefix=f"{dotted}."))
    return out


def records_for_payload(
    bench: str,
    payload: dict,
    sha: str = "unknown",
    hardware: str = "",
    context: str = "",
) -> list[BenchRecord]:
    """One :class:`BenchRecord` per gated numeric leaf of ``payload``.

    Leaves without perf semantics (:func:`metric_direction` is
    ``None``: counts, study statistics, ``_pct`` ratios) are left out —
    the gate never reads them, and the ``BENCH_*.json`` payload still
    carries every number.
    """
    flat = flatten_metrics(payload)
    return [
        BenchRecord(bench=bench, metric=metric, value=flat[metric],
                    git_sha=sha, hardware=hardware, context=context)
        for metric in sorted(flat)
        if metric_direction(metric) is not None
    ]


def append_history(path: str | Path, records: list[BenchRecord]) -> int:
    """Append records to the history JSONL; returns the count.

    Append-only by design — the longitudinal record is the point.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record.to_json(),
                                    separators=(",", ":"),
                                    sort_keys=True))
            handle.write("\n")
    return len(records)


def read_history(path: str | Path) -> tuple[list[BenchRecord], int]:
    """Parse the history file; returns (records, skipped lines).

    Unparseable or incomplete lines are skipped and counted, never
    fatal: one corrupt append must not wedge the CI gate forever.
    """
    records: list[BenchRecord] = []
    skipped = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
                record = BenchRecord(
                    bench=raw["bench"], metric=raw["metric"],
                    value=float(raw["value"]),
                    git_sha=raw.get("git_sha", "unknown"),
                    hardware=raw.get("hardware", ""),
                    context=raw.get("context", ""),
                )
            except (ValueError, TypeError, KeyError):
                skipped += 1
                continue
            records.append(record)
    return records, skipped


# -- the regression gate ----------------------------------------------------

LOWER_IS_BETTER = "lower"
HIGHER_IS_BETTER = "higher"

#: Metric-name fragments that mark a cost (regresses upward).
_LOWER_MARKERS = ("overhead", "latency", "p99", "p95")
_LOWER_SUFFIXES = ("_seconds", "_ns", "_ms", "_bytes", "_kb", "seconds")
#: …and a capability (regresses downward).
_HIGHER_MARKERS = ("speedup", "throughput", "qps", "ops_per_sec")


def metric_direction(metric: str) -> str | None:
    """Which way this metric regresses, or ``None`` when the name
    carries no perf semantics (study statistics, counts, budgets —
    those are correctness-tested elsewhere, never perf-gated).

    ``_pct`` metrics are never gated: a percentage is already a ratio
    (typically of two small timings), so ratio-gating it compounds the
    noise — a 4%-vs-9% overhead reading is the same handful of
    milliseconds jittering, not a regression. Every ``_pct`` metric the
    benches export carries its own absolute budget assert at the source;
    that assert, not the history gate, is its contract."""
    leaf = metric.rsplit(".", 1)[-1]
    if leaf.startswith("budget") or leaf.endswith(("_budget_pct", "_budget")):
        return None
    if leaf.endswith("_pct"):
        return None
    if any(marker in leaf for marker in _HIGHER_MARKERS):
        return HIGHER_IS_BETTER
    if leaf.endswith(_LOWER_SUFFIXES):
        return LOWER_IS_BETTER
    if any(marker in leaf for marker in _LOWER_MARKERS):
        return LOWER_IS_BETTER
    return None


@dataclass(frozen=True)
class Regression:
    """One gated metric that moved past tolerance.

    Attributes:
        record: The offending (latest) record.
        baseline: Median of the rolling window it was compared to.
        window: How many prior records the baseline summarizes.
        ratio: ``value / baseline`` (guarded against zero).
        direction: Which way this metric is supposed to move.
    """

    record: BenchRecord
    baseline: float
    window: int
    ratio: float
    direction: str

    def describe(self) -> str:
        arrow = "↑" if self.direction == LOWER_IS_BETTER else "↓"
        return (
            f"{self.record.bench}/{self.record.metric} "
            f"[{self.record.hardware or 'unknown-hw'}"
            f"{'/' + self.record.context if self.record.context else ''}]: "
            f"{self.record.value:g} vs baseline {self.baseline:g} "
            f"(n={self.window}) — {self.ratio:.2f}x {arrow}"
        )


@dataclass
class HistoryCheck:
    """The gate's verdict over one history file.

    Attributes:
        regressions: Metrics past tolerance, stable order.
        groups: Distinct (bench, metric, hardware, context) groups.
        compared: Groups with enough prior records to gate.
        ungated: Groups skipped for lack of direction semantics.
        fresh: Groups with no prior record (first appearance).
        skipped_lines: Corrupt history lines ignored.
        host: The hardware key gated, or ``None`` for every host.
        other_hosts: Hardware key -> groups not gated because they
            belong to another host.
    """

    regressions: list[Regression] = field(default_factory=list)
    groups: int = 0
    compared: int = 0
    ungated: int = 0
    fresh: int = 0
    skipped_lines: int = 0
    host: str | None = None
    other_hosts: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.regressions


def check_history(
    records: list[BenchRecord],
    window: int = 5,
    tolerance: float = 0.5,
    min_delta: float = 0.01,
    host: str | None = None,
) -> HistoryCheck:
    """Compare each group's latest record to its rolling baseline.

    Args:
        records: History records in file (append) order — order *is*
            recency; the store keeps no wall-clock timestamps so that
            appending stays byte-deterministic for same-seed runs.
        window: Baseline = median of up to this many records
            immediately before the latest.
        tolerance: Allowed relative movement (0.5 = ±50%) before a
            directional metric counts as regressed.
        min_delta: Absolute floor — movements smaller than this are
            noise regardless of ratio (guards near-zero baselines).
        host: Gate only groups with this hardware key and count the
            rest under ``other_hosts``; ``None`` gates every group.
    """
    grouped: dict[tuple[str, str, str, str], list[BenchRecord]] = {}
    for record in records:
        grouped.setdefault(record.group_key(), []).append(record)

    result = HistoryCheck(groups=len(grouped), host=host)
    for key in sorted(grouped):
        series = grouped[key]
        latest = series[-1]
        if host is not None and latest.hardware != host:
            result.other_hosts[latest.hardware] = (
                result.other_hosts.get(latest.hardware, 0) + 1
            )
            continue
        prior = series[:-1][-window:]
        if not prior:
            result.fresh += 1
            continue
        direction = metric_direction(latest.metric)
        if direction is None:
            result.ungated += 1
            continue
        result.compared += 1
        baseline = statistics.median(r.value for r in prior)
        delta = latest.value - baseline
        if abs(delta) < min_delta:
            continue
        ratio = latest.value / baseline if baseline else float("inf")
        regressed = (
            delta > abs(baseline) * tolerance
            if direction == LOWER_IS_BETTER
            else -delta > abs(baseline) * tolerance
        )
        if regressed:
            result.regressions.append(Regression(
                record=latest, baseline=baseline, window=len(prior),
                ratio=ratio, direction=direction,
            ))
    return result


def render_check(check: HistoryCheck) -> str:
    """The gate verdict as text (one line per regression)."""
    lines = [
        f"benchmark history: {check.groups} metric group(s), "
        + (f"host {check.host}: " if check.host is not None else "")
        + f"{check.compared} gated, {check.ungated} without perf "
        f"semantics, {check.fresh} first-seen"
        + (f", {check.skipped_lines} corrupt line(s) skipped"
           if check.skipped_lines else "")
    ]
    lines.extend(
        f"not gated: other host {key or 'unknown-hw'} ({count} group(s))"
        for key, count in sorted(check.other_hosts.items())
    )
    if check.ok:
        return "\n".join(lines + ["no regressions"])
    lines.append(f"{len(check.regressions)} REGRESSION(S):")
    lines.extend(f"  {r.describe()}" for r in check.regressions)
    return "\n".join(lines)


def check_json(check: HistoryCheck) -> dict:
    """The gate verdict as one JSON-encodable object (schema in
    README: ``repro perf check --json``)."""
    return {
        "ok": check.ok,
        "groups": check.groups,
        "compared": check.compared,
        "ungated": check.ungated,
        "fresh": check.fresh,
        "skipped_lines": check.skipped_lines,
        "host": check.host,
        "other_hosts": dict(sorted(check.other_hosts.items())),
        "regressions": [
            {
                "bench": r.record.bench,
                "metric": r.record.metric,
                "hardware": r.record.hardware,
                "context": r.record.context,
                "value": r.record.value,
                "baseline": r.baseline,
                "window": r.window,
                "ratio": round(r.ratio, 4),
                "direction": r.direction,
                "git_sha": r.record.git_sha,
            }
            for r in check.regressions
        ],
    }
