"""Orchestration: run every analyzer over the repro's own artifacts.

This is what ``repro lint`` invokes: the filter-list analyzer over the
bundled synthetic EasyList/EasyPrivacy, the webRequest pattern analyzer
over the blocker's two real configurations (ws-aware and the Franken
``http://*``-only pitfall) on both sides of the Chrome 58 patch — with
the static verdicts cross-validated against dynamic dispatch — and,
when asked, the determinism linter over ``src/repro`` itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.staticlint.cache import FactsCache
from repro.staticlint.diagnostics import LintReport
from repro.staticlint.flow import FlowAnalysis, analyze_self
from repro.staticlint.filterlint import FilterListAnalysis, analyze_filter_lists
from repro.staticlint.webrequestlint import (
    CoverageRecord,
    ListenerVerdict,
    classify_listener,
    cross_validate_receivers,
    cross_validation_report,
)

# The four listener configurations bench_wrb.py ablates dynamically.
_LISTENER_CONFIGS: tuple[tuple[str, int, bool], ...] = (
    ("Chrome 57 + ws-aware blocker", 57, True),
    ("Chrome 57 + http-only blocker", 57, False),
    ("Chrome 58 + ws-aware blocker", 58, True),
    ("Chrome 58 + http-only blocker", 58, False),
)

_WS_AWARE_PATTERNS = ("http://*", "https://*", "ws://*", "wss://*")
_HTTP_ONLY_PATTERNS = ("http://*", "https://*")


@dataclass
class FullLintResult:
    """Everything ``repro lint`` produced.

    Attributes:
        filter_analysis: Filter-list analyzer output over the bundled
            lists (``None`` when that stage was skipped).
        listener_verdicts: Static classification of each blocker
            configuration, as (label, verdict) pairs.
        cross_checks: Per-configuration static-vs-dynamic receiver
            records, keyed by configuration label.
        self_report: Determinism lint over ``src/repro`` (``None`` when
            skipped).
        api_report: Package-boundary lint over ``src/repro`` (``None``
            when skipped; runs alongside the determinism self-lint).
        flow_report: Whole-program zone-contract lint (FLOW-*) over
            ``src/repro`` (``None`` when skipped). All three self
            reports come from ONE parse of the tree — see
            :mod:`repro.staticlint.flow`.
        flow_analysis: The underlying whole-program analysis (graph,
            effect fixpoint, cache hit counters).
        report: All diagnostics merged across analyzers, canonical
            (stable-sorted, deduped — byte-stable between runs).
    """

    filter_analysis: FilterListAnalysis | None = None
    listener_verdicts: list[tuple[str, ListenerVerdict]] = field(
        default_factory=list
    )
    cross_checks: dict[str, list[CoverageRecord]] = field(default_factory=dict)
    self_report: LintReport | None = None
    api_report: LintReport | None = None
    flow_report: LintReport | None = None
    flow_analysis: FlowAnalysis | None = None
    report: LintReport = field(default_factory=LintReport)

    @property
    def exit_code(self) -> int:
        """Non-zero when the determinism, API-boundary, or zone
        contract is violated or a static verdict disagreed with dynamic
        dispatch."""
        failing = [
            d for d in self.report.errors
            if d.rule_id.startswith(("DET-", "API-", "FLOW-", "OBS-",
                                     "SPOOL-", "SERVE-"))
            or d.rule_id == "WR-XCHECK"
        ]
        return 1 if failing else 0


def run_full_lint(
    registry=None,
    check_registry: bool = True,
    check_self: bool = True,
    cache: FactsCache | None = None,
) -> FullLintResult:
    """Run the selected analyzers; see :class:`FullLintResult`.

    Args:
        registry: Web registry for the filter/webRequest stages.
        check_registry: Run the filter-list analyzer and the listener
            classifier + cross-check over ``registry``.
        check_self: Run the whole-program self-lint (DET/API/FLOW).
        cache: Content-addressed facts cache; ``None`` parses every
            file fresh.
    """
    from repro.web.filterlists import build_filter_lists
    from repro.web.registry import default_registry

    result = FullLintResult()

    if check_registry:
        if registry is None:
            registry = default_registry()
        # One analysis serves the list diagnostics and every cross-check.
        analysis = analyze_filter_lists(build_filter_lists(registry),
                                        registry=registry)
        result.filter_analysis = analysis
        result.report.extend(analysis.report)
        for label, chrome_major, ws_aware in _LISTENER_CONFIGS:
            patterns = _WS_AWARE_PATTERNS if ws_aware else _HTTP_ONLY_PATTERNS
            verdict, verdict_report = classify_listener(patterns, chrome_major)
            result.listener_verdicts.append((label, verdict))
            result.report.extend(verdict_report)
            records = cross_validate_receivers(
                analysis, registry, chrome_major, websocket_aware=ws_aware
            )
            result.cross_checks[label] = records
            result.report.extend(cross_validation_report(records))

    if check_self:
        analysis = analyze_self(cache=cache)
        result.flow_analysis = analysis
        result.self_report = analysis.det_report
        result.api_report = analysis.api_report
        result.flow_report = analysis.flow_report
        result.report.extend(result.self_report)
        result.report.extend(result.api_report)
        result.report.extend(result.flow_report)

    result.report = result.report.canonical()
    return result
