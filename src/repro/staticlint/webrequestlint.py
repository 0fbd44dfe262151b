"""Franken-style static analysis of ``webRequest`` listener registrations.

The paper's §5 (and Franken et al.) showed that whether an extension can
see a WebSocket is decidable *statically* from two facts: the Chrome
major version (the WRB suppresses dispatch entirely before 58) and the
listener's URL match patterns (``http://*``/``https://*`` never match
``ws://`` URLs even on patched Chrome). This module reproduces that
analysis over our simulated extension host, and cross-validates the
static verdict against the dynamic outcome by actually dispatching a
handshake through :class:`~repro.extension.webrequest.WebRequestApi` —
the same mechanism ``bench_wrb.py`` ablates at crawl scale.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.extension.adblocker import AdBlockerExtension
from repro.extension.webrequest import (
    WEBREQUEST_BUG_FIX_VERSION,
    WebRequestApi,
)
from repro.filters import CompiledFilterEngine
from repro.net.http import HttpRequest, ResourceType
from repro.staticlint.diagnostics import Diagnostic, LintReport, Severity
from repro.staticlint.filterlint import FilterListAnalysis
from repro.staticlint.probes import THIRD_PARTY_CONTEXT
from repro.web.model import FIRST_PARTY

_WS_SCHEMES = frozenset({"ws", "wss"})
_ALL_SCHEMES = frozenset({"http", "https", "ws", "wss"})


class ListenerVerdict(enum.Enum):
    """Static classification of one listener registration."""

    VULNERABLE = "vulnerable"  # cannot see any WebSocket handshake
    PARTIAL = "partially-covered"  # sees ws or wss, not both
    SAFE = "safe"  # sees every WebSocket handshake


def pattern_schemes(pattern: str) -> frozenset[str]:
    """URL schemes a Chrome match pattern can cover."""
    if pattern == "<all_urls>":
        return _ALL_SCHEMES
    scheme, sep, _ = pattern.partition("://")
    if not sep:
        return frozenset()
    if scheme == "*":
        return _ALL_SCHEMES
    return frozenset({scheme})


def classify_listener(
    url_patterns: tuple[str, ...],
    chrome_major: int,
    resource_types: tuple[ResourceType, ...] = (),
) -> tuple[ListenerVerdict, LintReport]:
    """Statically classify a listener's WebSocket visibility.

    Args:
        url_patterns: The ``onBeforeRequest`` filter's match patterns.
        chrome_major: Browser major version (pre-58 suffers the WRB).
        resource_types: The filter's resource-type restriction, if any.

    Returns:
        The verdict plus the diagnostics explaining it.
    """
    report = LintReport()
    source = f"chrome{chrome_major} patterns={','.join(url_patterns)}"
    if chrome_major < WEBREQUEST_BUG_FIX_VERSION:
        report.add(Diagnostic(
            rule_id="WR-WRB",
            severity=Severity.ERROR,
            source=source,
            message=(
                f"Chrome {chrome_major} < {WEBREQUEST_BUG_FIX_VERSION}: "
                f"the webRequest bug suppresses WebSocket dispatch "
                f"entirely — no pattern can help (Chromium issue 129353)"
            ),
            fix_hint=f"require Chrome >= {WEBREQUEST_BUG_FIX_VERSION}",
        ))
        return ListenerVerdict.VULNERABLE, report
    if resource_types and ResourceType.WEBSOCKET not in resource_types:
        report.add(Diagnostic(
            rule_id="WR-TYPE-BLIND",
            severity=Severity.ERROR,
            source=source,
            message=(
                "listener's resource-type filter omits 'websocket'; "
                "handshakes are filtered out before dispatch"
            ),
            fix_hint="add ResourceType.WEBSOCKET to the type filter",
        ))
        return ListenerVerdict.VULNERABLE, report
    covered: set[str] = set()
    for pattern in url_patterns:
        covered |= pattern_schemes(pattern)
    missing = sorted(_WS_SCHEMES - covered)
    if len(missing) == 2:
        report.add(Diagnostic(
            rule_id="WR-SCHEME-BLIND",
            severity=Severity.ERROR,
            source=source,
            message=(
                "URL patterns cover no WebSocket scheme — the Franken "
                "et al. pitfall: http://*-style patterns silently fail "
                "to match ws:// even on patched Chrome"
            ),
            fix_hint="add ws://* and wss://* (or <all_urls>)",
        ))
        return ListenerVerdict.VULNERABLE, report
    if missing:
        report.add(Diagnostic(
            rule_id="WR-PARTIAL",
            severity=Severity.WARNING,
            source=source,
            message=f"URL patterns miss the {missing[0]}:// scheme",
            fix_hint=f"add {missing[0]}://*",
        ))
        return ListenerVerdict.PARTIAL, report
    return ListenerVerdict.SAFE, report


@dataclass(frozen=True)
class CoverageRecord:
    """Static-vs-dynamic comparison for one receiver domain.

    Attributes:
        domain: Receiver registrable domain.
        ws_url: The handshake URL probed.
        static_blindspot: Filter-list analyzer says the domain's ws
            traffic escapes the lists.
        static_blocked: Full static prediction — listener verdict AND
            list coverage say the handshake is cancelled.
        dynamic_blocked: What actually happened when the handshake was
            dispatched through the simulated webRequest API.
        agree: ``static_blocked == dynamic_blocked``.
    """

    domain: str
    ws_url: str
    static_blindspot: bool
    static_blocked: bool
    dynamic_blocked: bool

    @property
    def agree(self) -> bool:
        return self.static_blocked == self.dynamic_blocked


def receiver_companies(registry) -> list:
    """Registry companies that receive WebSockets, sorted by domain."""
    keys = set()
    for spec in registry.socket_specs:
        receiver = spec.receiver
        if receiver == FIRST_PARTY or receiver.startswith("TAIL:"):
            continue
        keys.add(receiver)
    companies = [registry.companies[key] for key in keys]
    return sorted(companies, key=lambda c: c.domain)


def cross_validate_receivers(
    analysis: FilterListAnalysis,
    registry,
    chrome_major: int,
    websocket_aware: bool = True,
) -> list[CoverageRecord]:
    """Compare static verdicts against dynamic dispatch, per receiver.

    Static side: the filter-list analyzer's blindspot/coverage verdict
    (``analysis``, over ``registry``'s URL space) combined with
    :func:`classify_listener` over the blocker's actual patterns.
    Dynamic side: install a blocker running ``analysis.lists`` on a
    fresh simulated ``WebRequestApi`` at the given Chrome version and
    dispatch one handshake per receiver — the per-receiver reduction of
    the ``bench_wrb.py`` ablation. One analysis serves every listener
    configuration a lint run cross-checks.
    """
    ws_covered = set(analysis.ws_covered_domains)
    blindspots = set(analysis.blindspot_domains)

    engine = CompiledFilterEngine(analysis.lists)
    extension = AdBlockerExtension(engine, websocket_aware=websocket_aware)
    patterns = (
        ("http://*", "https://*", "ws://*", "wss://*")
        if websocket_aware
        else ("http://*", "https://*")
    )
    verdict, _ = classify_listener(patterns, chrome_major)

    records: list[CoverageRecord] = []
    for company in receiver_companies(registry):
        ws_url = f"wss://{company.resolved_ws_host()}/socket"
        static_blocked = (
            verdict is not ListenerVerdict.VULNERABLE
            and company.domain in ws_covered
        )
        records.append(CoverageRecord(
            domain=company.domain,
            ws_url=ws_url,
            static_blindspot=company.domain in blindspots,
            static_blocked=static_blocked,
            dynamic_blocked=_dispatch_blocked(
                extension, chrome_major, ws_url
            ),
        ))
    return records


def _dispatch_blocked(
    extension: AdBlockerExtension, chrome_major: int, ws_url: str
) -> bool:
    """Dynamically dispatch one handshake; True when it was cancelled."""
    api = WebRequestApi(chrome_major)
    extension.install(api)
    request = HttpRequest(
        url=ws_url,
        resource_type=ResourceType.WEBSOCKET,
        first_party_url=THIRD_PARTY_CONTEXT,
    )
    return not api.dispatch_on_before_request(request)


def cross_validation_report(records: list[CoverageRecord]) -> LintReport:
    """Diagnostics for any static/dynamic disagreement (ERROR each)."""
    report = LintReport()
    for record in records:
        if record.agree:
            continue
        report.add(Diagnostic(
            rule_id="WR-XCHECK",
            severity=Severity.ERROR,
            source=record.domain,
            message=(
                f"static verdict (blocked={record.static_blocked}) "
                f"disagrees with dynamic dispatch "
                f"(blocked={record.dynamic_blocked}) for {record.ws_url}"
            ),
        ))
    return report
