"""Tests for the webRequest pattern analyzer and its dynamic cross-check."""

import pytest

from repro.filters.parser import parse_filter_list
from repro.net.http import ResourceType
from repro.staticlint.filterlint import analyze_filter_lists
from repro.staticlint.webrequestlint import (
    ListenerVerdict,
    classify_listener,
    cross_validate_receivers,
    cross_validation_report,
    pattern_schemes,
    receiver_companies,
)
from repro.web.filterlists import build_easyprivacy_text, build_filter_lists
from repro.web.registry import default_registry

WS_AWARE = ("http://*", "https://*", "ws://*", "wss://*")
HTTP_ONLY = ("http://*", "https://*")


class TestPatternSchemes:
    def test_all_urls(self):
        assert pattern_schemes("<all_urls>") == {"http", "https", "ws", "wss"}

    def test_wildcard_scheme(self):
        assert pattern_schemes("*://*/*") == {"http", "https", "ws", "wss"}

    def test_explicit_scheme(self):
        assert pattern_schemes("https://*/*") == {"https"}
        assert pattern_schemes("wss://*/*") == {"wss"}

    def test_malformed_pattern(self):
        assert pattern_schemes("not-a-pattern") == frozenset()


class TestClassifyListener:
    def test_pre_58_always_vulnerable(self):
        verdict, report = classify_listener(WS_AWARE, 57)
        assert verdict is ListenerVerdict.VULNERABLE
        assert report.by_rule("WR-WRB")

    def test_58_http_only_is_franken_pitfall(self):
        verdict, report = classify_listener(HTTP_ONLY, 58)
        assert verdict is ListenerVerdict.VULNERABLE
        assert report.by_rule("WR-SCHEME-BLIND")

    def test_58_ws_aware_is_safe(self):
        verdict, report = classify_listener(WS_AWARE, 58)
        assert verdict is ListenerVerdict.SAFE
        assert not report

    def test_partial_coverage(self):
        verdict, report = classify_listener(
            ("https://*", "wss://*"), 58
        )
        assert verdict is ListenerVerdict.PARTIAL
        (diag,) = report.by_rule("WR-PARTIAL")
        assert "ws://" in diag.message

    def test_type_filter_without_websocket(self):
        verdict, report = classify_listener(
            WS_AWARE, 58, resource_types=(ResourceType.SCRIPT,)
        )
        assert verdict is ListenerVerdict.VULNERABLE
        assert report.by_rule("WR-TYPE-BLIND")


@pytest.fixture(scope="module")
def registry():
    return default_registry()


@pytest.fixture(scope="module")
def plain_lists(registry):
    return build_filter_lists(registry)


@pytest.fixture(scope="module")
def ws_rule_lists(registry):
    """EasyPrivacy plus an explicit $websocket rule per receiver — the
    same construction ``bench_wrb.py`` uses for its patched-engine arm,
    but covering every receiver."""
    lines = [build_easyprivacy_text(registry)]
    for company in receiver_companies(registry):
        lines.append(f"||{company.domain}^$websocket")
    return [parse_filter_list("easyprivacy+ws", "\n".join(lines))]


class TestCrossValidation:
    """Acceptance criterion: the static verdict agrees with dynamic
    dispatch for every registry receiver domain, on both sides of the
    Chrome 58 patch, with and without ws-aware patterns."""

    @pytest.mark.parametrize("chrome_major", [57, 58])
    @pytest.mark.parametrize("ws_aware", [True, False])
    def test_plain_lists_agree_everywhere(
        self, plain_lists, registry, chrome_major, ws_aware
    ):
        records = cross_validate_receivers(
            analyze_filter_lists(plain_lists, registry=registry),
            registry, chrome_major, websocket_aware=ws_aware,
        )
        assert records
        assert all(r.agree for r in records)
        # No $websocket rules anywhere: nothing is ever blocked.
        assert not any(r.dynamic_blocked for r in records)
        assert not cross_validation_report(records)

    def test_plain_lists_mark_tracked_receivers_blindspot(
        self, plain_lists, registry
    ):
        records = cross_validate_receivers(
            analyze_filter_lists(plain_lists, registry=registry),
            registry, 58,
        )
        flagged = [r for r in records if r.static_blindspot]
        # All but the untracked handful (receivers the lists never
        # target over HTTP either) are blindspots.
        assert len(flagged) >= len(records) - 2
        assert not any(r.static_blocked for r in records)

    @pytest.mark.parametrize("chrome_major", [57, 58])
    @pytest.mark.parametrize("ws_aware", [True, False])
    def test_ws_rules_agree_everywhere(
        self, ws_rule_lists, registry, chrome_major, ws_aware
    ):
        records = cross_validate_receivers(
            analyze_filter_lists(ws_rule_lists, registry=registry),
            registry, chrome_major, websocket_aware=ws_aware,
        )
        assert all(r.agree for r in records)

    def test_ws_rules_block_only_after_patch(self, ws_rule_lists, registry):
        analysis = analyze_filter_lists(ws_rule_lists, registry=registry)
        before = cross_validate_receivers(analysis, registry, 57)
        after = cross_validate_receivers(analysis, registry, 58)
        assert not any(r.dynamic_blocked for r in before)  # WRB swallows all
        assert all(r.dynamic_blocked for r in after)
        assert all(r.static_blocked for r in after)

    def test_http_only_patterns_reopen_hole_post_patch(
        self, ws_rule_lists, registry
    ):
        records = cross_validate_receivers(
            analyze_filter_lists(ws_rule_lists, registry=registry),
            registry, 58, websocket_aware=False,
        )
        assert not any(r.dynamic_blocked for r in records)
        assert not any(r.static_blocked for r in records)
        assert all(r.agree for r in records)

    def test_disagreement_produces_xcheck_error(self, ws_rule_lists, registry):
        records = cross_validate_receivers(
            analyze_filter_lists(ws_rule_lists, registry=registry),
            registry, 58,
        )
        from dataclasses import replace

        tampered = [replace(records[0], dynamic_blocked=not
                            records[0].dynamic_blocked)] + records[1:]
        report = cross_validation_report(tampered)
        (diag,) = report.diagnostics
        assert diag.rule_id == "WR-XCHECK"
        assert diag.source == records[0].domain


class TestReceiverCompanies:
    def test_sorted_and_nonempty(self, registry):
        companies = receiver_companies(registry)
        assert companies
        domains = [c.domain for c in companies]
        assert domains == sorted(domains)

    def test_excludes_first_party_and_tails(self, registry):
        from repro.web.model import FIRST_PARTY

        for company in receiver_companies(registry):
            assert company.key != FIRST_PARTY
            assert not company.key.startswith("TAIL:")
