"""Crawler robustness under injected faults: retry, timeout, quarantine."""

import dataclasses

import pytest

from repro.cli import _study_exit_code
from repro.crawler import CrawlConfig, Crawler, CrawlRunSummary, RetryPolicy
from repro.faults import (
    FLAKY_PROFILE,
    NONE_PROFILE,
    FaultInjector,
    FaultProfile,
)

CONFIG = CrawlConfig(index=0, label="Apr 02-05, 2017", chrome_major=57,
                     start_date="2017-04-02", pages_per_site=4)


@pytest.fixture(scope="module")
def sites(tiny_web):
    """A small site sample guaranteed to include socket hosts."""
    socket_domains = list(tiny_web.plan.site_plans)[:10]
    plain = [s for s in tiny_web.seed_list.sites
             if s.domain not in tiny_web.plan.site_plans][:20]
    return [tiny_web.site(d) for d in socket_domains] + plain


def _summary_key(summary: CrawlRunSummary):
    return (summary.sites_visited, summary.pages_visited,
            summary.sockets_observed, summary.events_published,
            summary.pages_failed, summary.page_retries,
            summary.sites_quarantined, summary.sockets_partial,
            summary.errors, summary.sites)


def _run(tiny_web, sites, profile=None, retry=None):
    injector = (FaultInjector(profile, CONFIG.seed, CONFIG.index)
                if profile is not None else None)
    crawler = Crawler(tiny_web, CONFIG, faults=injector, retry=retry)
    return crawler.run(sites=sites), injector


def test_none_profile_matches_no_injector(tiny_web, sites):
    clean, _ = _run(tiny_web, sites)
    gated, injector = _run(tiny_web, sites, NONE_PROFILE)
    assert _summary_key(clean) == _summary_key(gated)
    assert not injector.counters
    assert clean.errors == {}


def test_flaky_run_is_deterministic(tiny_web, sites):
    first, _ = _run(tiny_web, sites, FLAKY_PROFILE)
    second, _ = _run(tiny_web, sites, FLAKY_PROFILE)
    assert _summary_key(first) == _summary_key(second)


def test_blackout_quarantines_every_site(tiny_web, sites):
    profile = FaultProfile(name="dark", site_blackout=1.0)
    summary, injector = _run(tiny_web, sites[:5], profile)
    # Sites stay in the denominators but every page exhausts retries.
    assert summary.sites_visited == 5
    assert summary.pages_visited == 0
    assert summary.sites_quarantined == 5
    assert summary.errors["retry_exhausted"] > 0
    assert summary.errors["site_quarantined"] == 5
    assert injector.counters["site_quarantined"] == 5
    # Quarantine cut the site short: fewer failures than the full
    # page budget would produce.
    assert summary.pages_failed == 5 * RetryPolicy().quarantine_after


def test_stalls_trip_the_page_deadline(tiny_web, sites):
    profile = FaultProfile(name="molasses", page_stall=1.0,
                           stall_seconds=(200.0, 300.0))
    retry = RetryPolicy(page_timeout_seconds=90.0)
    summary, _ = _run(tiny_web, sites[:4], profile, retry=retry)
    assert summary.errors["page_timeout"] > 0
    assert summary.pages_visited == 0  # every load stalls past 90 s


def test_generous_deadline_tolerates_stalls(tiny_web, sites):
    profile = FaultProfile(name="molasses", page_stall=1.0,
                           stall_seconds=(200.0, 300.0))
    retry = RetryPolicy(page_timeout_seconds=0.0)  # deadline disabled
    summary, _ = _run(tiny_web, sites[:4], profile, retry=retry)
    assert summary.pages_failed == 0
    assert "page_timeout" not in summary.errors


def test_transient_failures_recover_via_retry(tiny_web, sites):
    profile = FaultProfile(name="coinflip", page_failure=0.5)
    summary, _ = _run(tiny_web, sites, profile)
    assert summary.page_retries > 0
    assert summary.pages_visited > 0
    assert summary.errors["page_failure"] > summary.errors.get(
        "retry_exhausted", 0
    )


def test_refused_handshakes_still_observed(tiny_web, sites):
    profile = FaultProfile(name="refuse", handshake_refusal=1.0)
    clean, _ = _run(tiny_web, sites)
    summary, injector = _run(tiny_web, sites, profile)
    assert injector.counters["handshake_refused"] > 0
    # The socket node still exists (created + 403 + closed): the
    # observation layer keeps the endpoint even though no frames flow.
    assert summary.sockets_observed == clean.sockets_observed
    assert summary.pages_visited == clean.pages_visited


def test_orphaned_sockets_counted_not_fatal(tiny_web, sites):
    profile = FaultProfile(name="orphan", orphan_socket=1.0)
    summary, injector = _run(tiny_web, sites, profile)
    assert injector.counters["socket_orphaned"] > 0
    assert summary.sockets_observed == 0
    assert summary.errors["unattributed_event"] > 0


def test_exit_code_flags_total_degradation():
    healthy = CrawlRunSummary(config=CONFIG, sites_visited=5,
                              pages_visited=20)
    dead = CrawlRunSummary(config=CONFIG, sites_visited=5, pages_visited=0)
    assert _study_exit_code([healthy]) == 0
    assert _study_exit_code([healthy, dead]) == 3
    assert _study_exit_code([]) == 0


def test_retry_policy_defaults():
    policy = RetryPolicy()
    assert policy.max_attempts == 3
    assert policy.quarantine_after == 2
    assert dataclasses.replace(policy, max_attempts=1).max_attempts == 1
