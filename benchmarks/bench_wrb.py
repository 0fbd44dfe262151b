"""Ablation: blocking effectiveness with and without the webRequest bug.

Crawls the same socket-hosting sites under four configurations:

* stock Chrome 57 (the measurement condition — nothing blocked);
* Chrome 57 + ws-aware blocker (the WRB: sockets still flow);
* Chrome 58 + ws-aware blocker (the patch: A&A sockets blockable);
* Chrome 58 + http-only-pattern blocker (Franken et al.'s extension
  pitfall re-opens the hole).
"""

import pytest

from repro.browser import Browser
from repro.crawler.crawler import CrawlConfig, Crawler
from repro.extension.adblocker import AdBlockerExtension
from repro.extension.workaround import WebSocketWrapperWorkaround
from repro.filters import CompiledFilterEngine, parse_filter_list
from repro.web.filterlists import build_easyprivacy_text


@pytest.fixture(scope="module")
def ws_engine_text(bench_web):
    lines = [build_easyprivacy_text(bench_web.registry)]
    for key in ("intercom", "zopim", "33across", "hotjar", "smartsupp",
                "realtime", "feedjit", "inspectlet", "disqus",
                "lockerdome", "luckyorange", "pusher"):
        domain = bench_web.registry.company(key).domain
        lines.append(f"||{domain}^$websocket")
    return "\n".join(lines)


@pytest.fixture(scope="module")
def socket_sites(bench_web):
    return [sp.site for sp in list(bench_web.plan.site_plans.values())[:40]]


def _run(web, sites, version, engine_text=None, ws_aware=True,
         wrapper=False):
    config = CrawlConfig(index=0, label="wrb-ablation", chrome_major=version,
                         start_date="2017-04-02", pages_per_site=4)

    def installer(browser: Browser):
        if engine_text is not None:
            engine = CompiledFilterEngine([parse_filter_list("lists", engine_text)])
            if wrapper:
                # The uBO-Extra mitigation: a page-level WebSocket
                # wrapper the WRB cannot hide from.
                browser.ws_workaround = WebSocketWrapperWorkaround(engine)
            AdBlockerExtension(engine, websocket_aware=ws_aware).install(
                browser.webrequest
            )

    observations = []
    Crawler(web, config, observers=[observations.append],
            extension_installer=installer).run(sites)
    return sum(len(o.sockets) for o in observations)


def test_wrb_ablation(benchmark, bench_web, socket_sites, ws_engine_text):
    stock = _run(bench_web, socket_sites, 57)
    pre_patch = benchmark.pedantic(
        lambda: _run(bench_web, socket_sites, 57, ws_engine_text),
        rounds=1, iterations=1,
    )
    patched = _run(bench_web, socket_sites, 58, ws_engine_text)
    patched_http_only = _run(bench_web, socket_sites, 58, ws_engine_text,
                             ws_aware=False)
    with_wrapper = _run(bench_web, socket_sites, 57, ws_engine_text,
                        wrapper=True)
    print()
    print("WRB ablation (sockets observed over identical crawls):")
    print(f"  stock Chrome 57 (no blocker):        {stock}")
    print(f"  Chrome 57 + ws-aware blocker (WRB):  {pre_patch}")
    print(f"  Chrome 57 + uBO-Extra-style wrapper: {with_wrapper}")
    print(f"  Chrome 58 + ws-aware blocker:        {patched}")
    print(f"  Chrome 58 + http://-only patterns:   {patched_http_only}")
    surviving = pre_patch / stock if stock else 0
    blocked_frac = 1 - patched / stock if stock else 0
    print(f"  WRB let {surviving:.0%} of sockets through the blocker; "
          f"the patch makes {blocked_frac:.0%} blockable.")
    assert pre_patch > patched
    assert patched_http_only > patched
    assert pre_patch >= stock * 0.85  # the bug nearly nullifies blocking
    # The wrapper recovers most of the patched browser's blocking even
    # on buggy Chrome (minus the sub-frame race).
    assert with_wrapper < pre_patch
    assert with_wrapper <= patched * 1.35 + 5


def test_static_lint_agrees_with_dynamic_ablation(bench_web, ws_engine_text):
    """The staticlint verdict predicts this file's dynamic outcomes.

    For every registry receiver domain, on both sides of the Chrome 58
    patch and with both pattern sets, the filter-list analyzer's
    blindspot/coverage verdict (combined with the listener
    classification) must equal what dispatching the handshake through
    the simulated webRequest API actually does.
    """
    from repro.staticlint.filterlint import analyze_filter_lists
    from repro.staticlint.webrequestlint import cross_validate_receivers

    lists = [parse_filter_list("lists", ws_engine_text)]
    analysis = analyze_filter_lists(lists, registry=bench_web.registry)
    patched_records = None
    for chrome_major in (57, 58):
        for ws_aware in (True, False):
            records = cross_validate_receivers(
                analysis, bench_web.registry, chrome_major,
                websocket_aware=ws_aware,
            )
            assert records
            assert all(r.agree for r in records), [
                (r.domain, r.static_blocked, r.dynamic_blocked)
                for r in records if not r.agree
            ]
            if chrome_major == 58 and ws_aware:
                patched_records = records
    # Post-patch with ws-aware patterns, exactly the receivers given an
    # explicit $websocket rule are blocked — statically and dynamically.
    ws_ruled = {line.split("||")[1].split("^")[0]
                for line in ws_engine_text.splitlines()
                if line.endswith("$websocket")}
    blocked = {r.domain for r in patched_records if r.dynamic_blocked}
    assert blocked == ws_ruled
