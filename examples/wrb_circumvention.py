"""The webRequest bug, demonstrated: one page, four browser setups.

Loads the same ad-supported page in:

1. stock Chrome 57            — everything loads (the crawls' condition);
2. Chrome 57 + ad blocker     — HTTP ads blocked, the WebSocket SLIPS
                                THROUGH (Chromium issue 129353);
3. Chrome 58 + ad blocker     — the patch lets the blocker cancel it;
4. Chrome 58 + a blocker with http://*-only URL patterns — the socket
   slips through again (the extension pitfall Franken et al. found).

Run:  python examples/wrb_circumvention.py
"""

from repro.browser import Browser
from repro.extension.adblocker import AdBlockerExtension
from repro.filters import CompiledFilterEngine, parse_filter_list
from repro.net.http import ResourceType
from repro.web.blueprint import PageBlueprint, ResourceNode, SocketPlan

FILTER_LIST = """\
[Adblock Plus 2.0]
! ads and trackers on this page
||adnetwork.example^$third-party
||tracker.example^$websocket
"""


def build_page() -> PageBlueprint:
    """An ad-supported page: a display ad via HTTP, tracking via WS."""
    ad_script = ResourceNode(url="https://cdn.adnetwork.example/ads/tag.js")
    ad_script.children.append(ResourceNode(
        url="https://cdn.adnetwork.example/ads/banner.png",
        resource_type=ResourceType.IMAGE, mime_type="image/png",
    ))
    # The sneaky part: an unlisted helper script opens a WebSocket to a
    # listed tracker — only the socket itself is blockable.
    helper = ResourceNode(url="https://static.helpercdn.example/loader.js")
    helper.sockets.append(SocketPlan(
        ws_url="wss://rt.tracker.example/collect", profile="fingerprint",
    ))
    return PageBlueprint(
        url="https://publisher.example/",
        resources=[ad_script, helper],
        dom_html="<html><body>news</body></html>",
    )


def load(version: int, with_blocker: bool, websocket_aware: bool = True):
    browser = Browser(version=version)
    blocker = None
    if with_blocker:
        engine = CompiledFilterEngine([parse_filter_list("easylist", FILTER_LIST)])
        blocker = AdBlockerExtension(engine, websocket_aware=websocket_aware,
                                     keep_blocked_urls=True)
        blocker.install(browser.webrequest)
    result = browser.visit(build_page())
    return result, blocker, browser


def describe(title, result, blocker, browser):
    print(f"\n{title}")
    print(f"  HTTP requests: {result.requests} "
          f"(blocked: {result.blocked_requests})")
    print(f"  WebSockets opened: {result.sockets_opened} "
          f"(blocked: {result.sockets_blocked})")
    if browser.webrequest.suppressed_by_wrb:
        print(f"  ⚠ webRequest bug suppressed "
              f"{browser.webrequest.suppressed_by_wrb} onBeforeRequest "
              f"dispatch(es) for WebSockets")
    if blocker and blocker.stats.blocked_urls:
        for url in blocker.stats.blocked_urls:
            print(f"  ✂ blocked: {url}")


def main() -> None:
    describe("1) Stock Chrome 57 — no blocker",
             *load(version=57, with_blocker=False))
    describe("2) Chrome 57 + ad blocker — the WRB circumvention",
             *load(version=57, with_blocker=True))
    describe("3) Chrome 58 + ad blocker — patched",
             *load(version=58, with_blocker=True))
    describe("4) Chrome 58 + blocker with http://*-only patterns",
             *load(version=58, with_blocker=True, websocket_aware=False))

    print("""
Summary: before Chrome 58 (2017-04-19), a blocker could cancel the ad
images but never even saw the WebSocket handshake — fingerprinting data
flowed to the tracker regardless. After the patch the socket is
blockable, but only if the extension registered ws://*/wss://* URL
patterns.""")


if __name__ == "__main__":
    main()
