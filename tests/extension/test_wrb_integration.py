"""Integration: the WRB circumvention story, end to end in one browser.

This is the paper's core mechanism test: with an ad blocker installed,
a pre-patch browser lets the A&A WebSocket through while the same page
in a patched browser has the socket blocked.
"""

from repro.browser import Browser
from repro.extension.adblocker import AdBlockerExtension
from repro.filters import CompiledFilterEngine, parse_filter_list
from repro.web.blueprint import PageBlueprint, ResourceNode, SocketPlan

PAGE = "https://pub.example.com/"

# A list that covers the tracker's socket endpoint but NOT the script
# that opens it — the situation §4.2 describes ("the only way to stop
# these connections would be to block the WebSockets themselves").
LIST_TEXT = "||sneaky-ads.example^$websocket"


def _page():
    script = ResourceNode(url="https://cdn.sneakyhost.example/loader.js")
    script.sockets.append(SocketPlan(
        ws_url="wss://rt.sneaky-ads.example/serve", profile="ad_serving",
        user_id="u1",
    ))
    return PageBlueprint(url=PAGE, resources=[script],
                         dom_html="<html></html>")


def _blocker():
    engine = CompiledFilterEngine([parse_filter_list("easylist", LIST_TEXT)])
    return AdBlockerExtension(engine, websocket_aware=True)


def test_pre_patch_socket_circumvents_blocker():
    browser = Browser(version=57)
    _blocker().install(browser.webrequest)
    result = browser.visit(_page())
    assert result.sockets_opened == 1
    assert result.sockets_blocked == 0
    assert browser.webrequest.suppressed_by_wrb == 1


def test_patched_browser_blocks_socket():
    browser = Browser(version=58)
    _blocker().install(browser.webrequest)
    result = browser.visit(_page())
    assert result.sockets_opened == 0
    assert result.sockets_blocked == 1


def test_patched_browser_with_http_only_patterns_still_bypassed():
    browser = Browser(version=58)
    engine = CompiledFilterEngine([parse_filter_list("easylist", LIST_TEXT)])
    AdBlockerExtension(engine, websocket_aware=False).install(
        browser.webrequest
    )
    result = browser.visit(_page())
    assert result.sockets_opened == 1  # Franken et al.'s finding


def test_blocked_script_kills_whole_subtree():
    browser = Browser(version=58)
    engine = CompiledFilterEngine([
        parse_filter_list("easylist", "||sneakyhost.example^")
    ])
    AdBlockerExtension(engine, websocket_aware=True).install(
        browser.webrequest
    )
    result = browser.visit(_page())
    # The initiating script is blocked, so its socket never opens.
    assert result.blocked_requests == 1
    assert result.sockets_opened == 0
    assert result.sockets_blocked == 0


def test_no_blocker_everything_loads():
    browser = Browser(version=57)
    result = browser.visit(_page())
    assert result.requests == 2
    assert result.sockets_opened == 1
