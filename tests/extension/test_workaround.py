"""Tests for the uBO-Extra-style WebSocket-wrapper workaround."""

import pytest

from repro.browser import Browser
from repro.extension.workaround import WebSocketWrapperWorkaround
from repro.filters import CompiledFilterEngine, parse_filter_list
from repro.net.http import ResourceType
from repro.web.blueprint import PageBlueprint, ResourceNode, SocketPlan

PAGE = "https://pub.example/"


def _engine():
    return CompiledFilterEngine([
        parse_filter_list("test", "||socketspy.example^$websocket")
    ])


def _page(in_subframe=False):
    script = ResourceNode(url="https://cdn.helper.example/x.js")
    script.sockets.append(SocketPlan(
        ws_url="wss://rt.socketspy.example/ws", profile="silent",
    ))
    if in_subframe:
        frame = ResourceNode(
            url="https://frames.example/f.html",
            resource_type=ResourceType.SUB_FRAME, mime_type="text/html",
            children=[script],
        )
        return PageBlueprint(url=PAGE, resources=[frame])
    return PageBlueprint(url=PAGE, resources=[script])


class TestWrapperUnit:
    def test_blocks_listed_endpoint(self):
        wrapper = WebSocketWrapperWorkaround(_engine())
        allowed = wrapper.allow_socket(
            "wss://rt.socketspy.example/ws", PAGE,
            in_subframe=False, coverage_draw=0.0,
        )
        assert not allowed
        assert wrapper.stats.blocked == 1

    def test_allows_unlisted(self):
        wrapper = WebSocketWrapperWorkaround(_engine())
        assert wrapper.allow_socket("wss://benign.example/ws", PAGE,
                                    in_subframe=False, coverage_draw=0.0)

    def test_subframe_race_lets_sockets_escape(self):
        wrapper = WebSocketWrapperWorkaround(_engine(), subframe_coverage=0.5)
        # Draw above coverage: wrapper not installed in this realm yet.
        assert wrapper.allow_socket("wss://rt.socketspy.example/ws", PAGE,
                                    in_subframe=True, coverage_draw=0.9)
        assert wrapper.stats.escaped_subframe == 1
        # Draw below coverage: wrapped and blocked.
        assert not wrapper.allow_socket("wss://rt.socketspy.example/ws", PAGE,
                                        in_subframe=True, coverage_draw=0.1)

    def test_main_frame_never_escapes(self):
        wrapper = WebSocketWrapperWorkaround(_engine(), subframe_coverage=0.0)
        assert not wrapper.allow_socket("wss://rt.socketspy.example/ws", PAGE,
                                        in_subframe=False, coverage_draw=0.99)

    def test_detectable(self):
        assert WebSocketWrapperWorkaround(_engine()).is_detectable

    def test_coverage_validation(self):
        with pytest.raises(ValueError):
            WebSocketWrapperWorkaround(_engine(), subframe_coverage=1.5)


class TestWrapperInBrowser:
    def test_defeats_wrb_on_chrome_57(self):
        """The whole point: the wrapper works where webRequest cannot."""
        browser = Browser(version=57)
        browser.ws_workaround = WebSocketWrapperWorkaround(_engine())
        result = browser.visit(_page())
        assert result.sockets_opened == 0
        assert result.sockets_blocked == 1
        # webRequest never saw the socket — the wrapper did.
        assert browser.webrequest.suppressed_by_wrb == 0

    def test_subframe_escape_in_browser(self):
        hits = 0
        for seed in range(30):
            browser = Browser(version=57, seed=seed)
            browser.ws_workaround = WebSocketWrapperWorkaround(
                _engine(), subframe_coverage=0.5
            )
            result = browser.visit(_page(in_subframe=True))
            hits += result.sockets_opened
        # Roughly half the sub-frame sockets race past the wrapper.
        assert 5 <= hits <= 25

    def test_without_wrapper_wrb_wins(self):
        browser = Browser(version=57)
        result = browser.visit(_page())
        assert result.sockets_opened == 1
