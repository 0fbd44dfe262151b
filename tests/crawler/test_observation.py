"""Tests for page observation extraction."""

from repro.cdp.events import (
    FrameNavigated,
    Initiator,
    RequestWillBeSent,
    ResponseReceived,
    ScriptParsed,
    WebSocketCreated,
    WebSocketFrameReceived,
    WebSocketFrameSent,
    WebSocketWillSendHandshakeRequest,
)
from repro.content.items import ReceivedClass, SentItem
from repro.inclusion.builder import InclusionTreeBuilder
from repro.crawler.observation import observe_page

PAGE = "https://pub.example.com/"
SCRIPT = "https://cdn.fptracker.net/fp.js"
WS = "wss://rt.fptracker.net/collect"


def _build_tree():
    builder = InclusionTreeBuilder()
    builder.handle(RequestWillBeSent(
        timestamp=0.0, request_id="r0", document_url=PAGE, url=PAGE,
        resource_type="Document", frame_id="F1",
        initiator=Initiator(type="other"),
        headers={"User-Agent": "UA"},
    ))
    builder.handle(FrameNavigated(timestamp=0.1, frame_id="F1", url=PAGE))
    builder.handle(RequestWillBeSent(
        timestamp=1.0, request_id="r1", document_url=PAGE, url=SCRIPT,
        resource_type="Script", frame_id="F1",
        initiator=Initiator(type="parser", url=PAGE),
        headers={"User-Agent": "UA", "Cookie": "uid=deadbeef012345"},
    ))
    builder.handle(ResponseReceived(
        timestamp=1.1, request_id="r1", url=SCRIPT, status=200,
        mime_type="application/javascript", resource_type="Script",
        frame_id="F1",
    ))
    builder.handle(ScriptParsed(timestamp=1.2, script_id="1", url=SCRIPT,
                                frame_id="F1"))
    builder.handle(WebSocketCreated(
        timestamp=2.0, request_id="ws1", url=WS,
        initiator=Initiator(type="script", url=SCRIPT, script_id="1",
                            stack_urls=(SCRIPT,)),
        frame_id="F1",
    ))
    builder.handle(WebSocketWillSendHandshakeRequest(
        timestamp=2.1, request_id="ws1",
        headers={"User-Agent": "UA", "Cookie": "uid=deadbeef012345"},
    ))
    builder.handle(WebSocketFrameSent(
        timestamp=2.2, request_id="ws1", opcode=1,
        payload_data='{"screen":"1920x1080","viewport":"1280x720",'
                     '"orientation":"landscape-primary"}',
    ))
    builder.handle(WebSocketFrameReceived(
        timestamp=2.3, request_id="ws1", opcode=1,
        payload_data='{"type":"ack"}',
    ))
    return builder.result()


def test_observed_socket_fields():
    obs = observe_page(_build_tree(), "pub.example.com", 123, "News", 2)
    assert len(obs.sockets) == 1
    socket = obs.sockets[0]
    assert socket.host == "rt.fptracker.net"
    assert socket.initiator_host == "cdn.fptracker.net"
    assert socket.chain_hosts == (
        "pub.example.com", "cdn.fptracker.net", "rt.fptracker.net"
    )
    assert socket.chain_script_urls == (SCRIPT,)
    assert socket.cross_origin
    assert socket.handshake_cookie


def test_socket_content_analysis():
    obs = observe_page(_build_tree(), "pub.example.com", 123, "News", 2)
    socket = obs.sockets[0]
    assert {SentItem.SCREEN, SentItem.VIEWPORT, SentItem.ORIENTATION,
            SentItem.USER_AGENT, SentItem.COOKIE} <= socket.sent_items
    assert socket.received_classes == {ReceivedClass.JSON}
    assert not socket.sent_nothing
    assert not socket.received_nothing


def test_resources_observed():
    obs = observe_page(_build_tree(), "pub.example.com", 123, "News", 2)
    # The root document is excluded; the script is a resource.
    assert len(obs.resources) == 1
    resource = obs.resources[0]
    assert resource.host == "cdn.fptracker.net"
    assert resource.mime_type == "application/javascript"
    assert resource.has_cookie
    assert SentItem.COOKIE in resource.sent_items


def test_metadata_flows_through():
    obs = observe_page(_build_tree(), "pub.example.com", 123, "News", 2)
    assert (obs.site_domain, obs.rank, obs.category, obs.crawl) == (
        "pub.example.com", 123, "News", 2
    )
    assert obs.page_url == PAGE
