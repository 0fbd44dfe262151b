"""Tests for HAR export."""

from repro.browser import Browser
from repro.cdp import EventBus, SessionRecorder
from repro.cdp.har import events_to_har
from repro.net.http import ResourceType
from repro.web.blueprint import PageBlueprint, ResourceNode, SocketPlan

PAGE = "https://pub.example.com/"


def _record_visit():
    script = ResourceNode(url="https://cdn.chat.example/widget.js",
                          sets_cookie=True)
    script.sockets.append(SocketPlan(
        ws_url="wss://ws.chat.example/socket", profile="chat",
    ))
    page = PageBlueprint(url=PAGE, resources=[
        ResourceNode(url=f"{PAGE}style.css",
                     resource_type=ResourceType.STYLESHEET,
                     mime_type="text/css"),
        script,
    ])
    bus = EventBus()
    recorder = SessionRecorder(bus)
    Browser(version=57, bus=bus).visit(page)
    return recorder.events


def test_har_structure():
    har = events_to_har(_record_visit())
    log = har["log"]
    assert log["version"] == "1.2"
    assert log["entries"]
    urls = [e["request"]["url"] for e in log["entries"]]
    assert PAGE in urls
    assert "wss://ws.chat.example/socket" in urls


def test_http_entries_have_responses():
    har = events_to_har(_record_visit())
    css = next(e for e in har["log"]["entries"]
               if e["request"]["url"].endswith("style.css"))
    assert css["response"]["status"] == 200
    assert css["response"]["content"]["mimeType"] == "text/css"
    assert css["_resourceType"] == "stylesheet"


def test_websocket_entry_has_messages_and_handshake():
    har = events_to_har(_record_visit())
    ws = next(e for e in har["log"]["entries"]
              if e["_resourceType"] == "websocket")
    header_names = {h["name"] for h in ws["request"]["headers"]}
    assert "Sec-WebSocket-Key" in header_names
    assert ws["_initiator"] == "https://cdn.chat.example/widget.js"
    types = {m["type"] for m in ws["_webSocketMessages"]}
    assert types <= {"send", "receive"}
    assert ws["_webSocketMessages"]


def test_har_names_its_creator():
    har = events_to_har(_record_visit())
    assert har["log"]["creator"]["name"] == "repro-websockets-imc18"


def test_entries_in_request_order():
    har = events_to_har(_record_visit())
    times = [e["startedDateTime"] for e in har["log"]["entries"]]
    assert times == sorted(times)
