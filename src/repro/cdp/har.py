"""HAR (HTTP Archive 1.2) export of recorded sessions.

Measurement crawlers conventionally archive visits as HAR; this module
converts a recorded CDP event stream into a HAR document, with the
WebSocket traffic attached under the de-facto ``_webSocketMessages``
extension field that browser devtools use.
"""

from __future__ import annotations

import datetime as dt
from typing import Iterable

from repro.cdp.events import (
    CdpEvent,
    RequestWillBeSent,
    ResponseReceived,
    WebSocketCreated,
    WebSocketFrameReceived,
    WebSocketFrameSent,
    WebSocketWillSendHandshakeRequest,
)

_HAR_VERSION = "1.2"
_CREATOR = {"name": "repro-websockets-imc18", "version": "1.0.0"}


def _iso(ts: float) -> str:
    return dt.datetime.fromtimestamp(ts, tz=dt.timezone.utc).isoformat()


def _headers(mapping: dict[str, str]) -> list[dict[str, str]]:
    return [{"name": k, "value": v} for k, v in mapping.items()]


def events_to_har(events: Iterable[CdpEvent]) -> dict:
    """Convert a session's events into a HAR dictionary.

    HTTP request/response pairs become ordinary HAR entries; WebSocket
    connections become entries whose ``_resourceType`` is
    ``"websocket"`` with their frames in ``_webSocketMessages``.
    """
    entries: dict[str, dict] = {}
    order: list[str] = []
    for event in events:
        if isinstance(event, RequestWillBeSent):
            entry = {
                "startedDateTime": _iso(event.timestamp),
                "time": 0.0,
                "request": {
                    "method": event.method,
                    "url": event.url,
                    "httpVersion": "HTTP/1.1",
                    "headers": _headers(event.headers),
                    "queryString": [],
                    "cookies": [],
                    "headersSize": -1,
                    "bodySize": len(event.post_data),
                },
                "response": _empty_response(),
                "cache": {},
                "timings": {"send": 0, "wait": 0, "receive": 0},
                "_resourceType": event.resource_type.lower(),
            }
            if event.post_data:
                entry["request"]["postData"] = {
                    "mimeType": "application/x-www-form-urlencoded",
                    "text": event.post_data,
                }
            entries[event.request_id] = entry
            order.append(event.request_id)
        elif isinstance(event, ResponseReceived):
            entry = entries.get(event.request_id)
            if entry is not None:
                entry["response"] = {
                    "status": event.status,
                    "statusText": "OK" if event.status == 200 else "",
                    "httpVersion": "HTTP/1.1",
                    "headers": [],
                    "cookies": [],
                    "content": {"size": 0, "mimeType": event.mime_type},
                    "redirectURL": "",
                    "headersSize": -1,
                    "bodySize": -1,
                }
        elif isinstance(event, WebSocketCreated):
            entry = {
                "startedDateTime": _iso(event.timestamp),
                "time": 0.0,
                "request": {
                    "method": "GET",
                    "url": event.url,
                    "httpVersion": "HTTP/1.1",
                    "headers": [],
                    "queryString": [],
                    "cookies": [],
                    "headersSize": -1,
                    "bodySize": 0,
                },
                "response": _empty_response(),
                "cache": {},
                "timings": {"send": 0, "wait": 0, "receive": 0},
                "_resourceType": "websocket",
                "_webSocketMessages": [],
                "_initiator": event.initiator.url,
            }
            entries[event.request_id] = entry
            order.append(event.request_id)
        elif isinstance(event, WebSocketWillSendHandshakeRequest):
            entry = entries.get(event.request_id)
            if entry is not None:
                entry["request"]["headers"] = _headers(event.headers)
        elif isinstance(event, (WebSocketFrameSent, WebSocketFrameReceived)):
            entry = entries.get(event.request_id)
            if entry is not None and "_webSocketMessages" in entry:
                entry["_webSocketMessages"].append({
                    "type": "send" if isinstance(event, WebSocketFrameSent)
                    else "receive",
                    "time": event.timestamp,
                    "opcode": event.opcode,
                    "data": event.payload_data,
                })
    return {
        "log": {
            "version": _HAR_VERSION,
            "creator": dict(_CREATOR),
            "entries": [entries[request_id] for request_id in order],
        }
    }


def _empty_response() -> dict:
    return {
        "status": 0,
        "statusText": "",
        "httpVersion": "HTTP/1.1",
        "headers": [],
        "cookies": [],
        "content": {"size": 0, "mimeType": ""},
        "redirectURL": "",
        "headersSize": -1,
        "bodySize": -1,
    }
