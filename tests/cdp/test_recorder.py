"""Tests for session recording and replay."""

from repro.cdp.bus import EventBus
from repro.cdp.events import ScriptParsed, WebSocketFrameSent
from repro.cdp.recorder import SessionRecorder


def _events():
    return [
        ScriptParsed(timestamp=1.0, script_id="1", url="https://a/x.js"),
        WebSocketFrameSent(timestamp=2.0, request_id="r", opcode=1,
                           payload_data='{"k":"v"}', masked=True),
    ]


def test_records_published_events():
    bus = EventBus()
    recorder = SessionRecorder(bus)
    for event in _events():
        bus.publish(event)
    assert len(recorder) == 2
    recorder.detach()
    bus.publish(_events()[0])
    assert len(recorder) == 2


def test_replay_into_other_bus():
    bus = EventBus()
    recorder = SessionRecorder(bus)
    for event in _events():
        bus.publish(event)
    recorder.detach()
    target = EventBus()
    replayed = []
    target.subscribe(replayed.append)
    assert recorder.replay_into(target) == 2
    assert replayed == recorder.events


def test_clear():
    recorder = SessionRecorder()
    recorder.events.extend(_events())
    recorder.clear()
    assert len(recorder) == 0
