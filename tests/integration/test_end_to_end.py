"""End-to-end integration: the whole pipeline on one reserved site."""

import json

from repro.browser import Browser
from repro.cdp import EventBus, SessionRecorder
from repro.cdp.events import parse_event
from repro.content.items import SentItem
from repro.crawler.observation import observe_page
from repro.inclusion import InclusionTreeBuilder, chain_domains


def _visit(web, domain, crawl=0, version=57):
    site = web.plan.site_plans[domain].site
    bus = EventBus()
    browser = Browser(version=version, bus=bus)
    browser.new_profile(domain)
    builder = InclusionTreeBuilder()
    recorder = SessionRecorder(bus)
    builder.attach(bus)
    browser.visit(web.blueprint(site, 0, crawl), crawl=crawl)
    builder.detach()
    return builder.result(), recorder


def test_reserved_intercom_customer_full_pipeline(tiny_web):
    tree, recorder = _visit(tiny_web, "acenterforrecovery.com")
    assert tree.websockets
    socket = tree.websockets[0]
    # Figure 2 semantics: socket attributed to the inline first-party
    # script, widget assets loaded beside it.
    assert chain_domains(socket) == ["acenterforrecovery.com", "intercom.io"]
    assert socket.websocket.handshake_headers["User-Agent"].startswith(
        "Mozilla/5.0"
    )
    obs = observe_page(tree, "acenterforrecovery.com", 61_300, "Health", 0)
    assert obs.sockets[0].initiator_host == "www.acenterforrecovery.com"
    assert SentItem.USER_AGENT in obs.sockets[0].sent_items


def test_sportingindex_chain_passes_through_doubleclick(tiny_web):
    tree, _ = _visit(tiny_web, "sportingindex.com")
    socket = next(
        ws for ws in tree.websockets if "sportingindex" in ws.url
    )
    domains = chain_domains(socket)
    assert "doubleclick.net" in domains
    assert domains[-1] == "sportingindex.com"


def test_slither_game_sockets_are_binary(tiny_web):
    site = tiny_web.plan.site_plans["slither.io"].site
    bus = EventBus()
    browser = Browser(version=57, bus=bus)
    game_sockets = []
    # The game connects on ~55% of page visits; scan a few pages.
    for page_index in range(8):
        builder = InclusionTreeBuilder()
        builder.attach(bus)
        browser.visit(tiny_web.blueprint(site, page_index, 0), crawl=0)
        builder.detach()
        game_sockets.extend(
            ws for ws in builder.result().websockets if "slither" in ws.url
        )
        if game_sockets:
            break
    assert game_sockets
    frames = game_sockets[0].websocket.frames
    assert frames
    assert all(f.opcode == 2 for f in frames)


def test_event_stream_round_trips_through_jsonl(tiny_web):
    _, recorder = _visit(tiny_web, "acenterforrecovery.com")
    lines = [json.dumps(event.to_cdp()) for event in recorder.events]
    loaded = [parse_event(json.loads(line)) for line in lines]
    assert loaded == recorder.events
    # Rebuilding the tree from the recorded stream gives the same shape.
    rebuilt = InclusionTreeBuilder()
    for event in loaded:
        rebuilt.handle(event)
    tree = rebuilt.result()
    assert len(tree.websockets) >= 1


def test_recorded_wire_format_parses_back(tiny_web):
    _, recorder = _visit(tiny_web, "slither.io")
    for event in recorder.events:
        assert parse_event(event.to_cdp()) == event
