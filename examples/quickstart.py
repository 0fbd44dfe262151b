"""Quickstart: crawl a few sites and look at what the pipeline sees.

Builds a small synthetic web, visits one publisher that embeds a
live-chat widget, prints the inclusion tree (the paper's Figure 2
structure), and shows the WebSocket traffic the crawler observed —
including the webRequest-bug timeline the study revolves around.

Run:  python examples/quickstart.py
"""

from repro.browser import Browser
from repro.cdp import EventBus
from repro.inclusion import InclusionTreeBuilder
from repro.web.server import SyntheticWeb, WebScale

WRB_TIMELINE = """
The webRequest Bug (WRB) timeline — Figure 1 of the paper:
  2012-05  Chromium issue 129353 filed: WebSockets don't trigger
           chrome.webRequest.onBeforeRequest
  2014-11  AdBlock Plus users report unblockable ads (Chrome only)
  2016-08  EasyList / uBlock Origin users observe WebSocket ads
  2016-11  Pornhub caught serving ads via WebSockets
  2017-04  * first two measurement crawls (Chrome 57, bug live)
  2017-04-19  Chrome 58 ships the fix
  2017-05, 2017-10  * two post-patch crawls (Chrome 58)
"""


def print_tree(node, indent=0):
    marker = {"document": "□", "resource": "·", "websocket": "⇄"}[node.kind.value]
    label = node.url or "(inline script)"
    print(f"{'  ' * indent}{marker} {label}")
    for child in node.children:
        print_tree(child, indent + 1)


def main() -> None:
    print(WRB_TIMELINE)

    print("Building a small synthetic web (this is 'the internet')…")
    web = SyntheticWeb(scale=WebScale(sample_scale=0.002, entity_scale=0.03))
    print(f"  seed list: {web.site_count} publishers; "
          f"{len(web.plan.site_plans)} host WebSockets\n")

    # Visit a publisher whose own inline script bootstraps Intercom
    # (one of the recognizable first parties from Table 4).
    domain = "acenterforrecovery.com"
    site = web.plan.site_plans[domain].site
    bus = EventBus()
    browser = Browser(version=57, bus=bus)  # pre-patch Chrome
    builder = InclusionTreeBuilder()
    builder.attach(bus)
    result = browser.visit(web.blueprint(site, 0, crawl=0))
    builder.detach()
    tree = builder.result()

    print(f"Visited {tree.root.url} with Chrome {browser.version}:")
    print(f"  {result.requests} HTTP requests, "
          f"{result.sockets_opened} WebSockets, "
          f"{result.frames_sent}/{result.frames_received} frames sent/received\n")

    print("Inclusion tree (□ document, · resource, ⇄ WebSocket):")
    print_tree(tree.root)

    for ws_node in tree.websockets:
        record = ws_node.websocket
        print(f"\nWebSocket to {record.url}")
        print(f"  initiated by: {ws_node.parent.url or '(inline script)'} ")
        print(f"  handshake Cookie: "
              f"{record.handshake_headers.get('Cookie', '(none)')}")
        for frame in record.frames[:4]:
            direction = "→" if frame.sent else "←"
            print(f"  {direction} {frame.payload[:90]}")


if __name__ == "__main__":
    main()
