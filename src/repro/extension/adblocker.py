"""An AdBlock-Plus-style blocking extension.

Binds a :class:`~repro.filters.CompiledFilterEngine` to the ``webRequest`` API.
The ``websocket_aware`` flag selects between correct ``ws://*``-inclusive
URL patterns and the ``http://*``-only patterns Franken et al. found in
real extensions — with the latter, WebSockets slip through even on
patched Chrome.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.extension.webrequest import (
    BlockingResponse,
    RequestFilter,
    WebRequestApi,
)
from repro.filters import CompiledFilterEngine
from repro.net.http import HttpRequest

_HTTP_ONLY_PATTERNS = ("http://*", "https://*")
_ALL_PATTERNS = ("http://*", "https://*", "ws://*", "wss://*")


@dataclass
class BlockerStats:
    """What the extension saw and did."""

    inspected: int = 0
    blocked: int = 0
    blocked_urls: list[str] = field(default_factory=list)

    def reset(self) -> None:
        self.inspected = 0
        self.blocked = 0
        self.blocked_urls.clear()


class AdBlockerExtension:
    """A filter-list blocker living inside a simulated browser.

    Attributes:
        engine: The filter engine evaluating each request.
        websocket_aware: Whether the listener's URL patterns include
            ``ws://*``/``wss://*``.
        keep_blocked_urls: Record blocked URLs (tests/diagnostics).
    """

    def __init__(
        self,
        engine: CompiledFilterEngine,
        websocket_aware: bool = True,
        keep_blocked_urls: bool = False,
    ) -> None:
        self.engine = engine
        self.websocket_aware = websocket_aware
        self.keep_blocked_urls = keep_blocked_urls
        self.stats = BlockerStats()

    def install(self, api: WebRequestApi) -> None:
        """Register with a browser's webRequest API."""
        patterns = _ALL_PATTERNS if self.websocket_aware else _HTTP_ONLY_PATTERNS
        api.add_on_before_request(
            self._on_before_request,
            RequestFilter(url_patterns=patterns),
            blocking=True,
        )

    def _on_before_request(self, request: HttpRequest) -> BlockingResponse:
        self.stats.inspected += 1
        result = self.engine.match(
            request.url, request.resource_type, request.first_party_url
        )
        if result.blocked:
            self.stats.blocked += 1
            if self.keep_blocked_urls:
                self.stats.blocked_urls.append(request.url)
        return BlockingResponse(cancel=result.blocked)
