"""The uBO-Extra-style WRB workaround (content-script WebSocket wrapper).

While the webRequest bug was unpatched, blocking extensions shipped
"complicated workarounds" (the paper cites uBO-Extra): a content script
injected into every page replaced ``window.WebSocket`` with a wrapper
that reported each connection attempt to the extension — via a channel
the extension *could* see — before deciding whether to let the real
constructor run.

Our simulation models the essential mechanics and the essential
weaknesses:

* the wrapper consults the filter engine for every ``new WebSocket``
  from *page* context, independent of the browser version — so it works
  even with the WRB;
* but page scripts loaded inside cross-origin **iframes** get a fresh
  realm where the wrapper may not have been injected yet (the original
  uBO-Extra race), so a configurable fraction of frame-context sockets
  slip through;
* and the wrapper is detectable by the page (``WebSocket.toString()``
  no longer reports native code), which the paper's arms-race framing
  anticipates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.filters import CompiledFilterEngine
from repro.net.http import ResourceType


@dataclass
class WorkaroundStats:
    """What the wrapper observed and did."""

    wrapped_calls: int = 0
    blocked: int = 0
    escaped_subframe: int = 0


class WebSocketWrapperWorkaround:
    """A page-level ``window.WebSocket`` wrapper.

    Attributes:
        engine: Filter engine deciding each connection.
        subframe_coverage: Probability the wrapper is installed in a
            given sub-frame realm before scripts run (1.0 = perfect;
            the historical extensions raced and lost sometimes).
    """

    def __init__(
        self,
        engine: CompiledFilterEngine,
        subframe_coverage: float = 0.8,
    ) -> None:
        if not 0.0 <= subframe_coverage <= 1.0:
            raise ValueError("subframe_coverage must be in [0, 1]")
        self.engine = engine
        self.subframe_coverage = subframe_coverage
        self.stats = WorkaroundStats()

    def allow_socket(
        self,
        ws_url: str,
        first_party_url: str,
        in_subframe: bool,
        coverage_draw: float,
    ) -> bool:
        """Decide one ``new WebSocket(url)`` call from page context.

        Args:
            ws_url: The endpoint being opened.
            first_party_url: Top-level page URL.
            in_subframe: Whether the call happens in a sub-frame realm.
            coverage_draw: A uniform draw in [0,1) deciding whether the
                wrapper was installed in this realm in time (callers
                supply it from their deterministic RNG).

        Returns:
            True when the connection may proceed.
        """
        if in_subframe and coverage_draw >= self.subframe_coverage:
            self.stats.escaped_subframe += 1
            return True
        self.stats.wrapped_calls += 1
        blocked = self.engine.would_block(
            ws_url, ResourceType.WEBSOCKET, first_party_url
        )
        if blocked:
            self.stats.blocked += 1
        return not blocked

    @property
    def is_detectable(self) -> bool:
        """Page scripts can always detect the non-native constructor."""
        return True
