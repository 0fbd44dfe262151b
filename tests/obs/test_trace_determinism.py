"""CDP event ordering and trace byte-reproducibility.

These pin the two guarantees ``repro study --trace`` advertises: the
recorded CDP event stream respects the ``Network.webSocket*`` lifecycle
per socket, and two same-seed runs export byte-identical artifacts.
"""

from repro.cdp import SessionRecorder
from repro.experiments import SMOKE_CONFIG
from repro.experiments.runner import run_study
from repro.obs import write_metrics, write_trace

_LIFECYCLE = (
    "Network.webSocketCreated",
    "Network.webSocketWillSendHandshakeRequest",
    "Network.webSocketHandshakeResponseReceived",
    "Network.webSocketClosed",
)


def _events_for(recorder: SessionRecorder, request_id: str) -> list[str]:
    """Methods recorded for one request id, in publication order."""
    return [
        event.METHOD for event in recorder
        if getattr(event, "request_id", "") == request_id
    ]


class TestCdpEventOrdering:
    def test_websocket_lifecycle_order_per_socket(self, tiny_web, bus, browser):
        recorder = SessionRecorder(bus)
        plan = next(iter(tiny_web.plan.site_plans.values()))
        # Sockets appear per-page probabilistically; a handful of pages
        # is guaranteed to hit at least one.
        for page in range(6):
            browser.visit(tiny_web.blueprint(plan.site, page, 0), crawl=0)
        socket_ids = {
            event.request_id for event in recorder
            if event.METHOD == "Network.webSocketCreated"
        }
        assert socket_ids, "fixture site should open at least one socket"
        for rid in socket_ids:
            methods = _events_for(recorder, rid)
            milestones = [m for m in methods if m in _LIFECYCLE]
            assert milestones == list(_LIFECYCLE)
            # Data frames only flow between the 101 and the close.
            lo = methods.index(_LIFECYCLE[2])
            hi = methods.index(_LIFECYCLE[3])
            frame_positions = [
                i for i, m in enumerate(methods)
                if m.startswith("Network.webSocketFrame")
            ]
            assert all(lo < i < hi for i in frame_positions)


class TestByteIdenticalRuns:
    def test_same_seed_runs_export_identical_artifacts(self, tmp_path):
        paths = {}
        for run in ("a", "b"):
            result = run_study(SMOKE_CONFIG)
            trace = tmp_path / f"{run}.jsonl"
            metrics = tmp_path / f"{run}.json"
            write_trace(trace, result.obs)
            write_metrics(metrics, result.obs)
            paths[run] = (trace, metrics)
        assert paths["a"][0].read_bytes() == paths["b"][0].read_bytes()
        assert paths["a"][1].read_bytes() == paths["b"][1].read_bytes()
