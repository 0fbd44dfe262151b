"""Table 5: items sent/received over A&A sockets vs HTTP/S to A&A domains."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from repro.analysis.classify import SocketView
from repro.analysis.stage import (
    AnalysisStage,
    StageContext,
    fold_views,
    register_stage,
)
from repro.content.items import (
    RECEIVED_CLASSES,
    SENT_ITEMS,
    ReceivedClass,
    SentItem,
)
from repro.content.sent import SentDataAnalyzer
from repro.crawler.dataset import StudyDataset
from repro.labeling.aa_labeler import AaLabeler
from repro.labeling.resolver import DomainResolver

_ANALYZER = SentDataAnalyzer()


@dataclass(frozen=True)
class Table5Cell:
    """One (item, channel) cell: count and percentage."""

    count: int
    percent: float


@dataclass
class Table5:
    """The full table.

    Attributes:
        ws_total: A&A sockets (the WebSocket denominators).
        http_total: HTTP/S requests to A&A domains.
        sent_ws / sent_http: Item → cell, sent direction.
        received_ws / received_http: Class → cell, received direction.
        ws_sent_nothing / ws_received_nothing: "No data" rows.
        fingerprinting_sockets: Sockets exfiltrating fingerprint items.
        fingerprinting_pairs: Unique (initiator, receiver) pairs doing
            so, with the top receiver's share (§4.3's 97% statistic).
        dom_receivers: Receivers of serialized DOMs.
    """

    ws_total: int = 0
    http_total: int = 0
    sent_ws: dict[SentItem, Table5Cell] = field(default_factory=dict)
    sent_http: dict[SentItem, Table5Cell] = field(default_factory=dict)
    received_ws: dict[ReceivedClass, Table5Cell] = field(default_factory=dict)
    received_http: dict[ReceivedClass, Table5Cell] = field(default_factory=dict)
    ws_sent_nothing: Table5Cell = Table5Cell(0, 0.0)
    ws_received_nothing: Table5Cell = Table5Cell(0, 0.0)
    fingerprinting_sockets: int = 0
    fingerprinting_pairs: int = 0
    fingerprinting_top_receiver: str = ""
    fingerprinting_top_receiver_share: float = 0.0
    dom_receivers: tuple[str, ...] = ()


@register_stage
class Table5Stage(AnalysisStage):
    """Sent/received item counts over A&A sockets, folded in one sweep.

    The WebSocket half accumulates from the view stream; the HTTP half
    is aggregated by the dataset itself (per-host request counters), so
    it is evaluated at ``finalize`` against the derived labeler.
    """

    name = "table5"
    version = "1"

    def __init__(self) -> None:
        self._ws_total = 0
        self._sent: Counter = Counter()
        self._received: Counter = Counter()
        self._sent_nothing = 0
        self._received_nothing = 0
        self._fp_pairs: Counter = Counter()
        self._fp_sockets = 0
        self._dom_receivers: set[str] = set()

    def fold(self, view: SocketView) -> None:
        if not view.is_aa_socket:
            return
        self._ws_total += 1
        items = view.record.sent_items
        for item in items:
            self._sent[item] += 1
        if view.record.sent_nothing:
            self._sent_nothing += 1
        for cls in view.record.received_classes:
            self._received[cls] += 1
        if view.record.received_nothing:
            self._received_nothing += 1
        if _ANALYZER.is_fingerprinting(set(items)):
            self._fp_sockets += 1
            self._fp_pairs[(view.initiator_domain, view.receiver_domain)] += 1
        if SentItem.DOM in items:
            self._dom_receivers.add(view.receiver_domain)

    def merge(self, other: "Table5Stage") -> None:
        self._ws_total += other._ws_total
        self._sent.update(other._sent)
        self._received.update(other._received)
        self._sent_nothing += other._sent_nothing
        self._received_nothing += other._received_nothing
        self._fp_pairs.update(other._fp_pairs)
        self._fp_sockets += other._fp_sockets
        self._dom_receivers.update(other._dom_receivers)

    def finalize(self, ctx: StageContext) -> Table5:
        table = Table5()
        table.ws_total = self._ws_total
        total = table.ws_total or 1
        table.sent_ws = {
            item: Table5Cell(self._sent[item],
                             100.0 * self._sent[item] / total)
            for item in SENT_ITEMS
        }
        table.received_ws = {
            cls: Table5Cell(self._received[cls],
                            100.0 * self._received[cls] / total)
            for cls in RECEIVED_CLASSES
        }
        table.ws_sent_nothing = Table5Cell(
            self._sent_nothing, 100.0 * self._sent_nothing / total
        )
        table.ws_received_nothing = Table5Cell(
            self._received_nothing, 100.0 * self._received_nothing / total
        )
        table.fingerprinting_sockets = self._fp_sockets
        table.fingerprinting_pairs = len(self._fp_pairs)
        if self._fp_pairs:
            by_receiver: Counter = Counter()
            for (_, receiver), _count in self._fp_pairs.items():
                by_receiver[receiver] += 1
            # Deterministic tie-break: highest pair count, then
            # lexicographically smallest receiver — fold/merge order
            # must not leak into the artifact.
            top_receiver, top_count = max(
                sorted(by_receiver.items()), key=lambda kv: kv[1]
            )
            table.fingerprinting_top_receiver = top_receiver
            table.fingerprinting_top_receiver_share = (
                100.0 * top_count / len(self._fp_pairs)
            )
        table.dom_receivers = tuple(sorted(self._dom_receivers))

        # --- HTTP side: requests to A&A domains. --------------------------
        dataset, labeler, resolver = ctx.dataset, ctx.labeler, ctx.resolver
        http_total = 0
        http_sent: Counter = Counter()
        http_received: Counter = Counter()
        if dataset is not None and labeler is not None and resolver is not None:
            for host, count in dataset.http_requests_by_host.items():
                if not labeler.is_aa(resolver.effective_domain(host)):
                    continue
                http_total += count
                bucket = dataset.http_items_by_host.get(host)
                if bucket:
                    http_sent.update(bucket)
                received = dataset.http_received_by_host.get(host)
                if received:
                    http_received.update(received)
        table.http_total = http_total
        denom = http_total or 1
        table.sent_http = {
            item: Table5Cell(http_sent[item],
                             100.0 * http_sent[item] / denom)
            for item in SENT_ITEMS
        }
        table.received_http = {
            cls: Table5Cell(http_received[cls],
                            100.0 * http_received[cls] / denom)
            for cls in RECEIVED_CLASSES
        }
        return table

    def encode_artifact(self, artifact: Table5) -> dict:
        from repro.analysis._codecs import encode_table5

        return encode_table5(artifact)


def compute_table5(
    dataset: StudyDataset,
    views: Iterable[SocketView],
    labeler: AaLabeler | None = None,
    resolver: DomainResolver | None = None,
) -> Table5:
    """Compute the table over the merged dataset."""
    labeler = labeler or dataset.derive_labeler()
    resolver = resolver or dataset.derive_resolver(labeler)
    stage = fold_views(Table5Stage(), views)
    return stage.finalize(StageContext(
        labeler=labeler, resolver=resolver, dataset=dataset
    ))
