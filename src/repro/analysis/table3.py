"""Table 3: top A&A WebSocket receivers by number of unique initiators."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable

from repro.analysis.classify import SocketView
from repro.analysis.stage import (
    AnalysisStage,
    StageContext,
    fold_views,
    register_stage,
)
from repro.net.domains import display_name


@dataclass(frozen=True)
class Table3Row:
    """One A&A receiver's row.

    Attributes:
        receiver: Short display name.
        receiver_domain: Full second-level domain.
        initiators_total: # unique initiator domains.
        initiators_aa: # unique A&A initiator domains.
        socket_count: Total sockets received.
    """

    receiver: str
    receiver_domain: str
    initiators_total: int
    initiators_aa: int
    socket_count: int


@register_stage
class Table3Stage(AnalysisStage):
    """Per-A&A-receiver initiator sets, folded in one sweep."""

    name = "table3"
    version = "1"

    def __init__(self, top: int = 15) -> None:
        self.top = top
        self._initiators: dict[str, set[str]] = {}
        self._initiators_aa: dict[str, set[str]] = {}
        self._counts: dict[str, int] = {}

    def spawn(self) -> "Table3Stage":
        return Table3Stage(self.top)

    def config_token(self) -> str:
        return f"top={self.top}"

    def fold(self, view: SocketView) -> None:
        if not view.aa_received:
            return
        receiver = view.receiver_domain
        self._initiators.setdefault(receiver, set()).add(
            view.initiator_domain
        )
        if view.aa_initiated:
            self._initiators_aa.setdefault(receiver, set()).add(
                view.initiator_domain
            )
        self._counts[receiver] = self._counts.get(receiver, 0) + 1

    def merge(self, other: "Table3Stage") -> None:
        for receiver, initiators in other._initiators.items():
            self._initiators.setdefault(receiver, set()).update(initiators)
        for receiver, initiators in other._initiators_aa.items():
            self._initiators_aa.setdefault(receiver, set()).update(initiators)
        for receiver, count in other._counts.items():
            self._counts[receiver] = self._counts.get(receiver, 0) + count

    def finalize(self, ctx: StageContext) -> list[Table3Row]:
        rows = [
            Table3Row(
                receiver=display_name(domain),
                receiver_domain=domain,
                initiators_total=len(self._initiators[domain]),
                initiators_aa=len(self._initiators_aa.get(domain, ())),
                socket_count=self._counts[domain],
            )
            for domain in sorted(self._initiators)
        ]
        rows.sort(key=lambda r: (-r.initiators_total, -r.socket_count,
                                 r.receiver))
        return rows[:self.top]

    def encode_artifact(self, artifact: list[Table3Row]) -> list[dict]:
        return [dataclasses.asdict(row) for row in artifact]


def compute_table3(
    views: Iterable[SocketView], top: int = 15
) -> list[Table3Row]:
    """Aggregate per A&A receiver over the merged dataset."""
    stage = fold_views(Table3Stage(top), views)
    return stage.finalize(StageContext())


def aa_initiator_share(views: Iterable[SocketView]) -> float:
    """§4.2: share of initiators contacting A&A receivers that are A&A.

    The paper reports ~2.5%: the overwhelming majority of initiators
    creating sockets to A&A receivers are benign domains or first-party
    publishers. Computed over unique initiator domains.
    """
    initiators: set[str] = set()
    aa_initiators: set[str] = set()
    for view in views:
        if not view.aa_received:
            continue
        initiators.add(view.initiator_domain)
        if view.aa_initiated:
            aa_initiators.add(view.initiator_domain)
    if not initiators:
        return 0.0
    return 100.0 * len(aa_initiators) / len(initiators)
