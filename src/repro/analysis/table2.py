"""Table 2: top WebSocket initiators by number of unique receivers."""

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
class Table2Row:
    """One initiator's row.

    Attributes:
        initiator: Short display name (``doubleclick``).
        initiator_domain: Full second-level domain.
        is_aa: Whether the initiator is A&A (bold in the paper).
        receivers_total: # unique receiver domains.
        receivers_aa: # unique A&A receiver domains.
        socket_count: Total sockets initiated.
    """

    initiator: str
    initiator_domain: str
    is_aa: bool
    receivers_total: int
    receivers_aa: int
    socket_count: int


@register_stage
class Table2Stage(AnalysisStage):
    """Per-initiator receiver sets, folded in one sweep.

    Publisher first-party initiators are included by default, as in the
    paper (slither.io tops its own sockets); they rank low anyway since
    each publisher contacts only its own handful of vendors.
    """

    name = "table2"
    version = "1"

    def __init__(
        self,
        top: int = 15,
        exclude_first_party_initiators: bool = False,
    ) -> None:
        self.top = top
        self.exclude_first_party_initiators = exclude_first_party_initiators
        self._receivers: dict[str, set[str]] = {}
        self._receivers_aa: dict[str, set[str]] = {}
        self._counts: dict[str, int] = {}
        self._aa_flags: dict[str, bool] = {}

    def spawn(self) -> "Table2Stage":
        return Table2Stage(self.top, self.exclude_first_party_initiators)

    def config_token(self) -> str:
        return (
            f"top={self.top},"
            f"exclude_first_party={self.exclude_first_party_initiators}"
        )

    def fold(self, view: SocketView) -> None:
        if self.exclude_first_party_initiators and _is_first_party(view):
            return
        initiator = view.initiator_domain
        self._receivers.setdefault(initiator, set()).add(view.receiver_domain)
        if view.aa_received:
            self._receivers_aa.setdefault(initiator, set()).add(
                view.receiver_domain
            )
        self._counts[initiator] = self._counts.get(initiator, 0) + 1
        # The A&A flag is a property of the initiator domain, so every
        # view of the same initiator agrees — last write is safe.
        self._aa_flags[initiator] = view.aa_initiated

    def merge(self, other: "Table2Stage") -> None:
        for initiator, receivers in other._receivers.items():
            self._receivers.setdefault(initiator, set()).update(receivers)
        for initiator, receivers in other._receivers_aa.items():
            self._receivers_aa.setdefault(initiator, set()).update(receivers)
        for initiator, count in other._counts.items():
            self._counts[initiator] = self._counts.get(initiator, 0) + count
        self._aa_flags.update(other._aa_flags)

    def finalize(self, ctx: StageContext) -> list[Table2Row]:
        rows = [
            Table2Row(
                initiator=display_name(domain),
                initiator_domain=domain,
                is_aa=self._aa_flags[domain],
                receivers_total=len(self._receivers[domain]),
                receivers_aa=len(self._receivers_aa.get(domain, ())),
                socket_count=self._counts[domain],
            )
            for domain in sorted(self._receivers)
        ]
        rows.sort(key=lambda r: (-r.receivers_total, -r.socket_count,
                                 r.initiator))
        return rows[:self.top]

    def encode_artifact(self, artifact: list[Table2Row]) -> list[dict]:
        return [dataclasses.asdict(row) for row in artifact]


def compute_table2(
    views: Iterable[SocketView],
    top: int = 15,
    exclude_first_party_initiators: bool = False,
) -> list[Table2Row]:
    """Aggregate per initiator over the merged dataset."""
    stage = fold_views(
        Table2Stage(top, exclude_first_party_initiators), views
    )
    return stage.finalize(StageContext())


def _is_first_party(view: SocketView) -> bool:
    from repro.net.domains import registrable_domain

    return view.initiator_domain == registrable_domain(
        view.record.first_party_host
    )
