"""Table 4: top initiator/receiver pairs communicating via WebSockets."""

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
class Table4Row:
    """One cross-domain pair's row.

    Attributes:
        initiator: Initiator display name.
        receiver: Receiver display name.
        initiator_is_aa / receiver_is_aa: Bold flags from the paper.
        socket_count: Sockets between the pair (merged dataset).
    """

    initiator: str
    receiver: str
    initiator_is_aa: bool
    receiver_is_aa: bool
    socket_count: int


@dataclass(frozen=True)
class Table4:
    """The pair table plus the aggregated self-pair row.

    Attributes:
        rows: Top cross-domain pairs by socket count.
        self_pair_sockets: Total "A&A domain to itself" sockets.
    """

    rows: tuple[Table4Row, ...]
    self_pair_sockets: int


@register_stage
class Table4Stage(AnalysisStage):
    """A&A socket counts per (initiator, receiver) pair.

    Only *A&A sockets* qualify (§3.2 attribution: an A&A initiator,
    receiver, or chain ancestor). Pairs where initiator and receiver
    share a domain are aggregated into the self-pair row, as the paper
    does.
    """

    name = "table4"
    version = "1"

    def __init__(self, top: int = 15) -> None:
        self.top = top
        self._counts: dict[tuple[str, str], int] = {}
        self._flags: dict[tuple[str, str], tuple[bool, bool]] = {}
        self._self_pairs = 0

    def spawn(self) -> "Table4Stage":
        return Table4Stage(self.top)

    def config_token(self) -> str:
        return f"top={self.top}"

    def fold(self, view: SocketView) -> None:
        if not view.is_aa_socket:
            return
        if view.is_self_pair:
            self._self_pairs += 1
            return
        key = (view.initiator_domain, view.receiver_domain)
        self._counts[key] = self._counts.get(key, 0) + 1
        self._flags[key] = (view.aa_initiated, view.aa_received)

    def merge(self, other: "Table4Stage") -> None:
        for key, count in other._counts.items():
            self._counts[key] = self._counts.get(key, 0) + count
        self._flags.update(other._flags)
        self._self_pairs += other._self_pairs

    def finalize(self, ctx: StageContext) -> Table4:
        rows = [
            Table4Row(
                initiator=display_name(initiator),
                receiver=display_name(receiver),
                initiator_is_aa=self._flags[(initiator, receiver)][0],
                receiver_is_aa=self._flags[(initiator, receiver)][1],
                socket_count=self._counts[(initiator, receiver)],
            )
            for initiator, receiver in sorted(self._counts)
        ]
        rows.sort(key=lambda r: (-r.socket_count, r.initiator, r.receiver))
        return Table4(rows=tuple(rows[:self.top]),
                      self_pair_sockets=self._self_pairs)

    def encode_artifact(self, artifact: Table4) -> dict:
        return {
            "rows": [dataclasses.asdict(row) for row in artifact.rows],
            "self_pair_sockets": artifact.self_pair_sockets,
        }


def compute_table4(views: Iterable[SocketView], top: int = 15) -> Table4:
    """Aggregate A&A sockets per (initiator, receiver) pair."""
    stage = fold_views(Table4Stage(top), views)
    return stage.finalize(StageContext())
