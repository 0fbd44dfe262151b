"""The §4.1 prose statistics."""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from repro.analysis.classify import SocketView
from repro.analysis.stage import (
    AnalysisStage,
    StageContext,
    fold_views,
    register_stage,
)


@dataclass(frozen=True)
class OverallStats:
    """Merged-dataset statistics quoted in §4.1's text.

    Attributes:
        total_sockets: All sockets across all crawls.
        pct_cross_origin: % of sockets contacting a third-party domain.
        unique_third_party_receivers: Distinct third-party receiver
            domains (the paper: 382).
        unique_aa_receivers: Distinct A&A receiver domains (20).
        unique_aa_initiators: Distinct A&A initiator domains (94).
        avg_sockets_per_socket_site: Mean sockets per (crawl, site)
            among sites with sockets (6–12 in the paper).
        pct_aa_receivers_ge_10_initiators: % of A&A receivers contacted
            by ≥10 distinct initiators (>47%).
        disappeared_initiators: A&A initiators present in the first
            crawl but absent from the last (56).
        sockets_per_aa_initiator: Mean sockets per A&A initiator domain.
        sockets_per_non_aa_initiator: Mean sockets per non-A&A
            initiator domain — §4.1 observes A&A entities are involved
            in "an order of magnitude more" connections.
        aa_involvement_ratio: The former divided by the latter.
    """

    total_sockets: int
    pct_cross_origin: float
    unique_third_party_receivers: int
    unique_aa_receivers: int
    unique_aa_initiators: int
    avg_sockets_per_socket_site: float
    pct_aa_receivers_ge_10_initiators: float
    disappeared_initiators: int
    sockets_per_aa_initiator: float = 0.0
    sockets_per_non_aa_initiator: float = 0.0

    @property
    def aa_involvement_ratio(self) -> float:
        """How many times busier an A&A initiator is than a benign one."""
        if not self.sockets_per_non_aa_initiator:
            return float("inf") if self.sockets_per_aa_initiator else 0.0
        return self.sockets_per_aa_initiator / self.sockets_per_non_aa_initiator


@register_stage
class OverallStage(AnalysisStage):
    """The merged-dataset §4.1 statistics, folded in one sweep.

    Every accumulator is an integer count, a domain set, or an integer
    counter; all ratios and means are taken at ``finalize``, so folds
    and merges commute exactly.
    """

    name = "overall"
    version = "1"

    def __init__(self) -> None:
        self._total = 0
        self._cross = 0
        self._third_party_receivers: set[str] = set()
        self._aa_receivers: set[str] = set()
        self._aa_initiators: set[str] = set()
        self._per_site: Counter = Counter()
        self._initiators_per_receiver: dict[str, set[str]] = {}
        self._aa_counts: Counter = Counter()
        self._non_aa_counts: Counter = Counter()
        self._aa_initiators_by_crawl: dict[int, set[str]] = {}
        self._crawls_seen: set[int] = set()

    def fold(self, view: SocketView) -> None:
        self._total += 1
        self._crawls_seen.add(view.crawl)
        if view.record.cross_origin:
            self._cross += 1
            self._third_party_receivers.add(view.receiver_domain)
        if view.aa_received:
            self._aa_receivers.add(view.receiver_domain)
            self._initiators_per_receiver.setdefault(
                view.receiver_domain, set()
            ).add(view.initiator_domain)
        self._per_site[(view.crawl, view.record.site_domain)] += 1
        if view.aa_initiated:
            self._aa_initiators.add(view.initiator_domain)
            self._aa_counts[view.initiator_domain] += 1
            self._aa_initiators_by_crawl.setdefault(view.crawl, set()).add(
                view.initiator_domain
            )
        else:
            self._non_aa_counts[view.initiator_domain] += 1

    def merge(self, other: "OverallStage") -> None:
        self._total += other._total
        self._cross += other._cross
        self._third_party_receivers.update(other._third_party_receivers)
        self._aa_receivers.update(other._aa_receivers)
        self._aa_initiators.update(other._aa_initiators)
        self._per_site.update(other._per_site)
        for receiver, initiators in other._initiators_per_receiver.items():
            self._initiators_per_receiver.setdefault(
                receiver, set()
            ).update(initiators)
        self._aa_counts.update(other._aa_counts)
        self._non_aa_counts.update(other._non_aa_counts)
        for crawl, domains in other._aa_initiators_by_crawl.items():
            self._aa_initiators_by_crawl.setdefault(crawl, set()).update(
                domains
            )
        self._crawls_seen.update(other._crawls_seen)

    def finalize(self, ctx: StageContext) -> OverallStats:
        avg_per_site = (
            sum(self._per_site.values()) / len(self._per_site)
            if self._per_site else 0.0
        )
        ge10 = sum(
            1 for initiators in self._initiators_per_receiver.values()
            if len(initiators) >= 10
        )
        pct_ge10 = (
            100.0 * ge10 / len(self._initiators_per_receiver)
            if self._initiators_per_receiver else 0.0
        )
        sockets_per_aa = (
            sum(self._aa_counts.values()) / len(self._aa_counts)
            if self._aa_counts else 0.0
        )
        sockets_per_non_aa = (
            sum(self._non_aa_counts.values()) / len(self._non_aa_counts)
            if self._non_aa_counts else 0.0
        )
        crawls = sorted(self._crawls_seen)
        disappeared = 0
        if len(crawls) >= 2:
            first = self._aa_initiators_by_crawl.get(crawls[0], set())
            last = self._aa_initiators_by_crawl.get(crawls[-1], set())
            disappeared = len(first - last)
        return OverallStats(
            total_sockets=self._total,
            pct_cross_origin=(
                100.0 * self._cross / self._total if self._total else 0.0
            ),
            unique_third_party_receivers=len(self._third_party_receivers),
            unique_aa_receivers=len(self._aa_receivers),
            unique_aa_initiators=len(self._aa_initiators),
            avg_sockets_per_socket_site=avg_per_site,
            pct_aa_receivers_ge_10_initiators=pct_ge10,
            disappeared_initiators=disappeared,
            sockets_per_aa_initiator=sockets_per_aa,
            sockets_per_non_aa_initiator=sockets_per_non_aa,
        )

    def encode_artifact(self, artifact: OverallStats) -> dict:
        return dataclasses.asdict(artifact)


def compute_overall_stats(views: Iterable[SocketView]) -> OverallStats:
    """Compute the merged-dataset § 4.1 statistics."""
    stage = fold_views(OverallStage(), views)
    return stage.finalize(StageContext())
