"""Table 1: high-level statistics per crawl."""

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
from repro.crawler.dataset import DatasetMeta


@dataclass(frozen=True)
class Table1Row:
    """One crawl's row of Table 1.

    Attributes:
        crawl: Crawl index.
        label: Crawl window label.
        pct_sites_with_sockets: % of crawled sites with ≥1 socket.
        pct_sockets_aa_initiators: % of sockets initiated by an A&A
            domain's resource.
        unique_aa_initiators: # distinct A&A initiator domains.
        pct_sockets_aa_receivers: % of sockets received by an A&A
            domain.
        unique_aa_receivers: # distinct A&A receiver domains.
        total_sockets: Socket count (not printed by the paper; kept
            for diagnostics).
        sites_crawled: Denominator for the site percentage.
    """

    crawl: int
    label: str
    pct_sites_with_sockets: float
    pct_sockets_aa_initiators: float
    unique_aa_initiators: int
    pct_sockets_aa_receivers: float
    unique_aa_receivers: int
    total_sockets: int
    sites_crawled: int


@register_stage
class Table1Stage(AnalysisStage):
    """Per-crawl socket totals and A&A shares, folded in one sweep.

    Accumulates integer counts and domain sets only; every percentage
    is computed at ``finalize`` so folds and merges commute exactly.
    """

    name = "table1"
    version = "1"

    def __init__(self) -> None:
        self._totals: dict[int, int] = {}
        self._sites: dict[int, set[str]] = {}
        self._aa_initiated: dict[int, int] = {}
        self._aa_received: dict[int, int] = {}
        self._initiator_domains: dict[int, set[str]] = {}
        self._receiver_domains: dict[int, set[str]] = {}

    def fold(self, view: SocketView) -> None:
        crawl = view.crawl
        self._totals[crawl] = self._totals.get(crawl, 0) + 1
        self._sites.setdefault(crawl, set()).add(view.record.site_domain)
        if view.aa_initiated:
            self._aa_initiated[crawl] = self._aa_initiated.get(crawl, 0) + 1
            self._initiator_domains.setdefault(crawl, set()).add(
                view.initiator_domain
            )
        if view.aa_received:
            self._aa_received[crawl] = self._aa_received.get(crawl, 0) + 1
            self._receiver_domains.setdefault(crawl, set()).add(
                view.receiver_domain
            )

    def merge(self, other: "Table1Stage") -> None:
        for crawl, count in other._totals.items():
            self._totals[crawl] = self._totals.get(crawl, 0) + count
        for crawl, count in other._aa_initiated.items():
            self._aa_initiated[crawl] = (
                self._aa_initiated.get(crawl, 0) + count
            )
        for crawl, count in other._aa_received.items():
            self._aa_received[crawl] = self._aa_received.get(crawl, 0) + count
        for crawl, sites in other._sites.items():
            self._sites.setdefault(crawl, set()).update(sites)
        for crawl, domains in other._initiator_domains.items():
            self._initiator_domains.setdefault(crawl, set()).update(domains)
        for crawl, domains in other._receiver_domains.items():
            self._receiver_domains.setdefault(crawl, set()).update(domains)

    def finalize(self, ctx: StageContext) -> list[Table1Row]:
        rows: list[Table1Row] = []
        for crawl_meta in sorted(ctx.meta.crawls, key=lambda c: c.index):
            crawl = crawl_meta.index
            total = self._totals.get(crawl, 0)
            site_count = len(crawl_meta.sites)
            sites_with_sockets = len(self._sites.get(crawl, ()))
            aa_initiated = self._aa_initiated.get(crawl, 0)
            aa_received = self._aa_received.get(crawl, 0)
            rows.append(Table1Row(
                crawl=crawl,
                label=crawl_meta.label,
                pct_sites_with_sockets=(
                    100.0 * sites_with_sockets / site_count
                    if site_count else 0.0
                ),
                pct_sockets_aa_initiators=(
                    100.0 * aa_initiated / total if total else 0.0
                ),
                unique_aa_initiators=len(
                    self._initiator_domains.get(crawl, ())
                ),
                pct_sockets_aa_receivers=(
                    100.0 * aa_received / total if total else 0.0
                ),
                unique_aa_receivers=len(self._receiver_domains.get(crawl, ())),
                total_sockets=total,
                sites_crawled=site_count,
            ))
        return rows

    def encode_artifact(self, artifact: list[Table1Row]) -> list[dict]:
        return [dataclasses.asdict(row) for row in artifact]


def compute_table1(
    views: Iterable[SocketView],
    meta: DatasetMeta,
) -> list[Table1Row]:
    """Compute one row per crawl, in crawl order.

    ``meta`` is the dataset's :class:`DatasetMeta` (e.g.
    ``dataset.meta``, or :meth:`DatasetMeta.from_mappings` when
    starting from raw site/label mappings).
    """
    stage = fold_views(Table1Stage(), views)
    return stage.finalize(StageContext(meta=meta))
