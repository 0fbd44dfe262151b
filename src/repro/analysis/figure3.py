"""Figure 3: WebSocket usage by Alexa site rank.

For every rank bin (10K wide, to 1M), the fraction of crawled
publishers in that bin exhibiting A&A sockets and non-A&A sockets.
The paper's headline shape: A&A ≈ 2× non-A&A overall, ≈ 4.5× within
the top 10K, with a drop between 10K and 20K.
"""

from __future__ import annotations

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

BIN_WIDTH = 10_000
MAX_RANK = 1_000_000


@dataclass(frozen=True)
class Figure3Series:
    """The figure's two series plus its headline ratios.

    Attributes:
        bins: Bin start ranks (0, 10K, 20K, …).
        aa_fraction: % of publishers in bin with ≥1 A&A socket.
        non_aa_fraction: % of publishers in bin with ≥1 non-A&A (and
            no A&A) classification… see note: a publisher counts in
            the non-A&A series when it has at least one non-A&A socket.
        publishers_per_bin: Denominators.
        overall_ratio: (A&A share) / (non-A&A share) across all ranks.
        top10k_ratio: Same ratio within the first bin.
    """

    bins: tuple[int, ...]
    aa_fraction: tuple[float, ...]
    non_aa_fraction: tuple[float, ...]
    publishers_per_bin: tuple[int, ...]
    overall_ratio: float
    top10k_ratio: float


@register_stage
class Figure3Stage(AnalysisStage):
    """Per-publisher socket prevalence, folded in one sweep.

    The fold only tracks which sites exhibited A&A / non-A&A sockets;
    the rank binning comes from the dataset metadata at ``finalize``.
    """

    name = "figure3"
    version = "1"

    def __init__(self, bin_width: int = BIN_WIDTH) -> None:
        self.bin_width = bin_width
        self._aa_sites: set[str] = set()
        self._non_aa_sites: set[str] = set()

    def spawn(self) -> "Figure3Stage":
        return Figure3Stage(self.bin_width)

    def config_token(self) -> str:
        return f"bin_width={self.bin_width}"

    def fold(self, view: SocketView) -> None:
        if view.is_aa_socket:
            self._aa_sites.add(view.record.site_domain)
        else:
            self._non_aa_sites.add(view.record.site_domain)

    def merge(self, other: "Figure3Stage") -> None:
        self._aa_sites.update(other._aa_sites)
        self._non_aa_sites.update(other._non_aa_sites)

    def finalize(self, ctx: StageContext) -> Figure3Series:
        # Union of crawled publishers (the seed list is shared by crawls).
        publishers: dict[str, int] = {}
        for crawl_meta in sorted(ctx.meta.crawls, key=lambda c: c.index):
            for domain, rank in crawl_meta.sites:
                publishers[domain] = rank
        bin_width = self.bin_width
        n_bins = MAX_RANK // bin_width
        totals = [0] * n_bins
        aa_counts = [0] * n_bins
        non_aa_counts = [0] * n_bins
        for domain, rank in publishers.items():
            index = min((rank - 1) // bin_width, n_bins - 1)
            totals[index] += 1
            if domain in self._aa_sites:
                aa_counts[index] += 1
            if domain in self._non_aa_sites:
                non_aa_counts[index] += 1
        bins = tuple(i * bin_width for i in range(n_bins))
        aa_fraction = tuple(
            100.0 * aa_counts[i] / totals[i] if totals[i] else 0.0
            for i in range(n_bins)
        )
        non_aa_fraction = tuple(
            100.0 * non_aa_counts[i] / totals[i] if totals[i] else 0.0
            for i in range(n_bins)
        )
        total_publishers = sum(totals) or 1
        overall_aa = (
            100.0 * len(self._aa_sites & set(publishers)) / total_publishers
        )
        overall_non = (
            100.0 * len(self._non_aa_sites & set(publishers))
            / total_publishers
        )
        overall_ratio = (
            overall_aa / overall_non if overall_non else float("inf")
        )
        top_ratio = (
            aa_fraction[0] / non_aa_fraction[0]
            if non_aa_fraction and non_aa_fraction[0]
            else float("inf")
        )
        return Figure3Series(
            bins=bins,
            aa_fraction=aa_fraction,
            non_aa_fraction=non_aa_fraction,
            publishers_per_bin=tuple(totals),
            overall_ratio=overall_ratio,
            top10k_ratio=top_ratio,
        )

    def encode_artifact(self, artifact: Figure3Series) -> dict:
        from repro.analysis._codecs import encode_figure3

        return encode_figure3(artifact)


def compute_figure3(
    views: Iterable[SocketView],
    meta: DatasetMeta,
    bin_width: int = BIN_WIDTH,
) -> Figure3Series:
    """Bin publishers by rank and compute per-bin socket prevalence.

    ``meta`` is the dataset's :class:`DatasetMeta` (use
    :meth:`DatasetMeta.from_mappings` when starting from a raw
    ``crawl_sites`` mapping).
    """
    stage = fold_views(Figure3Stage(bin_width), views)
    return stage.finalize(StageContext(meta=meta))


def coarse_series(
    series: Figure3Series, groups: int = 10
) -> list[tuple[str, float, float, int]]:
    """Aggregate the 100 bins into ``groups`` coarse rows for text output."""
    per = len(series.bins) // groups
    rows: list[tuple[str, float, float, int]] = []
    for g in range(groups):
        lo, hi = g * per, (g + 1) * per
        pubs = sum(series.publishers_per_bin[lo:hi])
        if pubs:
            aa = sum(
                series.aa_fraction[i] * series.publishers_per_bin[i] / 100.0
                for i in range(lo, hi)
            )
            non = sum(
                series.non_aa_fraction[i] * series.publishers_per_bin[i] / 100.0
                for i in range(lo, hi)
            )
            rows.append((
                f"{series.bins[lo] // 1000}K-{(series.bins[hi - 1] + 10_000) // 1000}K",
                100.0 * aa / pubs,
                100.0 * non / pubs,
                pubs,
            ))
        else:
            rows.append((f"{series.bins[lo] // 1000}K-", 0.0, 0.0, 0))
    return rows
