"""Initiator drift across crawls (§4.1's "Before and After").

Tracks which A&A initiators appear, persist, and disappear between
crawls — the analysis behind the paper's headline that 56 initiators
(including DoubleClick, Facebook, and AddThis) vanished after the
Chrome 58 patch while WebSocket-dependent services carried on.
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


@dataclass(frozen=True)
class InitiatorDrift:
    """A&A initiator population dynamics over the study.

    Attributes:
        per_crawl: Crawl index → set of A&A initiator domains.
        persistent: Initiators present in every crawl.
        disappeared_after_patch: Present pre-patch (crawls 0/1), absent
            in every post-patch crawl.
        appeared_after_patch: First seen post-patch.
        churn: (crawl, crawl+1) → (gained, lost) counts.
    """

    per_crawl: dict[int, frozenset[str]]
    persistent: frozenset[str]
    disappeared_after_patch: frozenset[str]
    appeared_after_patch: frozenset[str]
    churn: dict[tuple[int, int], tuple[int, int]]

    @property
    def survival_rate(self) -> float:
        """Share of pre-patch initiators still active post-patch."""
        pre = set().union(*(self.per_crawl.get(c, frozenset())
                            for c in (0, 1))) if self.per_crawl else set()
        if not pre:
            return 0.0
        post = set().union(*(self.per_crawl.get(c, frozenset())
                             for c in (2, 3)))
        return len(pre & post) / len(pre)


@register_stage
class DriftStage(AnalysisStage):
    """Per-crawl A&A initiator sets, folded in one sweep."""

    name = "drift"
    version = "1"

    def __init__(
        self,
        pre_patch: tuple[int, ...] = (0, 1),
        post_patch: tuple[int, ...] = (2, 3),
    ) -> None:
        self.pre_patch = pre_patch
        self.post_patch = post_patch
        self._per_crawl: dict[int, set[str]] = {}

    def spawn(self) -> "DriftStage":
        return DriftStage(self.pre_patch, self.post_patch)

    def config_token(self) -> str:
        pre = ",".join(str(c) for c in self.pre_patch)
        post = ",".join(str(c) for c in self.post_patch)
        return f"pre=({pre}),post=({post})"

    def fold(self, view: SocketView) -> None:
        if view.aa_initiated:
            self._per_crawl.setdefault(view.crawl, set()).add(
                view.initiator_domain
            )

    def merge(self, other: "DriftStage") -> None:
        for crawl, domains in other._per_crawl.items():
            self._per_crawl.setdefault(crawl, set()).update(domains)

    def finalize(self, ctx: StageContext) -> InitiatorDrift:
        per_crawl = self._per_crawl
        crawls = sorted(per_crawl)
        persistent = (
            frozenset(set.intersection(*(per_crawl[c] for c in crawls)))
            if crawls else frozenset()
        )
        pre = set().union(*(per_crawl.get(c, set()) for c in self.pre_patch))
        post = set().union(*(per_crawl.get(c, set()) for c in self.post_patch))
        churn: dict[tuple[int, int], tuple[int, int]] = {}
        for a, b in zip(crawls, crawls[1:]):
            gained = len(per_crawl[b] - per_crawl[a])
            lost = len(per_crawl[a] - per_crawl[b])
            churn[(a, b)] = (gained, lost)
        return InitiatorDrift(
            per_crawl={
                c: frozenset(domains) for c, domains in per_crawl.items()
            },
            persistent=persistent,
            disappeared_after_patch=frozenset(pre - post),
            appeared_after_patch=frozenset(post - pre),
            churn=churn,
        )

    def encode_artifact(self, artifact: InitiatorDrift) -> dict:
        from repro.analysis._codecs import encode_drift

        return encode_drift(artifact)


def compute_initiator_drift(
    views: Iterable[SocketView],
    pre_patch: tuple[int, ...] = (0, 1),
    post_patch: tuple[int, ...] = (2, 3),
) -> InitiatorDrift:
    """Compute initiator dynamics from classified sockets."""
    stage = fold_views(DriftStage(pre_patch, post_patch), views)
    return stage.finalize(StageContext())


def render_drift(drift: InitiatorDrift, majors: frozenset[str] = frozenset({
    "doubleclick.net", "facebook.net", "google.com", "addthis.com",
    "googlesyndication.com", "adnxs.com", "sharethis.com", "twitter.com",
})) -> str:
    """Text summary of the drift analysis."""
    lines = []
    for crawl in sorted(drift.per_crawl):
        lines.append(f"crawl {crawl}: {len(drift.per_crawl[crawl])} "
                     f"A&A initiators")
    lines.append(f"persistent across all crawls: {len(drift.persistent)}")
    lines.append(f"disappeared after the patch: "
                 f"{len(drift.disappeared_after_patch)} "
                 f"(incl. {len(drift.disappeared_after_patch & majors)} "
                 f"major ad platforms)")
    lines.append(f"appeared only after the patch: "
                 f"{len(drift.appeared_after_patch)}")
    lines.append(f"pre-patch initiator survival rate: "
                 f"{100 * drift.survival_rate:.0f}%")
    for (a, b), (gained, lost) in sorted(drift.churn.items()):
        lines.append(f"crawl {a}→{b}: +{gained} / -{lost}")
    return "\n".join(lines)
