"""The §4.3 / Figure 4 ad-delivery analysis.

Checks three things the paper reported:

* no ad *images* flow over sockets directly (the received-Image class
  is near zero) — instead ad *units* (creative URL + caption +
  dimensions) arrive as JSON;
* Lockerdome is the ad-over-WebSocket network;
* the creative hosts are not covered by the filter lists, so even a
  patched browser's blocker would not stop the images from loading —
  "the WRB was effectively allowing Lockerdome to circumvent ad
  blockers".
"""

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
from repro.filters import CompiledFilterEngine
from repro.net.http import ResourceType

_GENERIC_FIRST_PARTY = "https://publisher-context.example/"


@dataclass
class AdDeliveryStats:
    """What ad delivery over WebSockets looked like.

    Attributes:
        sockets_with_ads: Sockets that delivered ≥1 ad unit.
        total_units: Ad units across all sockets.
        receivers: Receiver domain → socket count.
        creative_hosts: Host → unit count.
        unlisted_creative_units: Units whose creative URL no list rule
            blocks (the circumvention).
        sample_captions: A few observed captions (Figure 4's clickbait;
            the lexicographically first distinct ones, so the sample is
            independent of observation order).
    """

    sockets_with_ads: int = 0
    total_units: int = 0
    receivers: Counter = field(default_factory=Counter)
    creative_hosts: Counter = field(default_factory=Counter)
    unlisted_creative_units: int = 0
    sample_captions: list[str] = field(default_factory=list)

    @property
    def pct_unlisted_creatives(self) -> float:
        """Share of creatives a blocker could not have stopped."""
        if not self.total_units:
            return 0.0
        return 100.0 * self.unlisted_creative_units / self.total_units


@register_stage
class AdsStage(AnalysisStage):
    """Ad-unit aggregation, folded in one sweep.

    The fold deduplicates creative URLs with occurrence counts;
    filter-engine evaluation of the creatives happens at ``finalize``,
    keeping the fold engine-free and mergeable.
    """

    name = "ads"
    version = "1"

    def __init__(self, caption_samples: int = 6) -> None:
        self.caption_samples = caption_samples
        self._sockets_with_ads = 0
        self._total_units = 0
        self._receivers: Counter = Counter()
        self._creative_hosts: Counter = Counter()
        self._unit_urls: dict[str, int] = {}
        self._captions: set[str] = set()

    def spawn(self) -> "AdsStage":
        return AdsStage(self.caption_samples)

    def config_token(self) -> str:
        return f"caption_samples={self.caption_samples}"

    def fold(self, view: SocketView) -> None:
        units = view.record.ad_units
        if not units:
            return
        self._sockets_with_ads += 1
        self._receivers[view.receiver_domain] += 1
        for unit in units:
            self._total_units += 1
            host = unit.image_url.split("//", 1)[-1].split("/", 1)[0]
            self._creative_hosts[host] += 1
            self._unit_urls[unit.image_url] = (
                self._unit_urls.get(unit.image_url, 0) + 1
            )
            if unit.caption:
                self._captions.add(unit.caption)

    def merge(self, other: "AdsStage") -> None:
        self._sockets_with_ads += other._sockets_with_ads
        self._total_units += other._total_units
        self._receivers.update(other._receivers)
        self._creative_hosts.update(other._creative_hosts)
        for url, count in other._unit_urls.items():
            self._unit_urls[url] = self._unit_urls.get(url, 0) + count
        self._captions.update(other._captions)

    def finalize(self, ctx: StageContext) -> AdDeliveryStats:
        stats = AdDeliveryStats(
            sockets_with_ads=self._sockets_with_ads,
            total_units=self._total_units,
            receivers=Counter(self._receivers),
            creative_hosts=Counter(self._creative_hosts),
            sample_captions=sorted(self._captions)[:self.caption_samples],
        )
        if ctx.engine is not None:
            for url in sorted(self._unit_urls):
                if not ctx.engine.would_block(
                    url, ResourceType.IMAGE, _GENERIC_FIRST_PARTY
                ):
                    stats.unlisted_creative_units += self._unit_urls[url]
        return stats

    def encode_artifact(self, artifact: AdDeliveryStats) -> dict:
        from repro.analysis._codecs import encode_ads

        return encode_ads(artifact)


def compute_ad_delivery(
    views: Iterable[SocketView],
    engine: CompiledFilterEngine,
    caption_samples: int = 6,
) -> AdDeliveryStats:
    """Aggregate ad units over the classified sockets."""
    stage = fold_views(AdsStage(caption_samples), views)
    return stage.finalize(StageContext(engine=engine))


def _top(counter: Counter, n: int) -> list[tuple[str, int]]:
    """Deterministic top-``n``: by count desc, then key asc."""
    return sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))[:n]


def render_ad_delivery(stats: AdDeliveryStats) -> str:
    """Text summary of the ad-delivery findings."""
    lines = [
        f"Sockets delivering ad units: {stats.sockets_with_ads:,} "
        f"({stats.total_units:,} units)",
    ]
    for domain, count in _top(stats.receivers, 5):
        lines.append(f"  receiver {domain}: {count} sockets")
    for host, count in _top(stats.creative_hosts, 3):
        lines.append(f"  creatives hosted on {host}: {count}")
    lines.append(
        f"Creatives NOT covered by any filter rule: "
        f"{stats.pct_unlisted_creatives:.0f}% — blocker circumvention"
    )
    if stats.sample_captions:
        lines.append("Sample captions (Figure 4's clickbait):")
        for caption in stats.sample_captions:
            lines.append(f"  “{caption}”")
    return "\n".join(lines)
