"""The §4.2 post-hoc blocking analysis.

"We used the EasyList and EasyPrivacy rule lists to determine if
scripts in the inclusion chains leading to A&A sockets would have been
blocked. We find that only ∼5% of these A&A chains would have been
blocked. In contrast, ∼27% of A&A chains in our overall dataset are
blocked by these rule lists."

A chain is *blocked* when any script along it matches the lists (with
exception rules honored); it is an *A&A chain* when any of its hosts
resolves to an A&A domain. The socket-chain statistic shows why the
WRB mattered: the initiating scripts of A&A sockets are overwhelmingly
not list-matched, so blocking the socket itself was the only defence.
"""

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
from repro.crawler.dataset import StudyDataset
from repro.filters import CompiledFilterEngine
from repro.labeling.aa_labeler import AaLabeler
from repro.labeling.resolver import DomainResolver
from repro.net.http import ResourceType

# Party context for post-hoc rule evaluation: the chains under study
# are third-party inclusions, so any non-colliding first-party works.
_GENERIC_FIRST_PARTY = "https://publisher-context.example/"


@dataclass(frozen=True)
class BlockingStats:
    """The two chain-blocking percentages plus raw counts.

    Attributes:
        socket_chains: A&A socket chains examined.
        socket_chains_blocked: … of which had a blocked script.
        pct_socket_chains_blocked: The paper's ~5% number.
        aa_chains: All A&A inclusion chains (weighted by occurrence).
        aa_chains_blocked: … of which had a blocked script.
        pct_aa_chains_blocked: The paper's ~27% number.
    """

    socket_chains: int
    socket_chains_blocked: int
    pct_socket_chains_blocked: float
    aa_chains: int
    aa_chains_blocked: int
    pct_aa_chains_blocked: float


def _chain_has_blocked_script(
    script_urls: tuple[str, ...],
    engine: CompiledFilterEngine,
    cache: dict[str, bool],
) -> bool:
    for url in script_urls:
        verdict = cache.get(url)
        if verdict is None:
            verdict = engine.would_block(
                url, ResourceType.SCRIPT, _GENERIC_FIRST_PARTY
            )
            cache[url] = verdict
        if verdict:
            return True
    return False


@register_stage
class BlockingStage(AnalysisStage):
    """Chain-blocking populations, folded in one sweep.

    The fold only deduplicates the script-URL chains of A&A sockets
    (with occurrence counts); all filter-engine evaluation happens at
    ``finalize``, where the engine and the derived labels are in
    scope. The aggregate A&A-chain population comes from the dataset's
    chain-signature table at ``finalize`` too.
    """

    name = "blocking"
    version = "1"

    def __init__(self) -> None:
        self._socket_chains = 0
        self._chain_urls: dict[tuple[str, ...], int] = {}

    def fold(self, view: SocketView) -> None:
        if not view.is_aa_socket:
            return
        self._socket_chains += 1
        urls = view.record.chain_script_urls
        self._chain_urls[urls] = self._chain_urls.get(urls, 0) + 1

    def merge(self, other: "BlockingStage") -> None:
        self._socket_chains += other._socket_chains
        for urls, count in other._chain_urls.items():
            self._chain_urls[urls] = self._chain_urls.get(urls, 0) + count

    def finalize(self, ctx: StageContext) -> BlockingStats:
        dataset = ctx.dataset
        engine = ctx.engine or (dataset.engine if dataset else None)
        labeler, resolver = ctx.labeler, ctx.resolver
        cache: dict[str, bool] = {}

        socket_blocked = 0
        if engine is not None:
            for urls in sorted(self._chain_urls):
                if _chain_has_blocked_script(urls, engine, cache):
                    socket_blocked += self._chain_urls[urls]

        aa_chains = 0
        aa_blocked = 0
        if (
            dataset is not None and engine is not None
            and labeler is not None and resolver is not None
        ):
            for signature, count in dataset.chain_signatures.items():
                is_aa = any(
                    resolver.effective_domain(host) in labeler.aa_domains
                    for host in signature.hosts
                )
                if not is_aa:
                    continue
                aa_chains += count
                if _chain_has_blocked_script(
                    signature.script_urls, engine, cache
                ):
                    aa_blocked += count

        return BlockingStats(
            socket_chains=self._socket_chains,
            socket_chains_blocked=socket_blocked,
            pct_socket_chains_blocked=(
                100.0 * socket_blocked / self._socket_chains
                if self._socket_chains else 0.0
            ),
            aa_chains=aa_chains,
            aa_chains_blocked=aa_blocked,
            pct_aa_chains_blocked=(
                100.0 * aa_blocked / aa_chains if aa_chains else 0.0
            ),
        )

    def encode_artifact(self, artifact: BlockingStats) -> dict:
        return dataclasses.asdict(artifact)


def compute_blocking_stats(
    dataset: StudyDataset,
    views: Iterable[SocketView],
    labeler: AaLabeler | None = None,
    resolver: DomainResolver | None = None,
) -> BlockingStats:
    """Evaluate both chain populations against the filter lists."""
    labeler = labeler or dataset.derive_labeler()
    resolver = resolver or dataset.derive_resolver(labeler)
    stage = fold_views(BlockingStage(), views)
    return stage.finalize(StageContext(
        labeler=labeler, resolver=resolver,
        engine=dataset.engine, dataset=dataset,
    ))
