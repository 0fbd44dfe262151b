"""The immutable unit of serving: one :class:`ServeSnapshot`.

A snapshot bundles everything a query needs — the compiled filter
engine for each study phase's list, the Chrome WRB policy version, the
derived A&A labeling state with its evidence counts, and the
table/figure artifacts keyed by dataset fingerprint — behind a single
content-address ``fingerprint``. Workers share one snapshot by
reference and never mutate it (matching passes ``stats=None``; the
SERVE-RO flow zone pins the serving modules statically read-only), so
hot-swapping is a single reference assignment in
:class:`repro.serve.service.ServeService` plus a drain of in-flight
leases on the old snapshot.

Builders live here too, inside the SERVE-RO zone: building a snapshot
compiles lists and derives labels in memory and writes nothing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

from repro.extension import WEBREQUEST_BUG_FIX_VERSION
from repro.filters import CompiledFilterEngine, filter_lists_digest
from repro.labeling import AaLabeler, DomainTagCounter
from repro.net.http import ResourceType
from repro.serve.types import SERVE_VERSION
from repro.util.urls import parse_url
from repro.web.filterlists import (
    LIST_SCALES,
    generate_filter_lists,
    generate_request_corpus,
)

if TYPE_CHECKING:
    from repro.filters import FilterList

#: Corpus size used to derive a deterministic tag corpus for synthetic
#: scale snapshots (each request's host is tagged by its own verdict).
_SCALE_TAG_CORPUS = 800


@dataclass(frozen=True)
class ServeSnapshot:
    """Everything one query needs, immutable and shareable.

    Attributes:
        version: Monotonic counter; a swap must strictly increase it.
        fingerprint: Content address over every serving-relevant input
            (list contents per phase, WRB version, labeling state,
            artifact keys, dataset fingerprint, wire version).
        phases: Phase names, default phase first.
        engines: Phase name → compiled engine (never mutated; all
            matching passes explicit stats).
        wrb_fix_version: Chrome major that fixed the WebRequest bug.
        labeler: The derived A&A domain set.
        tag_counter: The ``a(d)/n(d)`` evidence behind the labeler.
        artifacts: Stage name → JSON-encoded finalized artifact.
        dataset_fingerprint: Content address of the dataset the
            labeling state and artifacts came from.
    """

    version: int
    fingerprint: str
    phases: tuple[str, ...]
    engines: Mapping[str, CompiledFilterEngine]
    wrb_fix_version: int
    labeler: AaLabeler
    tag_counter: DomainTagCounter
    artifacts: Mapping[str, Any]
    dataset_fingerprint: str

    @property
    def default_phase(self) -> str:
        """The phase served when a request names none."""
        return self.phases[0]

    def engine_for(self, phase: str) -> CompiledFilterEngine | None:
        """The phase's engine, or ``None`` for an unknown phase."""
        return self.engines.get(phase or self.default_phase)

    def rule_counts(self) -> dict[str, int]:
        """Phase name → compiled rule count, in phase order."""
        return {
            phase: self.engines[phase].rule_count for phase in self.phases
        }


def snapshot_fingerprint(
    *,
    phase_lists: Mapping[str, "list[FilterList]"],
    labeler: AaLabeler,
    artifacts: Mapping[str, Any],
    dataset_fingerprint: str,
    wrb_fix_version: int = WEBREQUEST_BUG_FIX_VERSION,
) -> str:
    """Content address of a snapshot's serving-relevant inputs.

    Two snapshots with the same lists, policy, labeling state, and
    artifacts answer every query identically — and get the same
    fingerprint; any list update bumps it (the swap-visibility signal
    clients key on).
    """
    digest = hashlib.sha256()
    digest.update(f"serve-version={SERVE_VERSION}\n".encode())
    digest.update(f"wrb-fix={wrb_fix_version}\n".encode())
    for phase in phase_lists:
        digest.update(f"phase={phase}\n".encode())
        filter_lists_digest(phase_lists[phase], digest)
    digest.update(f"threshold={labeler.threshold!r}\n".encode())
    for domain in sorted(labeler.aa_domains):
        digest.update(f"aa={domain}\n".encode())
    for stage in sorted(artifacts):
        digest.update(f"artifact={stage}\n".encode())
    digest.update(f"dataset={dataset_fingerprint}\n".encode())
    return digest.hexdigest()[:16]


def _assemble(
    *,
    version: int,
    phase_lists: Mapping[str, "list[FilterList]"],
    engines: Mapping[str, CompiledFilterEngine],
    labeler: AaLabeler,
    tag_counter: DomainTagCounter,
    artifacts: Mapping[str, Any],
    dataset_fingerprint: str,
) -> ServeSnapshot:
    return ServeSnapshot(
        version=version,
        fingerprint=snapshot_fingerprint(
            phase_lists=phase_lists,
            labeler=labeler,
            artifacts=artifacts,
            dataset_fingerprint=dataset_fingerprint,
        ),
        phases=tuple(phase_lists),
        engines=engines,
        wrb_fix_version=WEBREQUEST_BUG_FIX_VERSION,
        labeler=labeler,
        tag_counter=tag_counter,
        artifacts=dict(artifacts),
        dataset_fingerprint=dataset_fingerprint,
    )


def build_scale_snapshot(
    scale: str = "10k",
    *,
    seed: int = 2018,
    version: int = 1,
    phases: Mapping[str, int] | None = None,
) -> ServeSnapshot:
    """A snapshot over calibrated EasyList-scale synthetic lists.

    Args:
        scale: ``repro lists`` scale key (``10k``/``50k``/``100k``).
        seed: List-generation seed; also seeds the derived tag corpus.
        version: Snapshot version to stamp.
        phases: Phase name → list seed, for multi-phase snapshots
            (each phase compiles its own generated list — the
            arms-race shape where lists evolve between study phases).
            ``None`` means one ``"live"`` phase at ``seed``.

    The labeling state is derived deterministically: a request corpus
    sampled from the lists is matched through the default phase's
    engine (the snapshot's own, so each phase compiles once) and each
    URL's host is tagged with its own verdict, giving an ``a(d)/n(d)``
    corpus whose labeler agrees with the lists.
    """
    if scale not in LIST_SCALES:
        raise ValueError(
            f"unknown scale {scale!r} (want one of {sorted(LIST_SCALES)})"
        )
    rule_count = LIST_SCALES[scale]
    phase_seeds = dict(phases) if phases else {"live": seed}
    # Keep the default list *name*: it feeds the generator's RNG key,
    # and scale snapshots must compile exactly the lists that
    # `generate_filter_lists(rule_count, seed=...)` callers (the query
    # mix, `repro lists`) produce. Phases differ by seed only.
    phase_lists = {
        phase: generate_filter_lists(rule_count, seed=phase_seed)
        for phase, phase_seed in phase_seeds.items()
    }
    default_lists = next(iter(phase_lists.values()))
    engines = {
        phase: CompiledFilterEngine(lists)
        for phase, lists in phase_lists.items()
    }
    engine = next(iter(engines.values()))
    tag_counter = DomainTagCounter()
    corpus = generate_request_corpus(
        default_lists, _SCALE_TAG_CORPUS, seed=seed
    )
    for url, resource_type, first_party in corpus:
        host = parse_url(url).host
        if not host:
            continue
        verdict = engine.match(
            url, resource_type, first_party, stats=None
        )
        tag_counter.observe(host, verdict.matched)
    labeler = AaLabeler.from_counts(tag_counter)
    return _assemble(
        version=version,
        phase_lists=phase_lists,
        engines=engines,
        labeler=labeler,
        tag_counter=tag_counter,
        artifacts={},
        dataset_fingerprint=f"lists:{scale}:seed={seed}",
    )


def resource_type_for(name: str) -> ResourceType:
    """Map a wire resource-type string to :class:`ResourceType`.

    Accepts the wire values (``"xmlhttprequest"``) and the enum names
    (``"XHR"``), case-insensitively.
    """
    try:
        return ResourceType(name.lower())
    except ValueError:
        pass
    try:
        return ResourceType[name.upper()]
    except KeyError:
        raise ValueError(f"unknown resource type {name!r}") from None
