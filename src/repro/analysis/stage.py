"""The unified ``AnalysisStage`` API.

Every published artifact — Tables 1–5, Figure 3, the §4.1 prose
statistics, the §4.2 blocking analysis, initiator drift, and the §4.3
ad-delivery analysis — is computed by a *stage*: a small accumulator
that

* ``fold``\\ s classified socket views one at a time (so a single
  O(views) sweep feeds every stage without materializing or rescanning
  the view list),
* ``merge``\\ s with another accumulator of the same stage (so
  shard-local partial aggregates from :mod:`repro.parallel` workers
  can be combined without a barrier — folds are associative and
  order-insensitive), and
* ``finalize``\\ s against a :class:`StageContext` carrying everything
  that is *not* part of the view stream (dataset metadata, the derived
  A&A labeler, the filter engine, the dataset's aggregate counters).

Stages carry a ``name`` and ``version``; together with a dataset
slice's line hash, the labeling environment and the stage
configuration they form the content address under which
:mod:`repro.analysis.cache` stores per-slice fold states. Bump
``version`` whenever a stage's fold could change for the same input —
that is what invalidates stale cache entries.

The registry maps stage names to classes; modules register their stage
with the :func:`register_stage` decorator and
:func:`default_stages` instantiates them in canonical report order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, ClassVar, Iterable

from repro.crawler.dataset import DatasetMeta

if TYPE_CHECKING:
    from repro.analysis.classify import SocketView
    from repro.crawler.dataset import StudyDataset
    from repro.filters import CompiledFilterEngine
    from repro.labeling.aa_labeler import AaLabeler
    from repro.labeling.resolver import DomainResolver


@dataclass(frozen=True)
class StageContext:
    """Everything a stage may need beyond the view stream.

    Attributes:
        meta: Typed dataset metadata (crawl labels and site lists —
            the Table 1 denominators and Figure 3 bins).
        labeler: The derived A&A domain set.
        resolver: Host → effective-domain resolution (Cloudfront
            tenants mapped).
        engine: The filter engine, for post-hoc ``would_block``
            evaluation (blocking and ad-delivery stages).
        dataset: The dataset's aggregate counters (HTTP item counts,
            chain signatures) — *not* its socket records; those arrive
            through ``fold``.
    """

    meta: DatasetMeta = field(default_factory=DatasetMeta)
    labeler: "AaLabeler | None" = None
    resolver: "DomainResolver | None" = None
    engine: "CompiledFilterEngine | None" = None
    dataset: "StudyDataset | None" = None


class AnalysisStage:
    """Base class for single-pass analysis accumulators.

    Subclasses set the ``name``/``version`` class attributes, register
    themselves with :func:`register_stage`, and implement the
    fold/merge/finalize triple plus ``encode_artifact``. The contract
    the property tests pin:

    * ``fold`` must be order-insensitive up to ``finalize`` — folding
      a permutation of the same views yields an equal artifact;
    * ``merge`` must be associative and agree with folding the
      concatenation;
    * ``finalize`` must not mutate the accumulator's semantics (it may
      be called after further folds in principle, but the engine calls
      it exactly once).
    """

    name: ClassVar[str]
    version: ClassVar[str]

    def fold(self, view: "SocketView") -> None:
        """Absorb one classified socket view."""
        raise NotImplementedError

    def merge(self, other: "AnalysisStage") -> None:
        """Fold another accumulator of the same stage into this one."""
        raise NotImplementedError

    def finalize(self, ctx: StageContext) -> Any:
        """Produce the stage's artifact from the accumulated state."""
        raise NotImplementedError

    def spawn(self) -> "AnalysisStage":
        """A fresh, empty accumulator with this stage's configuration.

        Stages with configuration knobs override this so shard-local
        partials inherit the knobs.
        """
        return type(self)()

    def config_token(self) -> str:
        """Canonical string of the stage's configuration.

        Part of the cache key: two instances with different
        configuration must return different tokens.
        """
        return ""

    def encode_artifact(self, artifact: Any) -> Any:
        """Encode a finalized artifact as JSON-able data (``--json``)."""
        raise NotImplementedError

    def encode_state(self) -> Any:
        """Encode the *accumulator* state as canonical JSON-able data.

        Used by the engine to cache per-slice partial folds. The
        default covers every built-in stage: accumulator state lives
        in underscore-prefixed instance attributes (configuration in
        public ones), encoded with the type-tagged codec in
        :mod:`repro.analysis.state`. Stages holding state the codec
        cannot express override the pair.
        """
        from repro.analysis.state import encode_value

        return {
            key: encode_value(value)
            for key, value in sorted(vars(self).items())
            if key.startswith("_")
        }

    def restore_state(self, payload: Any) -> None:
        """Invert :meth:`encode_state` onto a fresh accumulator."""
        from repro.analysis.state import decode_value

        for key, value in payload.items():
            setattr(self, key, decode_value(value))


def fold_views(
    stage: AnalysisStage, views: Iterable["SocketView"]
) -> AnalysisStage:
    """Fold an iterable of views into a stage; returns the stage."""
    for view in views:
        stage.fold(view)
    return stage


# -- registry ---------------------------------------------------------------

_REGISTRY: dict[str, type[AnalysisStage]] = {}

# Canonical report order (the order the study report prints artifacts).
_CANONICAL_ORDER: tuple[str, ...] = (
    "table1", "table2", "table3", "table4", "table5",
    "figure3", "blocking", "overall", "drift", "ads",
)

# The subset a four-crawl study computes (StudyResult's artifact fields).
STUDY_STAGE_NAMES: tuple[str, ...] = _CANONICAL_ORDER[:8]


def register_stage(cls: type[AnalysisStage]) -> type[AnalysisStage]:
    """Class decorator adding a stage to the global registry."""
    existing = _REGISTRY.get(cls.name)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"stage name {cls.name!r} already registered by {existing!r}"
        )
    _REGISTRY[cls.name] = cls
    return cls


def _ensure_registered() -> None:
    """Import every built-in stage module (idempotent)."""
    from repro.analysis import (  # noqa: F401  (import-for-effect)
        ads,
        blocking,
        drift,
        figure3,
        stats,
        table1,
        table2,
        table3,
        table4,
        table5,
    )


def registered_stages() -> dict[str, type[AnalysisStage]]:
    """Name → stage class for every registered stage."""
    _ensure_registered()
    return dict(_REGISTRY)


def default_stages(names: Iterable[str] | None = None) -> list[AnalysisStage]:
    """Fresh default-configured instances, in canonical report order.

    With ``names``, instantiates exactly those stages in the given
    order; unknown names raise ``KeyError``.
    """
    registry = registered_stages()
    if names is None:
        extras = sorted(set(registry) - set(_CANONICAL_ORDER))
        names = [n for n in _CANONICAL_ORDER if n in registry] + extras
    return [registry[name]() for name in names]


def study_stages() -> list[AnalysisStage]:
    """The stages a four-crawl study computes, in report order."""
    return default_stages(STUDY_STAGE_NAMES)
