"""The single-pass streaming analysis engine.

One O(views) sweep: each socket record is classified once
(:func:`~repro.analysis.classify.classify_one`) and the resulting view
is folded into every stage accumulator, replacing the per-table
full-list rescans of the materialized path. Memory stays bounded by
the accumulators (domain sets and integer counters), not the record
count — a dataset file is streamed from disk and never materialized.

Shard-parallel folding uses the same stages: :func:`fold_shard` builds
shard-local partials and :func:`merge_stage_lists` folds them together
without a barrier, byte-identical to a sequential fold.

:meth:`AnalysisEngine.run` applies the same merge algebra along the
*time* axis: a dataset grown by ``repro spool import`` is described as
an ordered list of :class:`~repro.crawler.persistence.SegmentSlice`\\ s
(record ranges content-addressed by the hash of their canonical lines),
each slice's per-stage folded state is cached in a
:class:`~repro.analysis.cache.StageCache`, and re-analysis after new
imports folds only the new slices — the old ones restore from cache
without their records ever being re-read. A run without slices treats
the whole record region as one slice, addressed by the dataset
fingerprint, so re-analyzing an unchanged dataset folds nothing. Every
run finalizes the merged states against its own filter engine.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import groupby, islice
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.analysis.cache import StageCache, labeler_fingerprint, state_key
from repro.analysis.classify import SocketView, classify_one
from repro.analysis.stage import (
    AnalysisStage,
    StageContext,
    default_stages,
)
from repro.crawler.dataset import DatasetMeta, SocketRecord, StudyDataset
from repro.crawler.persistence import DatasetReader, SegmentSlice
from repro.labeling.aa_labeler import AaLabeler
from repro.labeling.resolver import DomainResolver

if TYPE_CHECKING:
    from repro.obs import Obs


@dataclass
class DatasetSource:
    """Where observations come from: a live dataset or a saved file.

    Attributes:
        dataset: The aggregate side (tag counts, HTTP counters, chain
            signatures) — never the socket-record list on the file
            path.
        meta: Typed dataset metadata.
    """

    dataset: StudyDataset
    meta: DatasetMeta
    _records: Callable[[int, int | None], Iterable[SocketRecord]]
    _fingerprint: Callable[[], str]
    _cached_fingerprint: str | None = field(default=None, init=False)

    def records(
        self, start: int = 0, stop: int | None = None
    ) -> Iterable[SocketRecord]:
        """A fresh iterable over records ``[start, stop)``.

        File sources decode only the requested line range; in-memory
        sources slice the record list.
        """
        return self._records(start, stop)

    def fingerprint(self) -> str:
        """The dataset's content address (computed once, then cached)."""
        if self._cached_fingerprint is None:
            self._cached_fingerprint = self._fingerprint()
        return self._cached_fingerprint

    @classmethod
    def from_dataset(cls, dataset: StudyDataset) -> "DatasetSource":
        """Analyze a live in-memory dataset."""
        from repro.crawler.persistence import dataset_fingerprint

        return cls(
            dataset=dataset,
            meta=dataset.meta,
            _records=lambda start, stop: islice(
                dataset.socket_records, start, stop
            ),
            _fingerprint=lambda: dataset_fingerprint(dataset),
        )

    @classmethod
    def from_file(
        cls, path, engine=None
    ) -> "DatasetSource":
        """Stream a saved v2 dataset file (``repro study --dataset-out``)."""
        return cls.from_reader(DatasetReader(path, engine=engine))

    @classmethod
    def from_reader(cls, reader: DatasetReader) -> "DatasetSource":
        """Stream the dataset file an open reader has parsed."""
        return cls(
            dataset=reader.dataset,
            meta=reader.meta,
            _records=reader.iter_records,
            _fingerprint=reader.fingerprint,
        )


@dataclass
class AnalysisResult:
    """Everything one engine run produced.

    Attributes:
        meta: The dataset metadata analyzed.
        labeler / resolver: The derived A&A labels and Cloudfront
            mapping.
        artifacts: Stage name → finalized artifact.
        computed: Stage names this run's sweep folded at least one
            slice for.
        cached: Stage names whose every slice state was restored from
            the cache.
        views_folded: Socket views classified by the sweep (0 when
            every state was restored).
        segments_folded: Dataset slices whose records the sweep read
            (a run without ``slices`` has one).
        segments_cached: Dataset slices fully restored from the cache.
    """

    meta: DatasetMeta
    labeler: AaLabeler
    resolver: DomainResolver
    artifacts: dict[str, Any]
    computed: tuple[str, ...]
    cached: tuple[str, ...]
    views_folded: int = 0
    segments_folded: int = 0
    segments_cached: int = 0

    def __getitem__(self, name: str) -> Any:
        return self.artifacts[name]


class AnalysisEngine:
    """Runs stages over a dataset source in one streaming sweep."""

    def __init__(
        self,
        stages: Sequence[AnalysisStage] | None = None,
        cache: StageCache | None = None,
        obs: "Obs | None" = None,
    ) -> None:
        self.stages = (
            list(stages) if stages is not None else default_stages()
        )
        self.cache = cache
        self.obs = obs

    def _span(self, stage: str):
        return (
            self.obs.span("analyze", stage=stage)
            if self.obs is not None else nullcontext()
        )

    def run(
        self,
        source: DatasetSource,
        slices: Sequence[SegmentSlice] = (),
    ) -> AnalysisResult:
        """Classify once, fold every stage, finalize.

        ``slices`` must tile the record region in record order, without
        gaps or overlaps — the spool import journal provides exactly
        that (the CLI gap-fills synthetic base slices for records
        predating the journal); without them the whole region is one
        slice, addressed by the dataset fingerprint. Each slice folds
        into its own partials, which merge in slice order and finalize
        — the same associative algebra :func:`fold_shard`/
        :func:`merge_stage_lists` use for shard parallelism, so the
        artifacts never depend on the tiling. With a cache, every
        cached (slice, stage) state is restored instead of folded and
        the folded ones are stored, so a slice's records are read only
        when one of its states misses. Contiguous slices to fold share
        one ranged read. ``finalize`` always runs, against the source's
        filter engine: no cached value depends on the filter lists.
        """
        with self._span("labeling"):
            labeler = source.dataset.derive_labeler()
            resolver = source.dataset.derive_resolver(labeler)
        ctx = StageContext(
            meta=source.meta,
            labeler=labeler,
            resolver=resolver,
            engine=source.dataset.engine,
            dataset=source.dataset,
        )

        cache = self.cache
        if not slices:
            slices = (SegmentSlice(
                "", 0, None,
                source.fingerprint() if cache is not None else "",
            ),)
        if [entry.start for entry in slices] != [
            0, *(entry.stop for entry in slices[:-1])
        ]:
            raise ValueError("slices must tile the record region in order")

        # Per slice: its spawned partials, and the (stage, partial,
        # state key) triples the sweep must fold — the cache misses.
        labeler_fp = (
            labeler_fingerprint(labeler, resolver)
            if cache is not None else ""
        )
        plan: list[tuple[
            SegmentSlice,
            list[AnalysisStage],
            list[tuple[AnalysisStage, AnalysisStage, str]],
        ]] = []
        for entry in slices:
            partials = [stage.spawn() for stage in self.stages]
            missing = []
            for stage, partial in zip(self.stages, partials):
                key = state_key(entry.lines_sha, labeler_fp, stage)
                payload = (
                    cache.load(stage.name, key)
                    if cache is not None else None
                )
                if payload is not None:
                    partial.restore_state(payload)
                else:
                    missing.append((stage, partial, key))
            plan.append((entry, partials, missing))

        counts = dict.fromkeys(
            ("views", "aa_sockets", "aa_initiated", "aa_received"), 0
        )
        segments_folded = 0
        for read, group in groupby(plan, key=lambda step: bool(step[2])):
            if not read:
                continue
            run = list(group)
            segments_folded += len(run)
            with self._span("classify"):
                records = iter(source.records(
                    run[0][0].start, run[-1][0].stop
                ))
                for entry, _, missing in run:
                    targets = [partial for _, partial, _ in missing]
                    size = (
                        None if entry.stop is None
                        else entry.stop - entry.start
                    )
                    for record in islice(records, size):
                        view = classify_one(record, labeler, resolver)
                        counts["views"] += 1
                        if view.is_aa_socket:
                            counts["aa_sockets"] += 1
                        if view.aa_initiated:
                            counts["aa_initiated"] += 1
                        if view.aa_received:
                            counts["aa_received"] += 1
                        for partial in targets:
                            partial.fold(view)
            if cache is not None:
                for _, _, missing in run:
                    for stage, partial, key in missing:
                        cache.store(stage, key, partial.encode_state())
        if self.obs is not None:
            metrics = self.obs.metrics
            for name in (
                "views", "aa_sockets", "aa_initiated", "aa_received"
            ):
                metrics.counter(f"analysis.{name}").add(counts[name])
            metrics.counter("analysis.aa_domains_labeled").add(len(labeler))

        artifacts: dict[str, Any] = {}
        for stage in merge_stage_lists([partials for _, partials, _ in plan]):
            with self._span(stage.name):
                artifacts[stage.name] = stage.finalize(ctx)

        folded = {
            stage.name for _, _, missing in plan for stage, _, _ in missing
        }
        computed = tuple(s.name for s in self.stages if s.name in folded)
        cached = tuple(s.name for s in self.stages if s.name not in folded)
        if self.obs is not None and cache is not None:
            metrics = self.obs.metrics
            metrics.counter("analysis.cache.hits").add(len(cached))
            metrics.counter("analysis.cache.misses").add(len(computed))
            metrics.counter("analysis.incremental.slices_folded").add(
                segments_folded
            )
            metrics.counter("analysis.incremental.slices_cached").add(
                len(plan) - segments_folded
            )

        return AnalysisResult(
            meta=source.meta,
            labeler=labeler,
            resolver=resolver,
            artifacts=artifacts,
            computed=computed,
            cached=cached,
            views_folded=counts["views"],
            segments_folded=segments_folded,
            segments_cached=len(plan) - segments_folded,
        )


def fold_shard(
    stages: Sequence[AnalysisStage], views: Iterable[SocketView]
) -> list[AnalysisStage]:
    """Fold one shard's views into fresh accumulators.

    The returned partials inherit each stage's configuration via
    ``spawn()`` and can be combined with :func:`merge_stage_lists` —
    in any order and grouping — without changing a byte of any
    finalized artifact.
    """
    partials = [stage.spawn() for stage in stages]
    for view in views:
        for stage in partials:
            stage.fold(view)
    return partials


def merge_stage_lists(
    parts: Sequence[Sequence[AnalysisStage]],
) -> list[AnalysisStage]:
    """Merge shard-local stage lists element-wise into one list."""
    if not parts:
        return []
    merged = list(parts[0])
    for part in parts[1:]:
        if len(part) != len(merged):
            raise ValueError(
                "shard stage lists differ in length: "
                f"{len(part)} vs {len(merged)}"
            )
        for accumulated, incoming in zip(merged, part):
            if type(accumulated) is not type(incoming):
                raise ValueError(
                    "shard stage lists differ in stage order: "
                    f"{type(accumulated).__name__} vs "
                    f"{type(incoming).__name__}"
                )
            accumulated.merge(incoming)
    return merged
