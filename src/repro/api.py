"""The sanctioned public API of the reproduction.

``repro.api`` is the single supported entry point for embedding the
system: building/loading filter engines, running analyses, and the
typed `repro serve` surface. Everything here is re-exported from the
package facades (``repro.filters``, ``repro.analysis``, ``repro.serve``,
…), never from their submodules — and the API-FACADE lint enforces the
same discipline on every other cross-package import inside ``src``,
so this module is exactly the surface an external caller can rely on
across PRs.

Grouped exports:

* **Engines** — parse/load/build filter engines at any scale, match
  requests, and reason about verdicts (``CompiledFilterEngine``,
  ``MatchResult``, ``EngineStats``, ``linear_match``,
  ``load_filter_engine``, ``build_filter_engine``,
  ``generate_filter_lists``).
* **Analysis** — the streaming stage engine, whose one ``run`` also
  re-analyzes a grown dataset slice by slice, and the per-artifact
  entry points (``AnalysisEngine``, ``DatasetSource``, ``SegmentSlice``,
  ``StageCache`` for per-slice fold states, ``compute_table1`` …).
* **Labeling** — the paper's ``a(d) ≥ 0.1·n(d)`` derivation
  (``AaLabeler``, ``DomainTagCounter``).
* **Serve** — the versioned query service (``SERVE_VERSION`` wire
  types, ``ServeSnapshot`` and its scale builder, ``ServeService``, the
  script and HTTP frontends).
"""

from __future__ import annotations

from repro.analysis import (
    AnalysisEngine,
    AnalysisResult,
    DatasetSource,
    SegmentSlice,
    StageCache,
    classify_sockets,
    compute_blocking_stats,
    compute_figure3,
    compute_overall_stats,
    compute_table1,
    compute_table2,
    compute_table3,
    compute_table4,
    compute_table5,
    default_stages,
)
from repro.extension import WEBREQUEST_BUG_FIX_VERSION
from repro.filters import (
    CompiledFilterEngine,
    EngineStats,
    FilterList,
    FilterRule,
    MatchResult,
    linear_match,
    load_filter_engine,
    parse_filter_list,
)
from repro.labeling import AaLabeler, DomainTagCounter
from repro.serve import (
    ENDPOINTS,
    SERVE_SCHEMAS,
    SERVE_VERSION,
    ArtifactRequest,
    ArtifactResponse,
    BatchCheckRequest,
    BatchCheckResponse,
    BatchClassifyRequest,
    BatchClassifyResponse,
    CheckRequest,
    CheckResponse,
    ClassifyRequest,
    ClassifyResponse,
    ServeError,
    ServeHTTPServer,
    ServeProtocolError,
    ServeRequest,
    ServeResult,
    ServeService,
    ServeSnapshot,
    SnapshotInfo,
    SnapshotRequest,
    SwapError,
    build_scale_snapshot,
    decode_request,
    encode_request,
    generate_query_mix,
    make_server,
    run_workers,
    snapshot_fingerprint,
    transcript_lines,
    write_transcript,
)
from repro.web.filterlists import (
    LIST_SCALES,
    build_filter_engine,
    build_filter_lists,
    generate_filter_lists,
    generate_request_corpus,
)

__all__ = [
    # Engines.
    "CompiledFilterEngine",
    "FilterList",
    "FilterRule",
    "MatchResult",
    "EngineStats",
    "linear_match",
    "parse_filter_list",
    "load_filter_engine",
    "build_filter_engine",
    "build_filter_lists",
    "generate_filter_lists",
    "generate_request_corpus",
    "LIST_SCALES",
    # Analysis.
    "AnalysisEngine",
    "AnalysisResult",
    "DatasetSource",
    "SegmentSlice",
    "StageCache",
    "classify_sockets",
    "default_stages",
    "compute_table1",
    "compute_table2",
    "compute_table3",
    "compute_table4",
    "compute_table5",
    "compute_figure3",
    "compute_blocking_stats",
    "compute_overall_stats",
    # Labeling + policy.
    "AaLabeler",
    "DomainTagCounter",
    "WEBREQUEST_BUG_FIX_VERSION",
    # Serve.
    "SERVE_VERSION",
    "SERVE_SCHEMAS",
    "ENDPOINTS",
    "CheckRequest",
    "CheckResponse",
    "ClassifyRequest",
    "ClassifyResponse",
    "ArtifactRequest",
    "ArtifactResponse",
    "SnapshotRequest",
    "SnapshotInfo",
    "BatchCheckRequest",
    "BatchCheckResponse",
    "BatchClassifyRequest",
    "BatchClassifyResponse",
    "ServeError",
    "ServeProtocolError",
    "ServeRequest",
    "ServeResult",
    "ServeSnapshot",
    "ServeService",
    "SwapError",
    "build_scale_snapshot",
    "snapshot_fingerprint",
    "decode_request",
    "encode_request",
    "run_workers",
    "generate_query_mix",
    "transcript_lines",
    "write_transcript",
    "ServeHTTPServer",
    "make_server",
]
