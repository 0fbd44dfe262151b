"""`repro serve`: the measurement system as a high-QPS query service.

One immutable :class:`~repro.serve.snapshot.ServeSnapshot` (compiled
filter engines per study phase, WRB pre/post-58 policy, A&A labeling
state, table/figure artifacts) is shared by N workers through a
:class:`~repro.serve.service.ServeService` and answered over the
versioned wire types of :mod:`repro.serve.types` (``SERVE_VERSION``).
Snapshots hot-swap atomically: new queries lease the new snapshot
immediately, in-flight queries drain on the old one, zero queries are
dropped, and every response echoes the fingerprint of the snapshot
that answered it.

The sanctioned external entry point is :mod:`repro.api`; the SERVE-RO
flow zone keeps the serving modules (service/types/workers), the
snapshot builders and the HTTP frontend statically read-only.
"""

from repro.serve.httpd import ServeHTTPServer, make_server
from repro.serve.service import ServeService, SwapError
from repro.serve.snapshot import (
    ServeSnapshot,
    build_scale_snapshot,
    resource_type_for,
    snapshot_fingerprint,
)
from repro.serve.transcript import (
    generate_query_mix,
    transcript_lines,
    write_transcript,
)
from repro.serve.types import (
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
    ServeProtocolError,
    ServeRequest,
    ServeResult,
    SnapshotInfo,
    SnapshotRequest,
    decode_request,
    encode_request,
    result_line,
)
from repro.serve.workers import run_workers

__all__ = [
    "SERVE_VERSION",
    "SERVE_SCHEMAS",
    "ENDPOINTS",
    # Wire types.
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
    "decode_request",
    "encode_request",
    "result_line",
    # Snapshot + service.
    "ServeSnapshot",
    "ServeService",
    "SwapError",
    "build_scale_snapshot",
    "snapshot_fingerprint",
    "resource_type_for",
    # Execution frontends.
    "run_workers",
    "generate_query_mix",
    "transcript_lines",
    "write_transcript",
    "ServeHTTPServer",
    "make_server",
]
