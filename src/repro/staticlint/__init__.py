"""Static analysis of filter lists, webRequest patterns, and the repro itself.

The paper's §5 argument about which ad blockers were vulnerable to the
webRequest bug was itself a *static* analysis: Franken et al. inspected
extensions' ``webRequest`` URL match patterns (``http://*`` vs
``<all_urls>`` vs ``ws://*``) to predict WebSocket blindspots without
running a crawl. This package makes the same move over our own
artifacts, three analyzers sharing one diagnostic model:

* :mod:`repro.staticlint.filterlint` — dead, shadowed, and
  exception-related defects in parsed filter lists, and the headline
  **WebSocket blindspot** check: domains whose HTTP(S) traffic the
  lists block while their ``ws://``/``wss://`` traffic sails through;
* :mod:`repro.staticlint.webrequestlint` — Franken-style classification
  of a listener's match patterns and Chrome version into vulnerable /
  partially covered / safe, cross-validated against the dynamic
  ``bench_wrb.py`` ablation;
* :mod:`repro.staticlint.determinism` — an AST pass over ``src/repro``
  enforcing the calibration contract (no wall-clock reads, no unseeded
  randomness, no hash-order-dependent iteration) outside
  ``repro.util``;
* :mod:`repro.staticlint.flow` — the whole-program pass: one parse of
  the tree (:mod:`~repro.staticlint.modgraph`, content-address-cached
  by :mod:`~repro.staticlint.cache`) feeds a conservative call graph,
  an interprocedural effect fixpoint
  (:mod:`~repro.staticlint.effects`), and three zone contracts —
  determinism zones (FLOW-DET), async-readiness of the crawl hot path
  (FLOW-ASYNC), and architecture layering (FLOW-LAYER/FLOW-CYCLE).
"""

from repro.staticlint.cache import FactsCache
from repro.staticlint.determinism import lint_paths, lint_self, lint_source_text
from repro.staticlint.diagnostics import Diagnostic, LintReport, Severity
from repro.staticlint.effects import ALL_EFFECTS, propagate, seed_for_call
from repro.staticlint.filterlint import (
    FilterListAnalysis,
    analyze_filter_lists,
    websocket_blindspots,
)
from repro.staticlint.flow import (
    FlowAnalysis,
    FlowConfig,
    analyze_facts,
    analyze_self,
    analyze_tree,
)
from repro.staticlint.modgraph import (
    FileFacts,
    ProjectGraph,
    build_graph,
    extract_file_facts,
)
from repro.staticlint.probes import UrlProbe, UrlUniverse
from repro.staticlint.runner import run_full_lint
from repro.staticlint.webrequestlint import (
    CoverageRecord,
    ListenerVerdict,
    classify_listener,
    cross_validate_receivers,
)

__all__ = [
    "Diagnostic",
    "LintReport",
    "Severity",
    "UrlProbe",
    "UrlUniverse",
    "FilterListAnalysis",
    "analyze_filter_lists",
    "websocket_blindspots",
    "ListenerVerdict",
    "CoverageRecord",
    "classify_listener",
    "cross_validate_receivers",
    "lint_source_text",
    "lint_paths",
    "lint_self",
    "run_full_lint",
    "ALL_EFFECTS",
    "propagate",
    "seed_for_call",
    "FileFacts",
    "ProjectGraph",
    "build_graph",
    "extract_file_facts",
    "FactsCache",
    "FlowAnalysis",
    "FlowConfig",
    "analyze_facts",
    "analyze_self",
    "analyze_tree",
]
