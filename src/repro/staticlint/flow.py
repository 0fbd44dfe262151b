"""Whole-program effect & architecture analysis (the FLOW-* rules).

Built on the single-parse core (:mod:`repro.staticlint.modgraph`) and
the effect fixpoint (:mod:`repro.staticlint.effects`), this module
enforces three *zone contracts* that per-file syntactic linting cannot:

* ``FLOW-DET`` — **determinism zones**: nothing under ``crawler/``,
  ``analysis/``, ``faults/``, or ``parallel/`` may transitively reach
  ``wallclock`` or ``rng``, except through the sanctioned wrappers
  ``repro.util.rng`` and ``repro.util.obsclock``. The per-file DET
  rules catch a direct ``time.time()``; this rule catches the helper
  two modules away that *wraps* it.
* ``FLOW-ASYNC`` — **async-readiness**: no ``blocking-io`` reachable
  from the crawl hot path (``browser/``, ``cdp/``, and the crawler
  core) — under an event loop one synchronous ``open()`` would stall
  every concurrent site crawl, so archive and session I/O lives with
  its callers (``repro visit --har`` writes its HAR in the CLI).
* ``FLOW-LAYER`` / ``FLOW-CYCLE`` — **architecture layering**: a
  declared layer DAG over the top-level packages (util at the bottom,
  experiments/cli at the top); imports that reach *upward* and
  package-level import cycles are flagged.
* ``OBS-PERF`` — **perf-observatory read-only zone**: nothing in
  ``repro.obs.perf`` / ``repro.obs.critical_path`` may transitively
  reach ``fs-write`` — trace analytics must never mutate what they
  analyze. The one sanctioned persistence path,
  ``repro.obs.history`` (the benchmark history append), masks the
  effect at its boundary exactly like the RNG/clock wrappers do for
  the determinism zones.
* ``SPOOL-RO`` — **spool-recovery read-only zone**: crash recovery
  (``repro.spool.recovery``) scans damaged segments and must not
  write through any path except the one sanctioned repair primitive,
  ``truncate_segment`` in ``repro.spool.segment`` — a recovery pass
  that could write anywhere else might destroy the very evidence
  (a torn tail, a corrupt frame) it exists to adjudicate.
* ``SERVE-RO`` — **query-serving read-only zone**: building a
  snapshot and answering a `repro serve` query
  (``repro.serve.service`` / ``types`` / ``workers`` / ``snapshot``
  / ``httpd``) must be statically read-only — N workers share one
  immutable snapshot, so any write reachable from dispatch is a
  race or a side channel. Only the transcript writer lives outside
  the zone; there is no sanctioned write sink inside it.

Every interprocedural finding carries the full call chain from the
zone entry point to the effect's origin, both rendered in the message
and structured in ``Diagnostic.trace``. Every ERROR finding fails
``repro lint --self``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

from repro.staticlint.apilint import check_import_records
from repro.staticlint.cache import FactsCache
from repro.staticlint.diagnostics import Diagnostic, LintReport, Severity
from repro.staticlint.effects import (
    BLOCKING_IO,
    FS_WRITE,
    RNG,
    WALLCLOCK,
    propagate,
)
from repro.staticlint.modgraph import (
    EffectSeed,
    FileFacts,
    ProjectGraph,
    build_graph,
    extract_file_facts,
    source_sha256,
)

#: The declared architecture DAG: package -> layer. A package may
#: import any package at a *strictly lower* layer (plus itself);
#: importing upward is a FLOW-LAYER violation. Top-level modules
#: (``repro.cli``, ``repro.__main__``, the root ``__init__``) sit at
#: the top as the composition root. This replaces the ad-hoc
#: boundaries apilint used to be the only guardian of.
DEFAULT_LAYERS: Mapping[str, int] = {
    "util": 0,
    "net": 1, "cdp": 1,
    "filters": 2, "labeling": 2, "obs": 2, "faults": 2, "inclusion": 2,
    "web": 3, "extension": 3, "content": 3,
    "browser": 4, "staticlint": 4,
    "crawler": 5,
    "parallel": 6, "analysis": 6, "spool": 6,
    "experiments": 7, "serve": 7,
    "": 8,
}


@dataclass(frozen=True)
class FlowConfig:
    """The zone-contract configuration (defaults describe ``repro``).

    Attributes:
        root_package: Top package name the tree is rooted at.
        layers: The declared layer DAG, package name -> layer index.
        determinism_zones: Packages that must stay byte-reproducible.
        hot_path_prefixes: Dotted module prefixes whose functions form
            the crawl hot path (async-readiness zone).
        sanctioned_modules: Modules allowed to absorb ``wallclock`` and
            ``rng`` — effects do not propagate out of calls into them.
        perf_readonly_prefixes: Dotted module prefixes forming the
            perf observatory's read-only zone (no ``fs-write``).
        perf_sink_modules: The sanctioned persistence boundary for
            that zone — ``fs-write`` does not propagate out of calls
            into these modules (the history append path).
        spool_readonly_prefixes: Dotted module prefixes forming the
            spool-recovery read-only zone (no ``fs-write``).
        spool_sink_modules: The sanctioned repair boundary for that
            zone — segment primitives (``truncate_segment``) are the
            only place recovery-driven writes may happen.
        serve_readonly_prefixes: Dotted module prefixes forming the
            serving read-only zone (no ``fs-write``): building a
            snapshot and answering a query over it must be statically
            read-only — transcript writing lives outside the zone.
        serve_sink_modules: Sanctioned write boundary for that zone
            — empty by default: serving has no sanctioned writes.
    """

    root_package: str = "repro"
    layers: Mapping[str, int] = field(
        default_factory=lambda: dict(DEFAULT_LAYERS)
    )
    determinism_zones: frozenset[str] = frozenset(
        {"crawler", "analysis", "faults", "parallel", "spool"}
    )
    hot_path_prefixes: tuple[str, ...] = (
        "repro.browser", "repro.cdp", "repro.crawler.crawler",
    )
    sanctioned_modules: frozenset[str] = frozenset(
        {"repro.util.rng", "repro.util.obsclock"}
    )
    perf_readonly_prefixes: tuple[str, ...] = (
        "repro.obs.perf", "repro.obs.critical_path",
    )
    perf_sink_modules: frozenset[str] = frozenset(
        {"repro.obs.history"}
    )
    spool_readonly_prefixes: tuple[str, ...] = (
        "repro.spool.recovery",
    )
    spool_sink_modules: frozenset[str] = frozenset(
        {"repro.spool.segment"}
    )
    serve_readonly_prefixes: tuple[str, ...] = (
        "repro.serve.service", "repro.serve.types", "repro.serve.workers",
        "repro.serve.snapshot", "repro.serve.httpd",
    )
    serve_sink_modules: frozenset[str] = frozenset()

    def package_of(self, module: str, packages: frozenset[str]) -> str:
        """The layer-DAG package a module belongs to: its first path
        component under the root, or ``""`` for root-level modules."""
        parts = module.split(".")
        if len(parts) < 2:
            return ""
        candidate = f"{self.root_package}.{parts[1]}"
        if len(parts) > 2 or candidate in packages:
            return parts[1]
        return ""

    def in_hot_path(self, module: str) -> bool:
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self.hot_path_prefixes
        )

    def in_perf_zone(self, module: str) -> bool:
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self.perf_readonly_prefixes
        )

    def in_spool_zone(self, module: str) -> bool:
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self.spool_readonly_prefixes
        )

    def in_serve_zone(self, module: str) -> bool:
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self.serve_readonly_prefixes
        )

    def mask(self, node_module: str, effects: frozenset[str]) -> frozenset[str]:
        """The edge mask for the fixpoint: calls *into* a sanctioned
        module do not propagate clock or entropy effects out of it."""
        if node_module in self.sanctioned_modules:
            return effects - {WALLCLOCK, RNG}
        return effects


@dataclass
class FlowAnalysis:
    """Everything the whole-program pass produced.

    Attributes:
        config: The zone-contract configuration analyzed under.
        graph: The linked module/call graph.
        effects: Node id -> fixpoint effect set (sanction-masked).
        det_report: Per-file determinism findings (DET-*), from the
            same single parse.
        api_report: Package-boundary findings (API-*), same parse.
        flow_report: Zone-contract findings (FLOW-*), canonical order.
        parsed_files: Files that had to be parsed this run.
        cached_files: Files served from the facts cache (no parse).
    """

    config: FlowConfig
    graph: ProjectGraph
    effects: dict[str, frozenset[str]]
    det_report: LintReport
    api_report: LintReport
    flow_report: LintReport
    parsed_files: int = 0
    cached_files: int = 0


def scan_tree(
    package_root: Path,
    root: Path | None = None,
    cache: FactsCache | None = None,
) -> tuple[list[FileFacts], int, int]:
    """Extract (or load cached) facts for every file under a package
    root. Returns (facts, parsed count, cache-hit count)."""
    parsed = 0
    cached = 0
    facts_list: list[FileFacts] = []
    for path in sorted(package_root.rglob("*.py")):
        display = str(path.relative_to(root)) if root else str(path)
        source = path.read_text(encoding="utf-8")
        sha = source_sha256(source)
        facts = cache.load(display, sha) if cache is not None else None
        if facts is None:
            facts = extract_file_facts(display, source)
            parsed += 1
            if cache is not None:
                cache.store(facts)
        else:
            cached += 1
        facts_list.append(facts)
    return facts_list, parsed, cached


def _seed_for(node_seeds: tuple[EffectSeed, ...], effect: str) -> EffectSeed | None:
    for seed in node_seeds:
        if seed.effect == effect:
            return seed
    return None


def _trace_chain(
    graph: ProjectGraph,
    effects: Mapping[str, frozenset[str]],
    start: str,
    effect: str,
    mask: Callable[[str, frozenset[str]], frozenset[str]],
) -> tuple[list[str], EffectSeed | None]:
    """Shortest call chain from ``start`` to a node that directly
    seeds ``effect`` (BFS over sorted adjacency — deterministic)."""
    parents: dict[str, str | None] = {start: None}
    queue: deque[str] = deque([start])
    while queue:
        current = queue.popleft()
        seed = _seed_for(graph.nodes[current].seeds, effect)
        if seed is not None:
            chain: list[str] = []
            cursor: str | None = current
            while cursor is not None:
                chain.append(cursor)
                cursor = parents[cursor]
            chain.reverse()
            return chain, seed
        for callee in graph.calls.get(current, ()):
            if callee in parents or callee not in graph.nodes:
                continue
            carried = mask(graph.nodes[callee].module, effects[callee])
            if effect in carried:
                parents[callee] = current
                queue.append(callee)
    return [start], None


def _zone_findings(
    graph: ProjectGraph,
    effects: Mapping[str, frozenset[str]],
    in_zone: Callable[[str], bool],
    offending: frozenset[str],
    mask: Callable[[str, frozenset[str]], frozenset[str]],
    rule_id: str,
    zone_label: str,
    fix_hint: str,
) -> LintReport:
    """Flag the functions where an offending effect *enters* a zone:
    nodes that seed it directly, or whose direct callee outside the
    zone carries it. In-zone callers that merely inherit the effect
    from an already-flagged in-zone function are not re-flagged, so
    one leak yields one finding, at the crossing point."""
    report = LintReport()
    for node_id in sorted(graph.nodes):
        node = graph.nodes[node_id]
        if not in_zone(node.module):
            continue
        bad = effects[node_id] & offending
        for effect in sorted(bad):
            enters_here = _seed_for(node.seeds, effect) is not None
            if not enters_here:
                for callee in graph.calls.get(node_id, ()):
                    if callee not in graph.nodes:
                        continue
                    callee_module = graph.nodes[callee].module
                    carried = mask(callee_module, effects[callee])
                    if effect in carried and not in_zone(callee_module):
                        enters_here = True
                        break
            if not enters_here:
                continue
            chain, seed = _trace_chain(graph, effects, node_id, effect, mask)
            displays = tuple(graph.nodes[n].display for n in chain)
            origin = ""
            if seed is not None:
                origin_node = graph.nodes[chain[-1]]
                origin = (f" [{seed.call} at "
                          f"{origin_node.path}:{seed.lineno}]")
            depth = len(chain) - 1
            report.add(Diagnostic(
                rule_id=rule_id,
                severity=Severity.ERROR,
                source=f"{node.path}:{node.lineno}",
                message=(
                    f"{zone_label} reaches {effect} "
                    f"({depth} call(s) deep): "
                    + " -> ".join(displays) + origin
                ),
                fix_hint=fix_hint,
                trace=displays,
            ))
    return report


def _tarjan_sccs(adjacency: Mapping[str, tuple[str, ...]]) -> list[list[str]]:
    """Strongly connected components, iterative, deterministic order."""
    index_of: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = [0]

    def strongconnect(root: str) -> None:
        work = [(root, 0)]
        while work:
            node, child_index = work.pop()
            if child_index == 0:
                index_of[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            recurse = False
            children = adjacency.get(node, ())
            for offset in range(child_index, len(children)):
                child = children[offset]
                if child not in adjacency:
                    continue
                if child not in index_of:
                    work.append((node, offset + 1))
                    work.append((child, 0))
                    recurse = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index_of[child])
            if recurse:
                continue
            if low[node] == index_of[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(sorted(component))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    for node in sorted(adjacency):
        if node not in index_of:
            strongconnect(node)
    return sccs


def _layer_findings(graph: ProjectGraph, config: FlowConfig) -> LintReport:
    """FLOW-LAYER (upward imports, undeclared packages) and
    FLOW-CYCLE (package-level import cycles)."""
    report = LintReport()
    packages = frozenset(
        module for module in sorted(graph.facts)
        if graph.facts[module].is_package
    )
    unknown_reported: set[str] = set()
    package_edges: dict[str, set[str]] = {}
    edge_sites: dict[tuple[str, str], tuple[str, int]] = {}

    for module in sorted(graph.module_imports):
        source_pkg = config.package_of(module, packages)
        source_layer = config.layers.get(source_pkg)
        path = graph.facts[module].path
        if source_layer is None and source_pkg not in unknown_reported:
            unknown_reported.add(source_pkg)
            report.add(Diagnostic(
                rule_id="FLOW-LAYER",
                severity=Severity.WARNING,
                source=f"{path}:1",
                message=f"package {source_pkg!r} is not in the declared "
                        f"layer DAG",
                fix_hint="add it to repro.staticlint.flow.DEFAULT_LAYERS",
            ))
        for target, lineno in graph.module_imports[module]:
            target_pkg = config.package_of(target, packages)
            if target_pkg == source_pkg:
                continue
            target_layer = config.layers.get(target_pkg)
            package_edges.setdefault(source_pkg, set()).add(target_pkg)
            site = (source_pkg, target_pkg)
            if site not in edge_sites:
                edge_sites[site] = (path, lineno)
            if source_layer is None or target_layer is None:
                continue
            if target_layer > source_layer:
                report.add(Diagnostic(
                    rule_id="FLOW-LAYER",
                    severity=Severity.ERROR,
                    source=f"{path}:{lineno}",
                    message=(
                        f"upward import: {source_pkg or 'repro (root)'} "
                        f"(layer {source_layer}) imports {target} "
                        f"(layer {target_layer})"
                    ),
                    fix_hint="invert the dependency or move the shared "
                             "code to a lower layer",
                ))

    adjacency = {
        pkg: tuple(sorted(targets))
        for pkg, targets in sorted(package_edges.items())
    }
    for scc in _tarjan_sccs(adjacency):
        if len(scc) < 2:
            continue
        ring = " <-> ".join(scc)
        path, lineno = min(
            edge_sites.get((a, b), ("", 0))
            for a in scc for b in scc
            if (a, b) in edge_sites
        )
        report.add(Diagnostic(
            rule_id="FLOW-CYCLE",
            severity=Severity.ERROR,
            source=f"{path}:{lineno}" if path else "package graph",
            message=f"package import cycle: {ring}",
            fix_hint="break the cycle with an interface module in a "
                     "lower layer",
        ))
    return report


def analyze_facts(
    facts_list: list[FileFacts],
    config: FlowConfig | None = None,
) -> FlowAnalysis:
    """Link facts, run the effect fixpoint, and evaluate every rule.

    This is the cheap half of the pipeline — everything after the
    (cached) per-file extraction.
    """
    config = config or FlowConfig()
    graph = build_graph(facts_list, root_package=config.root_package)
    packages = frozenset(
        module for module in sorted(graph.facts)
        if graph.facts[module].is_package
    )

    seeds = {
        node_id: frozenset(seed.effect for seed in node_seeds)
        for node_id, node_seeds in sorted(graph.seed_index().items())
    }

    def edge_mask(callee: str, effects: frozenset[str]) -> frozenset[str]:
        return config.mask(graph.nodes[callee].module, effects)

    effects = propagate(seeds, graph.calls, mask=edge_mask)

    det_report = LintReport()
    api_report = LintReport()
    for facts in sorted(facts_list, key=lambda f: f.module):
        det_report.extend(facts.det)
        api_report.extend(check_import_records(
            facts.imports, facts.path, facts.module, packages
        ))

    def node_mask(module: str, node_effects: frozenset[str]) -> frozenset[str]:
        return config.mask(module, node_effects)

    def in_det_zone(module: str) -> bool:
        return config.package_of(module, packages) in (
            config.determinism_zones
        )

    flow_report = LintReport()
    flow_report.extend(_zone_findings(
        graph, effects, in_det_zone,
        frozenset({WALLCLOCK, RNG}), node_mask,
        "FLOW-DET", "determinism zone",
        "route clocks through repro.util.obsclock/simtime and entropy "
        "through repro.util.rng.RngStream",
    ))
    flow_report.extend(_zone_findings(
        graph, effects, config.in_hot_path,
        frozenset({BLOCKING_IO}), node_mask,
        "FLOW-ASYNC", "crawl hot path",
        "move the I/O off the hot path (spool/accountant) before the "
        "asyncio refactor",
    ))

    def perf_mask(module: str, node_effects: frozenset[str]) -> frozenset[str]:
        node_effects = config.mask(module, node_effects)
        if module in config.perf_sink_modules:
            return node_effects - {FS_WRITE}
        return node_effects

    flow_report.extend(_zone_findings(
        graph, effects, config.in_perf_zone,
        frozenset({FS_WRITE}), perf_mask,
        "OBS-PERF", "perf analytics (read-only over traces)",
        "analytics must not write; route persistence through "
        "repro.obs.history, the sanctioned history append path",
    ))

    def spool_mask(module: str, node_effects: frozenset[str]) -> frozenset[str]:
        node_effects = config.mask(module, node_effects)
        if module in config.spool_sink_modules:
            return node_effects - {FS_WRITE}
        return node_effects

    flow_report.extend(_zone_findings(
        graph, effects, config.in_spool_zone,
        frozenset({FS_WRITE}), spool_mask,
        "SPOOL-RO", "spool recovery (read-only over segments)",
        "recovery must not write; the one sanctioned repair is "
        "truncate_segment in repro.spool.segment",
    ))

    def serve_mask(module: str, node_effects: frozenset[str]) -> frozenset[str]:
        node_effects = config.mask(module, node_effects)
        if module in config.serve_sink_modules:
            return node_effects - {FS_WRITE}
        return node_effects

    flow_report.extend(_zone_findings(
        graph, effects, config.in_serve_zone,
        frozenset({FS_WRITE}), serve_mask,
        "SERVE-RO", "query serving (read-only over snapshots)",
        "serving must not write; build snapshots in memory and write "
        "transcripts through repro.serve.transcript, outside the zone",
    ))
    flow_report.extend(_layer_findings(graph, config))

    return FlowAnalysis(
        config=config,
        graph=graph,
        effects=effects,
        det_report=det_report.canonical(),
        api_report=api_report.canonical(),
        flow_report=flow_report.canonical(),
    )


def analyze_tree(
    package_root: Path,
    root: Path | None = None,
    config: FlowConfig | None = None,
    cache: FactsCache | None = None,
) -> FlowAnalysis:
    """Scan a source tree (cached, single-parse) and analyze it."""
    facts_list, parsed, cached = scan_tree(package_root, root, cache)
    analysis = analyze_facts(facts_list, config)
    analysis.parsed_files = parsed
    analysis.cached_files = cached
    return analysis


def analyze_self(
    config: FlowConfig | None = None,
    cache: FactsCache | None = None,
) -> FlowAnalysis:
    """Analyze the installed ``repro`` package itself (the CI gate)."""
    package_root = Path(__file__).resolve().parents[1]
    return analyze_tree(
        package_root, root=package_root.parent, config=config, cache=cache
    )
