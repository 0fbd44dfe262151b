"""Benchmarks for the static analyzers.

The filter-list analyzer is quadratic-ish in (rules x probes), the
determinism linter walks every AST under ``src/repro``, and the
webRequest cross-check dispatches one live handshake per receiver —
these benches keep all three honest as the lists and codebase grow.

``BENCH_STATICLINT.json`` records the whole-program flow analyzer's
headline numbers: cold whole-repo analysis, the warm cached re-run
(content-addressed facts, re-parses nothing — asserted >= 5x faster
than cold), and the single-parse pipeline against the legacy
parse-per-linter self-lint it replaced.
"""

from time import perf_counter

from conftest import write_bench_json

from repro.staticlint.apilint import lint_api_self
from repro.staticlint.cache import FactsCache
from repro.staticlint.determinism import lint_self
from repro.staticlint.filterlint import analyze_filter_lists
from repro.staticlint.flow import analyze_self
from repro.staticlint.probes import UrlUniverse
from repro.staticlint.webrequestlint import cross_validate_receivers
from repro.web.filterlists import build_filter_lists


def test_filterlint_over_bundled_lists(benchmark, bench_web):
    registry = bench_web.registry
    lists = build_filter_lists(registry)

    analysis = benchmark(
        lambda: analyze_filter_lists(lists, registry=registry)
    )
    print(f"\n{len(analysis.universe)} probes, "
          f"{len(analysis.report)} findings "
          f"({', '.join(analysis.report.categories)})")
    assert len(analysis.report.categories) >= 3


def test_probe_universe_construction(benchmark, bench_web):
    registry = bench_web.registry
    lists = build_filter_lists(registry)

    universe = benchmark(lambda: UrlUniverse.combined(registry, lists))
    assert universe.websocket_probes()


def test_determinism_self_lint(benchmark):
    report = benchmark(lint_self)
    assert not report.errors


def test_flow_whole_program_cold_vs_warm(tmp_path):
    """The tentpole numbers: cold whole-repo flow analysis, the warm
    content-addressed re-run, and the single-parse pipeline vs the
    legacy parse-per-linter self-lint."""
    cache = FactsCache(tmp_path / "facts")

    start = perf_counter()
    cold_analysis = analyze_self(cache=cache)
    cold = perf_counter() - start
    assert cold_analysis.parsed_files > 0
    assert cold_analysis.cached_files == 0

    warm = float("inf")
    for _ in range(3):
        start = perf_counter()
        warm_analysis = analyze_self(cache=cache)
        warm = min(warm, perf_counter() - start)
    assert warm_analysis.parsed_files == 0  # re-parsed nothing

    # The two standalone linters parse the tree once EACH — what
    # ``repro lint --self`` did before the single-parse core. Both
    # sides are timed best-of-3: a single pass each on a 1-CPU host
    # lets one scheduler stall flip the speedup ratio run-to-run
    # (history has recorded 0.77–1.87 from single-pass timings).
    legacy = float("inf")
    for _ in range(3):
        start = perf_counter()
        lint_self()
        lint_api_self()
        legacy = min(legacy, perf_counter() - start)

    # One parse, determinism + API + whole-program flow together.
    single_parse = float("inf")
    for _ in range(3):
        start = perf_counter()
        analyze_self()
        single_parse = min(single_parse, perf_counter() - start)

    graph = cold_analysis.graph
    write_bench_json("staticlint", {
        "files": cold_analysis.parsed_files,
        "functions": len(graph.nodes),
        "call_edges": sum(len(v) for v in graph.calls.values()),
        "cold_seconds": round(cold, 4),
        "warm_seconds": round(warm, 4),
        "warm_speedup": round(cold / warm, 2),
        "legacy_two_parse_seconds": round(legacy, 4),
        "single_parse_seconds": round(single_parse, 4),
        "single_parse_speedup_vs_legacy": round(legacy / single_parse, 2),
    })
    print(f"\ncold {cold:.3f}s, warm {warm:.3f}s "
          f"({cold / warm:.1f}x), legacy two-parse {legacy:.3f}s, "
          f"single-parse {single_parse:.3f}s")
    assert cold >= warm * 5, (
        f"warm cached run must be >= 5x faster than cold "
        f"(cold {cold:.3f}s, warm {warm:.3f}s)"
    )


def test_cross_validation_sweep(benchmark, bench_web):
    registry = bench_web.registry
    analysis = analyze_filter_lists(build_filter_lists(registry),
                                    registry=registry)

    def sweep():
        records = []
        for chrome_major in (57, 58):
            for ws_aware in (True, False):
                records.extend(cross_validate_receivers(
                    analysis, registry, chrome_major,
                    websocket_aware=ws_aware,
                ))
        return records

    records = benchmark(sweep)
    assert records
    assert all(r.agree for r in records)
