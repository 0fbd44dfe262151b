"""Fault-injector benchmarks: the zero-fault path must stay free.

The injector sits on the crawl's hottest paths (every page, socket,
and frame asks it for a decision), so the ``none`` profile is designed
to cost nothing: zero-probability decisions return before drawing, and
no event gate is installed at all. The budget documented in DESIGN.md
§9 is <2% crawl-throughput overhead versus a crawler with no injector;
the assertion below uses a loose ceiling, on crawl times rescaled to
the reference host speed (perfbench's ``SpeedMeter``) so a noisy
neighbour does not move it, and the measured numbers land in
``results/bench/BENCH_FAULTS.json``.
"""

from conftest import speed_meter, write_bench_json

from repro.crawler.crawler import CrawlConfig, Crawler
from repro.faults import FLAKY_PROFILE, NONE_PROFILE, FaultInjector
from repro.faults.plan import FaultProfile

_BUDGET_PCT = 2.0  # documented budget for the zero-fault path
_CEILING = 0.15    # assertion ceiling, loose against host noise


def _run_crawl(web, sites, injector):
    config = CrawlConfig(index=0, label="bench", chrome_major=57,
                         start_date="2017-04-02", pages_per_site=5,
                         seed=2017)
    crawler = Crawler(web, config, faults=injector)
    return crawler.run(sites)


def _injectors():
    return {
        "bare": lambda: None,
        "none": lambda: FaultInjector(NONE_PROFILE, 2017, 0),
        "flaky": lambda: FaultInjector(FLAKY_PROFILE, 2017, 0),
    }


def test_zero_fault_overhead(bench_web):
    """none-profile injector vs no injector on the same crawl."""
    meter_class = speed_meter()
    sites = bench_web.seed_list.sites[:100]
    factories = _injectors()
    for factory in factories.values():  # touch every lazy path first
        _run_crawl(bench_web, sites, factory())
    # Interleave variants (best of 5 each) so host drift hits all
    # equally; the ratios use reference-speed times.
    timings = dict.fromkeys(factories, float("inf"))
    scaled = dict.fromkeys(factories, float("inf"))
    for _ in range(5):
        for label, factory in factories.items():
            with meter_class() as meter:
                _run_crawl(bench_web, sites, factory())
            timings[label] = min(timings[label], meter.raw_s)
            scaled[label] = min(scaled[label], meter.scaled_s)
    overhead = scaled["none"] / scaled["bare"] - 1.0
    flaky_overhead = scaled["flaky"] / scaled["bare"] - 1.0
    print(f"\ncrawl bare: {timings['bare']:.3f}s "
          f"({scaled['bare']:.3f}s at reference speed), "
          f"none profile: {timings['none']:.3f}s "
          f"({scaled['none']:.3f}s, {overhead * 100.0:+.1f}%), "
          f"flaky profile: {timings['flaky']:.3f}s "
          f"({scaled['flaky']:.3f}s, {flaky_overhead * 100.0:+.1f}%)")
    _write_bench_faults(timings, overhead, flaky_overhead)
    assert overhead < _CEILING


def test_event_gate_decision_throughput(benchmark):
    """The per-event gate draw — the injector's hottest call."""
    from repro.cdp.events import ScriptParsed

    profile = FaultProfile(name="gate-bench", drop_event=0.002,
                           reorder_event=0.005)
    injector = FaultInjector(profile, 2017, 0)
    event = ScriptParsed(timestamp=0.0, script_id="s", url="u")
    benchmark(lambda: injector.event_action(event))


def test_keyed_decision_throughput(benchmark):
    """A keyed page-failure draw (SHA-256 child stream per call)."""
    injector = FaultInjector(FLAKY_PROFILE, 2017, 0)
    benchmark(lambda: injector.page_fails("https://site.com/", 0, 1))


def _write_bench_faults(timings, overhead, flaky_overhead) -> None:
    write_bench_json("faults", {
        "budget_pct": _BUDGET_PCT,
        "bare_seconds": round(timings["bare"], 4),
        "none_profile_seconds": round(timings["none"], 4),
        "flaky_profile_seconds": round(timings["flaky"], 4),
        "zero_fault_overhead_pct": round(overhead * 100.0, 2),
        "flaky_overhead_pct": round(flaky_overhead * 100.0, 2),
    })
