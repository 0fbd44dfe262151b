"""End-to-end obs coverage: a real study's audit trail.

Runs one smoke-preset study (shared fixture) and checks that every
instrumented subsystem actually reported — spans nested correctly,
counters harvested, attribution attrs attached, report rendered.
"""

from repro.analysis.report import render_obs
from repro.obs.perf import build_flame, diff_traces
from repro.obs.recorder import read_trace, write_trace
from repro.obs.report import obs_summary_json, render_obs_summary


class TestStudySpans:
    def test_study_span_is_root(self, smoke_result):
        summary = smoke_result.obs
        assert summary is not None
        studies = summary.spans_named("study")
        assert len(studies) == 1
        study = studies[0]
        assert study.parent_id == 0 and study.depth == 0
        assert study.attrs == {"preset": "smoke", "seed": 2017}
        assert study.duration > 0

    def test_stage_spans_nest_under_study(self, smoke_result):
        summary = smoke_result.obs
        study_id = summary.spans_named("study")[0].span_id
        assert [s.parent_id for s in summary.spans_named("build-web")] == \
            [study_id]
        crawls = summary.spans_named("crawl")
        assert len(crawls) == 4
        assert all(s.parent_id == study_id for s in crawls)
        assert {s.attrs["chrome"] for s in crawls} == {57, 58}
        analyze = summary.spans_named("analyze")
        stages = {s.attrs["stage"] for s in analyze}
        assert {"labeling", "classify", "table1", "overall"} <= stages

    def test_crawl_attribution_attrs(self, smoke_result):
        for span in smoke_result.obs.spans_named("crawl"):
            assert span.attrs["sites"] > 0
            assert span.attrs["pages"] > 0
            assert span.attrs["sockets"] >= 0
            assert span.attrs["events"] > 0

    def test_site_and_page_spans_retained(self, smoke_result):
        summary = smoke_result.obs
        sites = summary.spans_named("site")
        pages = summary.spans_named("page")
        assert sites and pages
        assert summary.dropped_spans == 0  # smoke fits the budget
        site_ids = {s.span_id for s in sites}
        assert all(p.parent_id in site_ids for p in pages)

    def test_aggregates_cover_all_span_names(self, smoke_result):
        summary = smoke_result.obs
        names = {a.name for a in summary.aggregates}
        assert {"study", "build-web", "crawl", "site", "page",
                "analyze", "lint"} <= names
        page_agg = next(a for a in summary.aggregates if a.name == "page")
        assert page_agg.count == len(summary.spans_named("page"))


class TestHarvestedMetrics:
    def test_crawler_counters(self, smoke_result):
        counters = smoke_result.obs.counters
        assert counters["crawler.sites"] > 0
        assert counters["crawler.pages"] > 0
        assert counters["crawler.sockets"] > 0
        assert counters["crawler.sockets"] >= \
            counters["crawler.sockets_cross_origin"]

    def test_cdp_counters(self, smoke_result):
        summary = smoke_result.obs
        publish = summary.counters_with_prefix("cdp.publish")
        assert publish["Network.webSocketCreated"] == \
            summary.counters["crawler.sockets"]
        assert summary.counters["cdp.delivered"] > 0

    def test_filter_and_webrequest_counters(self, smoke_result):
        counters = smoke_result.obs.counters
        assert counters["filters.matches"] > 0
        assert counters["filters.token_candidates"] >= 0
        assert counters["webrequest.dispatched"] > 0
        # Chrome 57 crawls hit the WebSocket-blindspot: requests the
        # blocker never saw.
        assert counters["webrequest.suppressed_wrb"] > 0

    def test_analysis_counters(self, smoke_result):
        counters = smoke_result.obs.counters
        assert counters["analysis.views"] == len(smoke_result.views)
        assert counters["analysis.aa_sockets"] <= counters["analysis.views"]

    def test_histograms(self, smoke_result):
        histograms = smoke_result.obs.histograms
        sockets = histograms["crawler.sockets_per_page"]
        assert sockets["count"] == smoke_result.obs.counters["crawler.pages"]

    def test_candidates_per_match_counts_every_lane(self, smoke_result):
        # Candidates per match is derived from the counters: the three
        # lanes' offered candidates summed, over matches.
        counters = smoke_result.obs.counters
        offered = (counters["filters.token_candidates"]
                   + counters["filters.host_candidates"]
                   + counters["filters.generic_candidates"])
        # Most candidates come from the host lane; a ratio that leaves
        # it out under-reports index work several-fold.
        assert counters["filters.host_candidates"] > 0
        assert round(offered / counters["filters.matches"], 4) == 0.7673


class TestEventLog:
    def test_stage_events(self, smoke_result):
        stages = [e.attrs["stage"] for e in smoke_result.obs.events
                  if e.name == "stage"]
        assert stages == ["build-web", "crawls", "analyze"]

    def test_progress_events_cover_each_crawl(self, smoke_result):
        progress = [e for e in smoke_result.obs.events
                    if e.name == "crawl.progress"]
        assert {e.attrs["crawl"] for e in progress} == {0, 1, 2, 3}
        finals = [e for e in progress
                  if e.attrs["sites_done"] == e.attrs["sites_total"]]
        assert len(finals) >= 4


class TestRenderedReport:
    def test_report_sections(self, smoke_result):
        text = render_obs_summary(smoke_result.obs)
        assert "PER-STAGE TIMING" in text
        assert "PER-CRAWL ATTRIBUTION" in text
        assert "COUNTERS" in text
        assert "HISTOGRAMS" in text
        assert "crawl" in text and "page" in text

    def test_render_obs_delegates(self, smoke_result):
        assert render_obs(smoke_result.obs) == \
            render_obs_summary(smoke_result.obs)

    def test_summary_json_mirrors_text(self, smoke_result):
        payload = obs_summary_json(smoke_result.obs)
        assert payload["meta"]["preset"] == "smoke"
        assert payload["ticks"] == smoke_result.obs.ticks
        stages = {row["stage"] for row in payload["stages"]}
        assert {"crawl", "site", "page"} <= stages
        assert "study" not in stages  # the root is the 100% mark
        assert len(payload["crawls"]) == 4
        assert payload["counters"]["crawler.pages"] > 0

    def test_summary_json_top_keeps_heaviest(self, smoke_result):
        payload = obs_summary_json(smoke_result.obs, top=2)
        assert len(payload["stages"]) == 2
        ticks = [row["ticks"] for row in payload["stages"]]
        assert ticks == sorted(ticks, reverse=True)


class TestPerfObservatory:
    """The ISSUE acceptance criteria, against a real study trace."""

    def test_flame_attributes_at_least_95_pct(self, smoke_result):
        report = build_flame(smoke_result.obs)
        assert report.attribution >= 0.95
        # Smoke fits the retention budget, so attribution is exact.
        assert report.orphans == 0 and report.dropped_spans == 0
        assert report.attribution == 1.0

    def test_flame_finds_the_crawl_hot_path(self, smoke_result):
        report = build_flame(smoke_result.obs)
        assert 0 < report.total_ticks <= smoke_result.obs.ticks
        paths = [row.path for row in report.rows]
        assert ("study", "crawl", "site", "page") in paths
        names = [path[-1] for path, _ in report.critical_path]
        assert names[0] == "study"
        assert "page" in names or "analyze" in names

    def test_trace_round_trip_preserves_the_flame(self, smoke_result,
                                                  tmp_path):
        path = tmp_path / "smoke.trace.jsonl"
        write_trace(path, smoke_result.obs)
        reread = read_trace(path)
        flame_a = build_flame(smoke_result.obs)
        flame_b = build_flame(reread)
        # read_trace stamps the TRACE_VERSION into meta; everything
        # measured must survive the round trip byte-for-byte.
        flame_b.meta.pop("version", None)
        assert flame_a == flame_b

    def test_self_diff_of_a_real_trace_is_empty(self, smoke_result,
                                                tmp_path):
        path = tmp_path / "smoke.trace.jsonl"
        write_trace(path, smoke_result.obs)
        diff = diff_traces(smoke_result.obs, read_trace(path))
        assert diff.is_empty
        assert diff.suppressed == 0

    def test_site_overhead_share_is_measurable(self, smoke_result):
        # The per-site bookkeeping outside page spans (the accountant
        # fold/replay path) must be attributable as a share of crawl —
        # the ROADMAP's "~17% of crawl" claim becomes a query.
        report = build_flame(smoke_result.obs)
        by_path = {row.path: row for row in report.rows}
        crawl = by_path[("study", "crawl")]
        site = by_path[("study", "crawl", "site")]
        share = site.self_ticks / crawl.total_ticks
        assert 0.0 < share < 1.0
