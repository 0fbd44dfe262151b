"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_check_blocked(capsys):
    assert main(["check",
                 "https://securepubads.doubleclick.net/ads/tag.js"]) == 0
    out = capsys.readouterr().out
    # The decisive rule is the canonical first applicable match in list
    # order (/ads/tag.js…), not whichever bucket the old index walked
    # first (||doubleclick.net^…).
    assert "BLOCKED by easylist" in out and "/ads/tag.js" in out


def test_check_allowed(capsys):
    assert main(["check", "https://cdn.intercom.io/widget/chat.js"]) == 0
    assert "allowed" in capsys.readouterr().out


def test_check_websocket_type(capsys):
    assert main(["check", "wss://ws.pusher.com/socket",
                 "--type", "websocket"]) == 0
    assert "allowed" in capsys.readouterr().out


def test_check_bad_type(capsys):
    assert main(["check", "https://x.example/", "--type", "bogus"]) == 2


@pytest.mark.parametrize("argv", [
    ["check", "https://a.example/x.js", "--first-party", "publisher.example"],
    ["check", "a.example/x.js"],
])
def test_check_bad_url_is_exit_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("bad URL: ") and err.count("\n") == 1


def test_lists_dump(capsys):
    assert main(["lists", "--list", "easylist"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("[Adblock Plus 2.0]")
    assert "doubleclick.net" in out


def test_visit_reserved_site(capsys):
    assert main(["visit", "acenterforrecovery.com", "--chrome", "57"]) == 0
    out = capsys.readouterr().out
    assert "acenterforrecovery.com" in out
    assert "⇄" in out  # at least one WebSocket in the tree


def test_visit_unknown_domain(capsys):
    assert main(["visit", "no-such-domain.example"]) == 2
    assert "unknown domain" in capsys.readouterr().err


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_lint_self_gate_passes(capsys):
    assert main(["lint", "--self"]) == 0
    out = capsys.readouterr().out
    assert "DETERMINISM" in out
    assert "no findings" in out


def test_lint_self_json_schema(capsys):
    import json

    # The self-lint has no finding to emit...
    assert main(["lint", "--self", "--json"]) == 0
    assert capsys.readouterr().out == ""
    # ...so the schema is read off the registry analyzers' findings.
    assert main(["lint", "--no-self", "--json"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
    assert lines
    for line in lines:
        payload = json.loads(line)
        assert set(payload) == {
            "rule", "severity", "source", "file", "line", "message",
            "fix_hint", "trace",
        }
    rules = {json.loads(line)["rule"] for line in lines}
    assert "FL-WS-BLINDSPOT" in rules


def test_lint_self_output_is_byte_stable(capsys):
    # Every stage, so the compared stream is not empty.
    assert main(["lint", "--json"]) == 0
    first = capsys.readouterr().out
    assert first
    assert main(["lint", "--json"]) == 0
    assert capsys.readouterr().out == first


def test_lint_flow_section_renders(capsys):
    assert main(["lint", "--self"]) == 0
    out = capsys.readouterr().out
    assert "WHOLE-PROGRAM FLOW (src/repro)" in out
    assert "call edges" in out


def test_lint_full_reports_blindspots(capsys):
    assert main(["lint", "--no-self"]) == 0
    out = capsys.readouterr().out
    assert "FL-WS-BLINDSPOT" in out
    assert "WEBREQUEST LISTENERS" in out
    assert "static verdict matches dynamic dispatch" in out


def test_study_smoke_writes_obs_artifacts(tmp_path, capsys):
    trace = tmp_path / "study.trace.jsonl"
    metrics = tmp_path / "study.metrics.json"
    assert main(["--quiet", "study", "--preset", "smoke",
                 "--trace", str(trace),
                 "--metrics-out", str(metrics)]) == 0
    captured = capsys.readouterr()
    assert "OBSERVABILITY — per-stage timing & attribution" in captured.out
    assert "PER-CRAWL ATTRIBUTION" in captured.out
    assert f"trace written to {trace}" in captured.out
    assert f"metrics written to {metrics}" in captured.out
    # --quiet: no progress lines on stderr.
    assert "sites ·" not in captured.err
    assert trace.exists() and metrics.exists()

    # The obs subcommand re-renders the exported trace.
    assert main(["obs", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "PER-STAGE TIMING" in out
    assert "preset=smoke" in out


def test_study_progress_lines_on_stderr(capsys):
    assert main(["-v", "study", "--preset", "smoke"]) == 0
    err = capsys.readouterr().err
    assert "[study] stage: build-web" in err
    assert "[crawl 0 · Chrome 57]" in err
    assert "sockets seen" in err


def test_study_worker_failure_is_exit_4(monkeypatch, capsys):
    import repro.parallel.worker as worker

    def failing_shard(web, task, engine):
        raise RuntimeError("injected shard failure")

    # Patched before the pool forks, so every worker inherits it.
    monkeypatch.setattr(worker, "run_shard", failing_shard)
    assert main(["--quiet", "study", "--preset", "smoke",
                 "--workers", "2"]) == 4
    assert capsys.readouterr().err.splitlines() == [
        "parallel execution failed: shard worker failed (crawl 0, "
        "shard 0): RuntimeError('injected shard failure')"
    ]


def test_obs_missing_trace(tmp_path, capsys):
    assert main(["obs", str(tmp_path / "nope.jsonl")]) == 2
    assert "cannot read trace" in capsys.readouterr().err


def test_obs_rejects_non_trace_file(tmp_path, capsys):
    path = tmp_path / "not-a-trace.jsonl"
    path.write_text('{"kind": "counter", "name": "a", "value": 1}\n')
    assert main(["obs", str(path)]) == 2
    assert "no meta record" in capsys.readouterr().err


def test_quiet_and_verbose_conflict():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["-q", "-v", "study"])


def test_visit_writes_har(tmp_path, capsys):
    har_path = tmp_path / "visit.har"
    assert main(["visit", "acenterforrecovery.com", "--chrome", "57",
                 "--har", str(har_path)]) == 0
    import json

    with open(har_path) as handle:
        har = json.load(handle)
    assert har["log"]["entries"]
    assert any(e.get("_resourceType") == "websocket"
               for e in har["log"]["entries"])


class TestAnalyzeCommand:
    @pytest.fixture()
    def dataset_path(self, tiny_study, tmp_path):
        from repro.crawler.persistence import save_dataset

        path = tmp_path / "dataset.jsonl"
        save_dataset(path, tiny_study.dataset)
        return path

    def test_cold_then_warm_cache_hit(self, dataset_path, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        args = ["analyze", str(dataset_path), "--cache-dir", cache_dir]
        assert main(args) == 0
        first = capsys.readouterr()
        assert "analysis cache: 0 hit(s), 10 recomputed" in first.err
        assert main(args) == 0
        second = capsys.readouterr()
        assert "analysis cache: 10 hit(s), 0 recomputed" in second.err
        # The report itself is byte-identical across cold and warm runs.
        assert first.out == second.out
        assert "TABLE 1" in first.out and "FIGURE 3" in first.out

    def test_report_out_writes_file(self, dataset_path, tmp_path, capsys):
        report = tmp_path / "report.txt"
        assert main(["analyze", str(dataset_path), "--no-cache",
                     "--report-out", str(report)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "report written to" in captured.err
        assert "TABLE 5" in report.read_text(encoding="utf-8")

    def test_quiet_suppresses_cache_summary(self, dataset_path, tmp_path,
                                            capsys):
        assert main(["--quiet", "analyze", str(dataset_path),
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        assert "analysis cache" not in capsys.readouterr().err

    def test_json_emits_artifacts(self, dataset_path, capsys):
        import json

        assert main(["analyze", str(dataset_path), "--no-cache",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["dataset"]) == 64
        assert sorted(payload["computed"]) == sorted(payload["artifacts"])
        assert payload["artifacts"]["overall"]["total_sockets"] > 0

    def test_missing_dataset_is_exit_2(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read dataset" in capsys.readouterr().err

    def test_missing_incremental_spool_is_exit_2(self, dataset_path,
                                                 tmp_path, capsys):
        spool = tmp_path / "no-such-spool"
        assert main(["analyze", str(dataset_path), "--no-cache",
                     "--incremental", str(spool),
                     "--cache-dir", str(tmp_path / "cache")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"no spool directory at {spool}" in captured.err
        assert not spool.exists()
        assert not (tmp_path / "cache").exists()

    def test_legacy_v1_records_file_is_exit_2(self, tiny_study, tmp_path,
                                              capsys):
        from repro.crawler.persistence import save_socket_records

        path = tmp_path / "legacy.jsonl"
        save_socket_records(path, tiny_study.dataset.socket_records[:3])
        assert main(["analyze", str(path)]) == 2
        assert "cannot read dataset" in capsys.readouterr().err


def test_spool_import_missing_dir_is_exit_2(tmp_path, capsys):
    spool = tmp_path / "no-such-dir"
    dataset = tmp_path / "out.jsonl"
    assert main(["spool", "import", str(spool), str(dataset)]) == 2
    assert f"no spool directory at {spool}" in capsys.readouterr().err
    assert not spool.exists() and not dataset.exists()


class TestPerfCommands:
    """`repro perf flame|diff|check` and the obs --json/--top flags."""

    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("perf") / "smoke.trace.jsonl"
        assert main(["--quiet", "study", "--preset", "smoke",
                     "--trace", str(path)]) == 0
        return path

    def test_obs_json_schema(self, trace_path, capsys):
        import json

        assert main(["obs", str(trace_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["meta"]["preset"] == "smoke"
        assert {"ticks", "stages", "crawls", "counters",
                "histograms"} <= set(payload)

    def test_obs_top_limits_stage_rows(self, trace_path, capsys):
        import json

        assert main(["obs", str(trace_path), "--json", "--top", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["stages"]) == 2
        capsys.readouterr()
        assert main(["obs", str(trace_path), "--top", "2"]) == 0
        assert "PER-STAGE TIMING" in capsys.readouterr().out

    def test_flame_text_and_json(self, trace_path, capsys):
        import json

        assert main(["perf", "flame", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "HOT PATHS" in out and "CRITICAL PATH" in out
        assert "% attributed to self times" in out
        assert main(["perf", "flame", str(trace_path), "--json",
                     "--top", "5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["attribution"] >= 0.95
        assert len(payload["paths"]) <= 5
        assert payload["critical_path"][0]["path"] == ["study"]

    def test_flame_missing_trace_is_exit_2(self, tmp_path, capsys):
        assert main(["perf", "flame", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_diff_of_identical_traces_is_empty(self, trace_path, capsys):
        import json

        assert main(["perf", "diff", str(trace_path),
                     str(trace_path)]) == 0
        assert "no differences" in capsys.readouterr().out
        assert main(["perf", "diff", str(trace_path), str(trace_path),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["empty"] is True
        assert payload["paths"] == [] and payload["counters"] == []

    def test_diff_missing_side_is_exit_2(self, trace_path, tmp_path,
                                         capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["perf", "diff", str(trace_path),
                     str(missing)]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_check_missing_history_is_exit_2(self, tmp_path, capsys):
        assert main(["perf", "check", "--history",
                     str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read history" in capsys.readouterr().err

    def test_check_passes_then_gates_on_2x_slowdown(self, tmp_path,
                                                    capsys):
        import json

        from repro.obs.history import (
            append_history,
            fingerprint_key,
            records_for_payload,
        )

        history = tmp_path / "history.jsonl"
        host = fingerprint_key()
        for _ in range(5):
            append_history(history, records_for_payload(
                "parallel", {"workers_4_seconds": 1.0}, hardware=host))
        assert main(["perf", "check", "--history", str(history)]) == 0
        assert "no regressions" in capsys.readouterr().out

        append_history(history, records_for_payload(
            "parallel", {"workers_4_seconds": 2.0}, hardware=host))
        assert main(["perf", "check", "--history", str(history)]) == 5
        assert "REGRESSION" in capsys.readouterr().out
        assert main(["perf", "check", "--history", str(history),
                     "--json"]) == 5
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["regressions"][0]["ratio"] == 2.0
        # A wide-open tolerance un-gates the same history.
        assert main(["perf", "check", "--history", str(history),
                     "--tolerance", "2.0"]) == 0
        capsys.readouterr()

    def test_check_gates_only_the_running_host(self, tmp_path, capsys):
        import json

        from repro.obs.history import (
            append_history,
            fingerprint_key,
            records_for_payload,
        )

        history = tmp_path / "history.jsonl"
        host = fingerprint_key()
        for value in (1.0,) * 5 + (3.0,):
            for hardware in ("retired-hw", host):
                append_history(history, records_for_payload(
                    "parallel", {"workers_4_seconds": value},
                    hardware=hardware))
        assert main(["perf", "check", "--history", str(history)]) == 5
        out = capsys.readouterr().out
        assert f"host {host}: 1 gated" in out
        assert "not gated: other host retired-hw (1 group(s))" in out
        assert f"parallel/workers_4_seconds [{host}]" in out
        assert "[retired-hw" not in out
        assert main(["perf", "check", "--history", str(history),
                     "--json"]) == 5
        payload = json.loads(capsys.readouterr().out)
        assert payload["host"] == host
        assert payload["other_hosts"] == {"retired-hw": 1}
        assert [r["hardware"] for r in payload["regressions"]] == [host]

        # A regression on another host alone leaves the gate green.
        other = tmp_path / "other.jsonl"
        for value in (1.0,) * 5 + (3.0,):
            append_history(other, records_for_payload(
                "parallel", {"workers_4_seconds": value},
                hardware="retired-hw"))
        assert main(["perf", "check", "--history", str(other)]) == 0
        out = capsys.readouterr().out
        assert "not gated: other host retired-hw" in out
        assert "no regressions" in out

    def test_check_counts_corrupt_lines(self, tmp_path, capsys):
        history = tmp_path / "history.jsonl"
        history.write_text('{"bench": "b"}\nnot json\n')
        assert main(["perf", "check", "--history", str(history)]) == 0
        assert "2 corrupt line(s) skipped" in capsys.readouterr().out

    def test_perf_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["perf"])


class TestServeCli:
    def test_snapshot_human_summary(self, capsys):
        assert main(["serve", "snapshot"]) == 0
        out = capsys.readouterr().out
        assert "fingerprint=" in out
        assert "rules[live]   : 10000" in out

    def test_snapshot_json_envelope(self, capsys):
        import json

        assert main(["serve", "snapshot", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["endpoint"] == "snapshot"
        assert payload["body"]["rule_counts"] == {"live": 10_000}

    def test_queries_emits_decodable_envelopes(self, tmp_path, capsys):
        import json

        from repro.serve import decode_request

        out = tmp_path / "queries.jsonl"
        assert main(["serve", "queries", "--count", "25",
                     "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 25
        for line in lines:
            decode_request(json.loads(line))  # raises on a bad envelope

    def test_script_transcript_is_stable_across_worker_counts(
        self, tmp_path, capsys
    ):
        first = tmp_path / "w1.jsonl"
        second = tmp_path / "w4.jsonl"
        assert main(["serve", "script", "--count", "60",
                     "--transcript", str(first)]) == 0
        assert main(["serve", "script", "--count", "60", "--workers", "4",
                     "--transcript", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert "errors=0" in capsys.readouterr().err

    def test_script_replays_a_saved_query_file(self, tmp_path, capsys):
        queries = tmp_path / "queries.jsonl"
        transcript = tmp_path / "transcript.jsonl"
        assert main(["serve", "queries", "--count", "20",
                     "-o", str(queries)]) == 0
        assert main(["serve", "script", "--queries", str(queries),
                     "--transcript", str(transcript)]) == 0
        assert len(transcript.read_text().splitlines()) == 20

    def test_script_error_envelope_exits_7(self, tmp_path, capsys):
        import json

        queries = tmp_path / "queries.jsonl"
        queries.write_text(json.dumps({
            "endpoint": "check", "v": 1,
            "body": {"url": "https://x.example/a.js", "phase": "bogus"},
        }) + "\n")
        assert main(["serve", "script", "--queries", str(queries),
                     "--transcript", str(tmp_path / "t.jsonl")]) == 7

    def test_script_malformed_query_file_is_exit_2(self, tmp_path, capsys):
        queries = tmp_path / "queries.jsonl"
        queries.write_text('{"endpoint": "frobnicate", "v": 1}\n')
        assert main(["serve", "script", "--queries", str(queries)]) == 2
        assert "bad query envelope" in capsys.readouterr().err

    def test_serve_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])
