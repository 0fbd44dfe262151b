"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``study``   — run the four-crawl study and print every artifact
  (``--trace``/``--metrics-out`` export the observability artifacts;
  ``--faults`` injects a named fault profile; ``--spool-dir``
  journals per-shard completion into a durable write-ahead spool, so
  rerunning the same study with the same directory resumes it —
  crash-safe, quota-bounded via ``--spool-quota``, and refused with
  exit 2 when another study wrote the spool).
* ``analyze`` — re-analyze a dataset saved by ``study --dataset-out``
  in one streaming pass, restoring per-stage fold states from the
  content-addressed cache (``--no-cache`` bypasses it) and finalizing
  against the current filter lists; ``--incremental <spool-dir>``
  splits the dataset into the slices of the spool's import journal,
  so only slices whose state is not already cached are folded.
* ``spool``   — the write-ahead spool: ``spool status <dir>`` prints
  segments, bytes, and import state; ``spool import <dir> <dataset>``
  drains sealed segments into the dataset (idempotent — re-running
  is a no-op).
* ``obs``     — summarize a trace JSONL written by ``study --trace``
  (``--json`` emits one machine-consumable object, ``--top N`` keeps
  the N heaviest stage rows).
* ``perf``    — the performance observatory over exported traces and
  the benchmark history: ``perf flame <trace>`` (critical-path +
  self-time attribution by span path), ``perf diff <a> <b>``
  (per-path deltas between two traces; byte-identical traces diff
  empty), ``perf check`` (rolling-baseline regression gate over
  ``results/bench/history.jsonl``; exits 5 on a regression).
* ``serve``   — the measurement system as a query service over one
  immutable snapshot (compiled lists per phase, WRB policy, A&A
  labels, cached artifacts): ``serve snapshot`` prints the snapshot
  identity, ``serve queries`` emits a seeded scripted query mix as
  JSONL envelopes, ``serve script`` answers a query stream on N
  worker threads and writes the byte-stable response transcript
  (``--transcript``), ``serve http`` binds the stdlib HTTP frontend
  (``POST /v1/query``, ``GET /v1/snapshot``).
* ``visit``   — load one site in the simulated browser and print its
  inclusion tree and WebSocket traffic.
* ``check``   — evaluate a URL against the synthetic EasyList/EasyPrivacy.
* ``lists``   — dump the synthetic filter lists.
* ``lint``    — static analysis: filter-list defects (incl. WebSocket
  blindspots), webRequest pattern verdicts cross-validated against
  dynamic dispatch, and the repro's own whole-program self-lint
  (determinism, API boundaries, and the FLOW zone contracts; any
  finding among them fails it; ``--json`` emits one JSON object per
  finding, ``--flow-cache-dir`` holds the content-addressed parse
  cache).

Global flags: ``--quiet`` suppresses progress lines on stderr;
``--verbose`` adds stage-transition lines. Exit codes: 0 success, 1
contract violation (``lint``), 2 bad invocation or unreadable input,
3 catastrophic degradation — a crawl exhausted its retries on every
page and produced no data, 4 parallel execution failure — a shard
worker died before the study could merge, 5 performance regression —
``perf check`` found a gated metric past tolerance, 6 spool quota
hard breach — the spool is over budget with nothing evictable left
(import or raise ``--spool-quota``), 7 serve error — a scripted
``serve script`` run produced at least one error envelope (see
README.md).
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import report as report_mod
from repro.browser import Browser
from repro.cdp import EventBus, SessionRecorder
from repro.cdp.har import events_to_har
from repro.crawler.persistence import (
    DatasetError,
    DatasetReader,
    open_dataset,
    save_dataset,
)
from repro.experiments import (
    DEFAULT_CONFIG,
    FULL_CONFIG,
    SMOKE_CONFIG,
    TINY_CONFIG,
    run_study,
)
from repro.extension.adblocker import AdBlockerExtension
from repro.faults import PROFILES
from repro.inclusion import InclusionTreeBuilder
from repro.net.http import ResourceType
from repro.obs import (
    Obs,
    ObsEvent,
    read_trace,
    render_obs_summary,
    write_metrics,
    write_trace,
)
from repro.parallel import ParallelExecutionError
from repro.util.urls import UrlError
from repro.web.filterlists import (
    LIST_SCALES,
    build_easylist_text,
    build_easyprivacy_text,
    build_filter_engine,
    generate_filter_list_text,
)
from repro.web.registry import default_registry
from repro.web.server import SyntheticWeb, WebScale

_PRESETS = {"smoke": SMOKE_CONFIG, "tiny": TINY_CONFIG,
            "default": DEFAULT_CONFIG, "full": FULL_CONFIG}


def _progress_sink(verbose: bool):
    """An obs-event sink printing crawl progress to stderr."""

    def sink(event: ObsEvent) -> None:
        attrs = event.attrs
        if event.name == "crawl.progress":
            print(
                f"[crawl {attrs['crawl']} · Chrome {attrs['chrome']}] "
                f"{attrs['sites_done']}/{attrs['sites_total']} sites · "
                f"{attrs['pages']} pages · {attrs['sockets']} sockets seen",
                file=sys.stderr,
            )
        elif verbose and event.name == "stage":
            print(f"[study] stage: {attrs['stage']}", file=sys.stderr)

    return sink


def _study_exit_code(summaries) -> int:
    """0 normally; 3 when some crawl's retries exhausted on every page."""
    for summary in summaries:
        if summary.sites_visited and summary.pages_visited == 0:
            return 3
    return 0


def _render_degradation(summaries) -> str:
    """Per-crawl fault-tolerance counters (only degraded crawls)."""
    lines = []
    for summary in summaries:
        taxonomy = ", ".join(
            f"{kind}={count}" for kind, count in summary.errors.items()
        )
        lines.append(
            f"crawl {summary.config.index}: "
            f"{summary.pages_visited} pages ok, "
            f"{summary.pages_failed} failed, "
            f"{summary.page_retries} retries, "
            f"{summary.sites_quarantined} sites quarantined, "
            f"{summary.sockets_partial} partial sockets"
            + (f"  [{taxonomy}]" if taxonomy else "")
        )
    return "\n".join(lines)


def _cmd_study(args: argparse.Namespace) -> int:
    from repro.spool import SpoolCorruptionError, SpoolQuotaExceeded
    from repro.spool import SpoolDiskFull, StaleSpoolError

    config = _PRESETS[args.preset]
    if args.faults != config.faults:
        config = config.with_faults(args.faults)
    if args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}",
              file=sys.stderr)
        return 2
    obs = Obs()
    if not args.quiet:
        obs.tracer.add_sink(_progress_sink(args.verbose))
    try:
        result = run_study(config, obs=obs,
                           workers=args.workers,
                           spool_dir=args.spool_dir or None,
                           spool_quota=args.spool_quota)
    except ParallelExecutionError as error:
        print(f"parallel execution failed: {error}", file=sys.stderr)
        return 4
    except (SpoolQuotaExceeded, SpoolDiskFull) as error:
        print(str(error), file=sys.stderr)
        return 6
    except SpoolCorruptionError as error:
        print(f"spool is corrupt: {error}", file=sys.stderr)
        return 2
    except StaleSpoolError as error:
        print(str(error), file=sys.stderr)
        return 2
    print(report_mod.render_table1(result.table1), "\n")
    print("TABLE 2 — top initiators")
    print(report_mod.render_table2(result.table2), "\n")
    print("TABLE 3 — top A&A receivers")
    print(report_mod.render_table3(result.table3), "\n")
    print("TABLE 4 — initiator/receiver pairs")
    print(report_mod.render_table4(result.table4), "\n")
    print("TABLE 5 — content analysis")
    print(report_mod.render_table5(result.table5), "\n")
    print("FIGURE 3 — usage by rank")
    print(report_mod.render_figure3(result.figure3), "\n")
    print(report_mod.render_overall(result.overall), "\n")
    print(report_mod.render_blocking(result.blocking))
    if result.lint is not None:
        print("\nSTATIC LINT — filter lists & webRequest patterns")
        print(report_mod.render_lint(result.lint))
    if any(s.errors or s.pages_failed or s.sites_quarantined
           for s in result.summaries):
        print("\nDEGRADATION — fault tolerance "
              f"(profile: {config.faults})")
        print(_render_degradation(result.summaries))
    if result.obs is not None:
        print("\nOBSERVABILITY — per-stage timing & attribution")
        print(report_mod.render_obs(result.obs))
        if args.trace:
            lines = write_trace(args.trace, result.obs)
            print(f"\ntrace written to {args.trace} ({lines} records)")
        if args.metrics_out:
            write_metrics(args.metrics_out, result.obs)
            print(f"metrics written to {args.metrics_out}")
    if args.dataset_out:
        count = save_dataset(args.dataset_out, result.dataset)
        print(f"dataset written to {args.dataset_out} "
              f"({count} socket records)")
    return _study_exit_code(result.summaries)


def _spool_slices(spool_dir: str, reader: DatasetReader):
    """Slices covering ``reader``'s dataset, from the spool's import journal.

    Journal slices cover the spool-imported record ranges; any gaps
    (records predating the journal, e.g. a ``--dataset-out`` file the
    spool later extended) are filled with synthetic ``base:`` slices
    content-addressed the same way, so incremental analysis always
    sees a complete, contiguous tiling of the record region.
    """
    from pathlib import Path

    from repro.analysis import SegmentSlice
    from repro.spool import ImportState

    state = ImportState.load(Path(spool_dir), reader.path)
    slices = []
    cursor = 0
    for entry in state.slices:
        if entry.stop <= entry.start:
            continue
        if entry.start < cursor:
            raise ValueError(
                f"import journal slices overlap at record {entry.start}"
            )
        if entry.start > cursor:
            _, sha = reader.record_range_sha(cursor, entry.start)
            slices.append(SegmentSlice(
                f"base:{cursor}-{entry.start}", cursor, entry.start, sha
            ))
        slices.append(entry)
        cursor = entry.stop
    tail, sha = reader.record_range_sha(cursor, None)
    if tail:
        slices.append(SegmentSlice(
            f"base:{cursor}-{cursor + tail}", cursor, cursor + tail, sha
        ))
    return slices


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import (
        AnalysisEngine,
        DatasetSource,
        StageCache,
        default_stages,
    )
    from repro.util.serialization import dumps

    try:
        reader = open_dataset(args.dataset)
    except DatasetError as error:
        print(f"cannot read dataset {args.dataset!r}: {error}",
              file=sys.stderr)
        return 2
    slices = ()
    if args.incremental:
        try:
            slices = _spool_slices(args.incremental, reader)
        except (OSError, ValueError, KeyError) as error:
            print(f"cannot build slices from spool "
                  f"{args.incremental!r}: {error}", file=sys.stderr)
            return 2
    source = DatasetSource.from_reader(reader)
    cache = None if args.no_cache else StageCache(args.cache_dir)
    engine = AnalysisEngine(stages=default_stages(), cache=cache)
    result = engine.run(source, slices=slices)
    if args.incremental and not args.quiet:
        print(
            f"segment folds: {result.segments_cached} cached, "
            f"{result.segments_folded} folded",
            file=sys.stderr,
        )
    if args.json:
        payload = {
            "dataset": source.fingerprint(),
            "computed": list(result.computed),
            "cached": list(result.cached),
            "artifacts": {
                stage.name: stage.encode_artifact(result[stage.name])
                for stage in engine.stages
            },
        }
        output = dumps(payload)
    else:
        output = report_mod.render_analysis(result)
    if args.report_out:
        from pathlib import Path

        from repro.util.atomicio import atomic_write

        atomic_write(Path(args.report_out), output + "\n")
        if not args.quiet:
            print(f"report written to {args.report_out}", file=sys.stderr)
    else:
        print(output)
    if cache is not None and not args.quiet:
        print(
            f"analysis cache: {len(result.cached)} hit(s), "
            f"{len(result.computed)} recomputed",
            file=sys.stderr,
        )
    return 0


def _cmd_spool_status(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.spool import SpoolCorruptionError, recover_spool
    from repro.spool import ImportState, list_segments

    root = Path(args.spool_dir)
    if not root.is_dir():
        print(f"no spool directory at {root}", file=sys.stderr)
        return 2
    try:
        report = recover_spool(root)
    except SpoolCorruptionError as error:
        print(f"spool is corrupt: {error}", file=sys.stderr)
        return 2
    try:
        state = ImportState.load(root)
    except (OSError, ValueError, KeyError) as error:
        print(f"cannot read import journal: {error}", file=sys.stderr)
        return 2
    imported = state.imported_ids
    segments = list_segments(root)
    total = 0
    fresh = 0
    for info in segments:
        status = "open" if not info.sealed else (
            "imported" if info.segment_id in imported else "sealed"
        )
        if info.sealed and info.segment_id not in imported:
            fresh += 1
        total += info.size
        print(f"{info.segment_id:<24} {status:<9} {info.size:>12} bytes")
    print(f"{len(segments)} segment(s), {total} bytes "
          f"({fresh} sealed awaiting import)")
    if report.torn_records or report.truncated_segments:
        print(f"recovery: truncated {report.truncated_segments} torn "
              f"segment(s) ({report.torn_records} torn record(s))")
    if state.dataset_path is not None:
        print(f"imports into {state.dataset_path} "
              f"({len(imported)} segment(s) imported)")
    return 0


def _cmd_spool_import(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.spool import SpoolCorruptionError, import_spool

    try:
        result = import_spool(Path(args.spool_dir), Path(args.dataset))
    except SpoolCorruptionError as error:
        print(f"spool is corrupt: {error}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError) as error:
        print(f"import failed: {error}", file=sys.stderr)
        return 2
    if result.no_op:
        print("nothing to import (all sealed segments already imported)")
        return 0
    print(f"imported {len(result.imported_segments)} segment(s): "
          f"{result.new_records} new socket records, "
          f"{result.new_sites} sites ({result.deduped_sites} duplicate "
          f"site(s) skipped)")
    print(f"dataset {result.dataset_path}: {result.total_records} records "
          f"(fingerprint {result.fingerprint[:16]})")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    import json

    from repro.obs import obs_summary_json

    try:
        summary = read_trace(args.trace)
    except (OSError, ValueError, KeyError) as error:
        print(f"cannot read trace {args.trace!r}: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(obs_summary_json(summary, top=args.top),
                         sort_keys=True))
    else:
        print(render_obs_summary(summary, top=args.top))
    return 0


def _read_trace_or_none(path: str):
    from repro.obs import read_trace as _read

    try:
        return _read(path)
    except (OSError, ValueError, KeyError) as error:
        print(f"cannot read trace {path!r}: {error}", file=sys.stderr)
        return None


def _cmd_perf_flame(args: argparse.Namespace) -> int:
    import json

    from repro.obs import build_flame, flame_json, render_flame

    summary = _read_trace_or_none(args.trace)
    if summary is None:
        return 2
    report = build_flame(summary)
    if args.json:
        print(json.dumps(flame_json(report, top=args.top or None),
                         sort_keys=True))
    else:
        print(render_flame(report, top=args.top))
    return 0


def _cmd_perf_diff(args: argparse.Namespace) -> int:
    import json

    from repro.obs import diff_json, diff_traces, render_diff

    summary_a = _read_trace_or_none(args.trace_a)
    summary_b = _read_trace_or_none(args.trace_b)
    if summary_a is None or summary_b is None:
        return 2
    diff = diff_traces(summary_a, summary_b,
                       min_ticks=args.min_ticks, min_pct=args.min_pct,
                       min_count=args.min_count)
    if args.json:
        print(json.dumps(diff_json(diff), sort_keys=True))
    else:
        print(render_diff(diff, top=args.top))
    return 0


def _cmd_perf_check(args: argparse.Namespace) -> int:
    import json

    from repro.obs import (
        check_history,
        check_json,
        fingerprint_key,
        read_history,
        render_check,
    )

    try:
        records, skipped = read_history(args.history)
    except OSError as error:
        print(f"cannot read history {args.history!r}: {error}",
              file=sys.stderr)
        return 2
    check = check_history(records, window=args.window,
                          tolerance=args.tolerance,
                          min_delta=args.min_delta,
                          host=fingerprint_key())
    check.skipped_lines = skipped
    if args.json:
        print(json.dumps(check_json(check), sort_keys=True))
    else:
        print(render_check(check))
    return 0 if check.ok else 5


def _cmd_visit(args: argparse.Namespace) -> int:
    web = SyntheticWeb(scale=WebScale(sample_scale=args.sample_scale,
                                      entity_scale=args.scale))
    if args.domain:
        plan = web.plan.plan_for(args.domain)
        if plan is None:
            try:
                site = web.site(args.domain)
            except KeyError:
                print(f"unknown domain {args.domain!r}; socket-hosting "
                      f"sites include:", file=sys.stderr)
                for domain in list(web.plan.site_plans)[:10]:
                    print(f"  {domain}", file=sys.stderr)
                return 2
        else:
            site = plan.site
    else:
        site = next(iter(web.plan.site_plans.values())).site
    bus = EventBus()
    browser = Browser(version=args.chrome, bus=bus)
    if args.blocker:
        AdBlockerExtension(build_filter_engine(web.registry)).install(
            browser.webrequest
        )
    recorder = SessionRecorder(bus) if args.har else None
    builder = InclusionTreeBuilder()
    builder.attach(bus)
    result = browser.visit(web.blueprint(site, args.page, args.crawl),
                           crawl=args.crawl)
    builder.detach()
    tree = builder.result()
    print(f"{tree.root.url}  (Chrome {args.chrome}, crawl {args.crawl}"
          f"{', blocker on' if args.blocker else ''})")
    print(f"requests={result.requests} blocked={result.blocked_requests} "
          f"sockets={result.sockets_opened} "
          f"sockets_blocked={result.sockets_blocked}")
    for node in tree.all_nodes():
        indent = "  " * node.depth()
        marker = {"document": "□", "resource": "·", "websocket": "⇄"}
        print(f"{indent}{marker[node.kind.value]} {node.url}")
    for ws in tree.websockets:
        print(f"\n⇄ {ws.url}")
        for frame in ws.websocket.frames[: args.frames]:
            print(f"  {'→' if frame.sent else '←'} {frame.payload[:100]}")
    if recorder is not None:
        import json
        from pathlib import Path

        from repro.util.atomicio import atomic_write

        document = json.dumps(events_to_har(recorder.events), indent=2,
                              ensure_ascii=False)
        path = atomic_write(Path(args.har), document + "\n")
        print(f"\nHAR written to {path}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    engine = build_filter_engine(default_registry())
    try:
        rtype = ResourceType(args.type)
    except ValueError:
        print(f"unknown resource type {args.type!r}", file=sys.stderr)
        return 2
    try:
        result = engine.match(args.url, rtype, args.first_party)
    except UrlError as error:
        print(f"bad URL: {error}", file=sys.stderr)
        return 2
    if result.blocked:
        print(f"BLOCKED by {result.list_name}: {result.rule.raw}")
    elif result.matched:
        print(f"allowed (exception {result.exception_rule.raw} overrides "
              f"{result.rule.raw})")
    else:
        print("allowed (no rule matched)")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.staticlint.cache import FactsCache
    from repro.staticlint.runner import run_full_lint

    self_only = args.self_only
    check_self = self_only or not args.no_self
    cache = None
    if check_self and not args.no_flow_cache:
        cache = FactsCache(Path(args.flow_cache_dir))
    result = run_full_lint(
        check_registry=not self_only, check_self=check_self, cache=cache
    )
    if args.json:
        for diag in result.report.diagnostics:
            print(json.dumps(diag.to_json(), sort_keys=True))
    else:
        print(report_mod.render_lint(result))
    return result.exit_code


def _serve_snapshot(args: argparse.Namespace):
    """Build the snapshot a serve subcommand was pointed at."""
    from repro.serve import build_scale_snapshot

    return build_scale_snapshot(args.scale, seed=args.seed)


def _cmd_serve_snapshot(args: argparse.Namespace) -> int:
    from repro.serve import ServeService, SnapshotRequest, result_line

    service = ServeService(_serve_snapshot(args))
    result = service.handle(SnapshotRequest())
    if args.json:
        print(result_line(result))
        return 0
    info = result.body
    print(f"snapshot v{info.snapshot_version} "
          f"fingerprint={result.fingerprint}")
    print(f"  serve version : {info.serve_version}")
    print(f"  phases        : {', '.join(info.phases)}")
    for phase, count in info.rule_counts.items():
        print(f"  rules[{phase}]   : {count}")
    print(f"  A&A domains   : {info.aa_domains}")
    print(f"  dataset       : {info.dataset_fingerprint}")
    print(f"  artifacts     : "
          f"{', '.join(info.artifact_stages) or '(none)'}")
    return 0


def _cmd_serve_queries(args: argparse.Namespace) -> int:
    import json

    from repro.serve import encode_request, generate_query_mix
    from repro.web.filterlists import generate_filter_lists

    lists = generate_filter_lists(LIST_SCALES[args.scale], seed=args.seed)
    requests = generate_query_mix(lists, args.count, seed=args.query_seed)
    out = sys.stdout
    if args.out:
        out = open(args.out, "w", encoding="utf-8")
    try:
        for request in requests:
            print(json.dumps(encode_request(request), sort_keys=True,
                             separators=(",", ":")), file=out)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _cmd_serve_script(args: argparse.Namespace) -> int:
    import json

    from repro.serve import (
        ServeProtocolError,
        ServeService,
        decode_request,
        generate_query_mix,
        run_workers,
        transcript_lines,
        write_transcript,
    )
    from repro.web.filterlists import generate_filter_lists

    snapshot = _serve_snapshot(args)
    if args.queries:
        try:
            with open(args.queries, encoding="utf-8") as handle:
                requests = [
                    decode_request(json.loads(line))
                    for line in handle if line.strip()
                ]
        except OSError as error:
            print(f"cannot read queries: {error}", file=sys.stderr)
            return 2
        except (ValueError, ServeProtocolError) as error:
            print(f"bad query envelope: {error}", file=sys.stderr)
            return 2
    else:
        lists = generate_filter_lists(
            LIST_SCALES[args.scale], seed=args.seed
        )
        requests = generate_query_mix(
            lists, args.count, seed=args.query_seed
        )
    if not requests:
        print("no queries to run", file=sys.stderr)
        return 2
    service = ServeService(snapshot)
    results = run_workers(service, requests, workers=args.workers)
    if args.transcript:
        write_transcript(args.transcript, results)
    else:
        for line in transcript_lines(results):
            print(line)
    errors = sum(1 for result in results if not result.ok)
    if not args.quiet:
        blocked = sum(
            1 for result in results
            if result.ok and result.endpoint == "check"
            and result.body.blocked
        )
        print(
            f"[serve] {len(results)} queries · workers={args.workers} · "
            f"fingerprint={snapshot.fingerprint} · blocked={blocked} · "
            f"errors={errors}",
            file=sys.stderr,
        )
    return 7 if errors else 0


def _cmd_serve_http(args: argparse.Namespace) -> int:
    from repro.serve import ServeService, make_server

    service = ServeService(_serve_snapshot(args))
    server = make_server(service, host=args.host, port=args.port)
    print(
        f"[serve] snapshot {service.snapshot.fingerprint} on "
        f"http://{args.host}:{server.port}/v1/query",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _cmd_lists(args: argparse.Namespace) -> int:
    if args.scale:
        print(generate_filter_list_text(
            LIST_SCALES[args.scale], seed=args.seed,
            name=f"easylist-{args.scale}",
        ), end="")
        return 0
    registry = default_registry()
    if args.list in ("easylist", "both"):
        print(build_easylist_text(registry))
    if args.list in ("easyprivacy", "both"):
        print(build_easyprivacy_text(registry))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="WebSocket ad-blocker-circumvention study (IMC 2018) "
                    "reproduction",
    )
    verbosity = parser.add_mutually_exclusive_group()
    verbosity.add_argument("-q", "--quiet", action="store_true",
                           help="suppress progress lines on stderr")
    verbosity.add_argument("-v", "--verbose", action="store_true",
                           help="also print stage-transition lines")
    sub = parser.add_subparsers(dest="command", required=True)

    study = sub.add_parser("study", help="run the four-crawl study")
    study.add_argument("--preset", choices=sorted(_PRESETS), default="tiny")
    study.add_argument("--trace", default="",
                       help="write the study's observability trace "
                            "(spans, events, metrics) as JSONL")
    study.add_argument("--metrics-out", default="", dest="metrics_out",
                       help="write the final metrics snapshot as JSON")
    study.add_argument("--faults", choices=sorted(PROFILES), default="none",
                       help="inject a named fault profile into the crawls")
    study.add_argument("--workers", type=int, default=1,
                       help="crawl shards on this many worker processes "
                            "(artifacts are byte-identical across worker "
                            "counts; default 1 runs inline)")
    study.add_argument("--dataset-out", default="", dest="dataset_out",
                       help="write the full study dataset as JSONL "
                            "(.gz supported) for later `repro analyze`")
    study.add_argument("--spool-dir", default="", dest="spool_dir",
                       help="journal per-shard completion into a durable "
                            "write-ahead spool at this directory; rerun "
                            "with the same directory to resume an "
                            "interrupted study (crash-safe; drain with "
                            "`repro spool import`)")
    study.add_argument("--spool-quota", type=int, default=0,
                       dest="spool_quota", metavar="BYTES",
                       help="spool size budget; oldest imported segments "
                            "are evicted to stay under it, and the study "
                            "exits 6 if nothing evictable remains "
                            "(0 = unlimited)")
    study.set_defaults(func=_cmd_study)

    analyze = sub.add_parser(
        "analyze",
        help="re-analyze a saved dataset (cached, streaming)",
    )
    analyze.add_argument("dataset",
                         help="dataset JSONL from `study --dataset-out`")
    analyze.add_argument("--report-out", default="", dest="report_out",
                         help="write the report to this file instead of "
                              "stdout")
    analyze.add_argument("--json", action="store_true",
                         help="emit the stage artifacts as JSON instead "
                              "of the text report")
    analyze.add_argument("--no-cache", action="store_true", dest="no_cache",
                         help="fold every record, bypassing the "
                              "stage state cache")
    analyze.add_argument("--cache-dir", default="results/cache",
                         dest="cache_dir",
                         help="stage state cache directory "
                              "(default: results/cache)")
    analyze.add_argument("--incremental", default="", metavar="SPOOL_DIR",
                         help="fold incrementally using SPOOL_DIR's "
                              "import journal: slices already analyzed "
                              "restore from the cache, only new ones "
                              "re-read records")
    analyze.set_defaults(func=_cmd_analyze)

    spool = sub.add_parser(
        "spool",
        help="inspect or drain a write-ahead crawl spool",
    )
    spool_sub = spool.add_subparsers(dest="spool_command", required=True)
    sstatus = spool_sub.add_parser(
        "status", help="recover and list a spool's segments"
    )
    sstatus.add_argument("spool_dir", help="spool directory")
    sstatus.set_defaults(func=_cmd_spool_status)
    simport = spool_sub.add_parser(
        "import",
        help="drain sealed segments into a dataset (idempotent)",
    )
    simport.add_argument("spool_dir", help="spool directory")
    simport.add_argument("dataset",
                         help="dataset JSONL (.gz supported) to create "
                              "or extend")
    simport.set_defaults(func=_cmd_spool_import)

    obs = sub.add_parser("obs", help="summarize a study trace file")
    obs.add_argument("trace", help="trace JSONL from `study --trace`")
    obs.add_argument("--json", action="store_true",
                     help="emit one JSON object (schema in README) "
                          "instead of the text report")
    obs.add_argument("--top", type=int, default=None, metavar="N",
                     help="keep only the N heaviest stage rows")
    obs.set_defaults(func=_cmd_obs)

    perf = sub.add_parser(
        "perf",
        help="trace analytics and the benchmark regression gate",
    )
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)

    flame = perf_sub.add_parser(
        "flame",
        help="critical-path + self-time attribution for one trace",
    )
    flame.add_argument("trace", help="trace JSONL from `study --trace`")
    flame.add_argument("--top", type=int, default=30, metavar="N",
                       help="hot paths to show (default 30)")
    flame.add_argument("--json", action="store_true",
                       help="emit one JSON object (schema in README)")
    flame.set_defaults(func=_cmd_perf_flame)

    pdiff = perf_sub.add_parser(
        "diff",
        help="align two traces by span path and report the deltas",
    )
    pdiff.add_argument("trace_a", help="baseline trace JSONL")
    pdiff.add_argument("trace_b", help="candidate trace JSONL")
    pdiff.add_argument("--min-ticks", type=int, default=0,
                       dest="min_ticks", metavar="T",
                       help="suppress path deltas smaller than T ticks")
    pdiff.add_argument("--min-pct", type=float, default=0.0,
                       dest="min_pct", metavar="P",
                       help="suppress path deltas smaller than P%% of "
                            "the baseline")
    pdiff.add_argument("--min-count", type=int, default=0,
                       dest="min_count", metavar="C",
                       help="suppress counter deltas smaller than C")
    pdiff.add_argument("--top", type=int, default=30, metavar="N",
                       help="rows to show per section (default 30)")
    pdiff.add_argument("--json", action="store_true",
                       help="emit one JSON object (schema in README)")
    pdiff.set_defaults(func=_cmd_perf_diff)

    pcheck = perf_sub.add_parser(
        "check",
        help="regression-gate the benchmark history (exit 5 on "
             "regression)",
    )
    pcheck.add_argument("--history", default="results/bench/history.jsonl",
                        help="history JSONL appended by the bench suite "
                             "(default: results/bench/history.jsonl)")
    pcheck.add_argument("--window", type=int, default=5, metavar="N",
                        help="rolling baseline size per metric "
                             "(default 5)")
    pcheck.add_argument("--tolerance", type=float, default=0.5,
                        metavar="R",
                        help="allowed relative movement before a gated "
                             "metric regresses (default 0.5 = ±50%%)")
    pcheck.add_argument("--min-delta", type=float, default=0.01,
                        dest="min_delta", metavar="D",
                        help="absolute movement floor — smaller changes "
                             "are noise (default 0.01)")
    pcheck.add_argument("--json", action="store_true",
                        help="emit one JSON object (schema in README)")
    pcheck.set_defaults(func=_cmd_perf_check)

    visit = sub.add_parser("visit", help="visit one site, print its tree")
    visit.add_argument("domain", nargs="?", default="")
    visit.add_argument("--crawl", type=int, default=0, choices=range(4))
    visit.add_argument("--page", type=int, default=0)
    visit.add_argument("--chrome", type=int, default=57)
    visit.add_argument("--blocker", action="store_true")
    visit.add_argument("--frames", type=int, default=6)
    visit.add_argument("--scale", type=float, default=0.03)
    visit.add_argument("--sample-scale", type=float, default=0.002,
                       dest="sample_scale")
    visit.add_argument("--har", default="",
                       help="write the visit's session as a HAR file")
    visit.set_defaults(func=_cmd_visit)

    check = sub.add_parser("check", help="match a URL against the lists")
    check.add_argument("url")
    check.add_argument("--type", default="script")
    check.add_argument("--first-party", default="https://publisher.example/",
                       dest="first_party")
    check.set_defaults(func=_cmd_check)

    serve = sub.add_parser(
        "serve",
        help="query a compiled-engine snapshot as a service",
    )
    serve_sub = serve.add_subparsers(dest="serve_command", required=True)

    def _serve_common(command) -> None:
        command.add_argument("--scale", choices=sorted(LIST_SCALES),
                             default="10k",
                             help="snapshot list scale (rule count)")
        command.add_argument("--seed", type=int, default=2018,
                             help="list-generation seed (part of the "
                                  "snapshot fingerprint)")

    ssnapshot = serve_sub.add_parser(
        "snapshot", help="print the snapshot identity and health"
    )
    _serve_common(ssnapshot)
    ssnapshot.add_argument("--json", action="store_true",
                           help="emit the response envelope instead of "
                                "the human summary")
    ssnapshot.set_defaults(func=_cmd_serve_snapshot)

    squeries = serve_sub.add_parser(
        "queries", help="emit a seeded scripted query mix (JSONL "
                        "request envelopes)"
    )
    _serve_common(squeries)
    squeries.add_argument("--count", type=int, default=200,
                          help="number of queries to generate")
    squeries.add_argument("--query-seed", type=int, default=2018,
                          dest="query_seed",
                          help="seed of the query-mix stream")
    squeries.add_argument("-o", "--out", default="",
                          help="write envelopes here instead of stdout")
    squeries.set_defaults(func=_cmd_serve_queries)

    sscript = serve_sub.add_parser(
        "script", help="answer a query stream on N workers; the "
                       "transcript is byte-identical across runs and "
                       "worker counts (exit 7 on any error envelope)"
    )
    _serve_common(sscript)
    sscript.add_argument("--queries", default="",
                         help="JSONL request envelopes to answer "
                              "(default: a generated --count mix)")
    sscript.add_argument("--count", type=int, default=200,
                         help="generated query count when --queries "
                              "is not given")
    sscript.add_argument("--query-seed", type=int, default=2018,
                         dest="query_seed",
                         help="seed of the generated query mix")
    sscript.add_argument("--workers", type=int, default=1,
                         help="worker threads sharing the snapshot")
    sscript.add_argument("--transcript", default="",
                         help="write the response transcript here "
                              "instead of stdout")
    sscript.set_defaults(func=_cmd_serve_script)

    shttp = serve_sub.add_parser(
        "http", help="bind the stdlib HTTP frontend "
                     "(POST /v1/query, GET /v1/snapshot)"
    )
    _serve_common(shttp)
    shttp.add_argument("--host", default="127.0.0.1")
    shttp.add_argument("--port", type=int, default=8058,
                       help="bind port (0 picks a free one)")
    shttp.set_defaults(func=_cmd_serve_http)

    lists = sub.add_parser("lists", help="dump the synthetic filter lists")
    lists.add_argument("--list", choices=("easylist", "easyprivacy", "both"),
                       default="both")
    lists.add_argument("--scale", choices=sorted(LIST_SCALES), default="",
                       help="instead of the registry lists, emit a "
                            "scale-calibrated synthetic list with this many "
                            "rules (EasyList-shaped mix)")
    lists.add_argument("--seed", type=int, default=2018,
                       help="deterministic seed for --scale generation")
    lists.set_defaults(func=_cmd_lists)

    lint = sub.add_parser("lint", help="run the static analyzers")
    lint.add_argument("--json", action="store_true",
                      help="emit one JSON object per diagnostic instead of "
                           "the rendered report")
    lint.add_argument("--flow-cache-dir", default="results/cache/staticlint",
                      help="facts-cache directory for the whole-program "
                           "self-lint (content-addressed by source hash)")
    lint.add_argument("--no-flow-cache", action="store_true",
                      help="re-parse every file instead of using the "
                           "facts cache")
    lint.add_argument("--self", action="store_true", dest="self_only",
                      help="only lint src/repro's determinism contract "
                           "(the CI gate)")
    lint.add_argument("--no-self", action="store_true",
                      help="skip the determinism self-lint stage")
    lint.set_defaults(func=_cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
