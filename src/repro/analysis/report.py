"""Fixed-width text rendering of the reproduced tables and figure."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.ads import render_ad_delivery
from repro.analysis.blocking import BlockingStats
from repro.analysis.drift import render_drift
from repro.analysis.figure3 import Figure3Series, coarse_series
from repro.analysis.stats import OverallStats
from repro.analysis.table1 import Table1Row
from repro.analysis.table2 import Table2Row
from repro.analysis.table3 import Table3Row
from repro.analysis.table4 import Table4
from repro.analysis.table5 import Table5
from repro.content.items import RECEIVED_CLASSES, SENT_ITEMS
from repro.obs import ObsSummary, render_obs_summary
from repro.staticlint.diagnostics import LintReport
from repro.staticlint.runner import FullLintResult

if TYPE_CHECKING:
    from repro.analysis.engine import AnalysisResult


def _fmt(rows: list[list[str]], header: list[str]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _bold(name: str, is_aa: bool) -> str:
    """The paper bolds A&A domains; we star them."""
    return f"{name}*" if is_aa else name


def render_table1(rows: list[Table1Row]) -> str:
    """Table 1 as text."""
    body = [
        [
            row.label,
            f"{row.pct_sites_with_sockets:.1f}",
            f"{row.pct_sockets_aa_initiators:.1f}",
            str(row.unique_aa_initiators),
            f"{row.pct_sockets_aa_receivers:.1f}",
            str(row.unique_aa_receivers),
        ]
        for row in rows
    ]
    return _fmt(body, [
        "Crawl Dates", "% Sites w/ Sockets", "% Sockets w/ A&A Init.",
        "# Uniq A&A Init.", "% Sockets w/ A&A Recv.", "# Uniq A&A Recv.",
    ])


def render_table2(rows: list[Table2Row]) -> str:
    """Table 2 as text (A&A initiators starred)."""
    body = [
        [
            _bold(row.initiator, row.is_aa),
            str(row.receivers_total),
            str(row.receivers_aa),
            str(row.socket_count),
        ]
        for row in rows
    ]
    return _fmt(body, ["Initiator", "# Recv (Total)", "# Recv (A&A)",
                       "Socket Count"])


def render_table3(rows: list[Table3Row]) -> str:
    """Table 3 as text."""
    body = [
        [
            row.receiver,
            str(row.initiators_total),
            str(row.initiators_aa),
            str(row.socket_count),
        ]
        for row in rows
    ]
    return _fmt(body, ["Receiver", "# Init (Total)", "# Init (A&A)",
                       "Socket Count"])


def render_table4(table: Table4) -> str:
    """Table 4 as text, self-pair aggregate last."""
    body = [
        [
            _bold(row.initiator, row.initiator_is_aa),
            _bold(row.receiver, row.receiver_is_aa),
            str(row.socket_count),
        ]
        for row in table.rows
    ]
    body.append(["A&A domain to itself", "", f"{table.self_pair_sockets:,}"])
    return _fmt(body, ["Initiator", "Receiver", "Socket Count"])


def render_table5(table: Table5) -> str:
    """Table 5 as text: sent and received halves, WS vs HTTP/S."""
    body = []
    for item in SENT_ITEMS:
        ws = table.sent_ws.get(item)
        http = table.sent_http.get(item)
        body.append([
            item.value,
            f"{ws.count:,}" if ws else "0",
            f"{ws.percent:.2f}" if ws else "0.00",
            f"{http.count:,}" if http else "0",
            f"{http.percent:.2f}" if http else "0.00",
        ])
    body.append([
        "No data",
        f"{table.ws_sent_nothing.count:,}",
        f"{table.ws_sent_nothing.percent:.2f}",
        "-", "-",
    ])
    sent = _fmt(body, ["Sent Item", "WS Count", "WS %", "HTTP Count", "HTTP %"])
    body = []
    for cls in RECEIVED_CLASSES:
        ws = table.received_ws.get(cls)
        http = table.received_http.get(cls)
        body.append([
            cls.value,
            f"{ws.count:,}" if ws else "0",
            f"{ws.percent:.2f}" if ws else "0.00",
            f"{http.count:,}" if http else "0",
            f"{http.percent:.2f}" if http else "0.00",
        ])
    body.append([
        "No data",
        f"{table.ws_received_nothing.count:,}",
        f"{table.ws_received_nothing.percent:.2f}",
        "-", "-",
    ])
    received = _fmt(body, ["Received Item", "WS Count", "WS %",
                           "HTTP Count", "HTTP %"])
    notes = (
        f"(A&A sockets: {table.ws_total:,}; HTTP/S requests to A&A: "
        f"{table.http_total:,})\n"
        f"Fingerprinting: {table.fingerprinting_sockets:,} sockets across "
        f"{table.fingerprinting_pairs} initiator/receiver pairs; top "
        f"receiver {table.fingerprinting_top_receiver} in "
        f"{table.fingerprinting_top_receiver_share:.0f}% of pairs.\n"
        f"DOM exfiltration receivers: {', '.join(table.dom_receivers)}"
    )
    return f"{sent}\n\n{received}\n\n{notes}"


def render_figure3(series: Figure3Series, groups: int = 10) -> str:
    """Figure 3 as a coarse text series."""
    body = [
        [label, f"{aa:.2f}", f"{non:.2f}", str(pubs)]
        for label, aa, non, pubs in coarse_series(series, groups)
    ]
    table = _fmt(body, ["Rank Range", "% w/ A&A Sockets",
                        "% w/ non-A&A Sockets", "Publishers"])
    return (
        f"{table}\n"
        f"Overall A&A / non-A&A ratio: {series.overall_ratio:.1f}x; "
        f"top-10K ratio: {series.top10k_ratio:.1f}x"
    )


def render_figure3_chart(series: Figure3Series, width: int = 40) -> str:
    """Figure 3 as a unicode bar chart (A&A vs non-A&A per rank band).

    Rank bands are uneven on purpose: the crawl sample (like the
    paper's) covers the head of the ranking densely and the tail
    sparsely, so tail bands are aggregated and each band shows its
    publisher count.
    """
    def _aggregate(lo_bin: int, hi_bin: int) -> tuple[float, float, int]:
        pubs = sum(series.publishers_per_bin[lo_bin:hi_bin])
        if not pubs:
            return 0.0, 0.0, 0
        aa = sum(series.aa_fraction[i] * series.publishers_per_bin[i]
                 for i in range(lo_bin, hi_bin)) / pubs
        non = sum(series.non_aa_fraction[i] * series.publishers_per_bin[i]
                  for i in range(lo_bin, hi_bin)) / pubs
        return aa, non, pubs

    bands = ((0, 1, "0-10K"), (1, 2, "10-20K"), (2, 5, "20-50K"),
             (5, 10, "50-100K"), (10, 50, "100-500K"), (50, 100, "500K-1M"))
    rows = [(label, *_aggregate(lo, hi)[0:2], _aggregate(lo, hi)[2])
            for lo, hi, label in bands]
    # Scale bars to the densest (most trustworthy) bands only, so a
    # noisy 20-publisher tail band cannot flatten the head.
    trusted = [max(aa, non) for _, aa, non, pubs in rows if pubs >= 200]
    peak = max(trusted, default=1.0) or 1.0
    lines = ["Publishers with sockets, by Alexa rank "
             "(█ A&A, ░ non-A&A; band %, n = publishers sampled):"]
    for label, aa, non, pubs in rows:
        if not pubs:
            lines.append(f"{label:>10s} | (no publishers sampled)")
            continue
        aa_bar = "█" * min(width, max(1 if aa > 0 else 0,
                                      round(width * aa / peak)))
        non_bar = "░" * min(width, max(1 if non > 0 else 0,
                                       round(width * non / peak)))
        sparse = "  ⚠ sparse band" if pubs < 200 else ""
        lines.append(f"{label:>10s} | {aa_bar} {aa:.2f}  (n={pubs}){sparse}")
        lines.append(f"{'':>10s} | {non_bar} {non:.2f}")
    return "\n".join(lines)


def render_overall(stats: OverallStats) -> str:
    """§4.1 prose statistics as text."""
    return "\n".join([
        f"Total sockets (merged): {stats.total_sockets:,}",
        f"Cross-origin sockets: {stats.pct_cross_origin:.1f}%",
        f"Unique third-party receiver domains: "
        f"{stats.unique_third_party_receivers}",
        f"Unique A&A receiver domains: {stats.unique_aa_receivers}",
        f"Unique A&A initiator domains: {stats.unique_aa_initiators}",
        f"Avg sockets per socket-using site/crawl: "
        f"{stats.avg_sockets_per_socket_site:.1f}",
        f"A&A receivers contacted by >=10 initiators: "
        f"{stats.pct_aa_receivers_ge_10_initiators:.0f}%",
        f"A&A initiators that disappeared (first to last crawl): "
        f"{stats.disappeared_initiators}",
        f"Sockets per A&A initiator vs non-A&A initiator: "
        f"{stats.sockets_per_aa_initiator:.1f} vs "
        f"{stats.sockets_per_non_aa_initiator:.1f} "
        f"({stats.aa_involvement_ratio:.1f}x)",
    ])


def render_blocking(stats: BlockingStats) -> str:
    """§4.2 blocking statistics as text."""
    return "\n".join([
        f"A&A socket chains blocked by EasyList/EasyPrivacy: "
        f"{stats.pct_socket_chains_blocked:.1f}% "
        f"({stats.socket_chains_blocked:,}/{stats.socket_chains:,})",
        f"All A&A chains blocked: {stats.pct_aa_chains_blocked:.1f}% "
        f"({stats.aa_chains_blocked:,}/{stats.aa_chains:,})",
    ])


def render_obs(summary: ObsSummary) -> str:
    """The study's observability section: per-stage timings, per-crawl
    attribution, and the harvested metrics snapshot."""
    return render_obs_summary(summary)


def render_lint_report(report: LintReport, show_hints: bool = True) -> str:
    """A lint report as a fixed-width diagnostics table."""
    if not report:
        return "(no findings)"
    body = []
    for diag in report.sorted_by_severity():
        hint = diag.fix_hint if show_hints else ""
        body.append([diag.severity.value, diag.rule_id, diag.source,
                     diag.message, hint])
    header = ["Sev", "Rule", "Source", "Finding", "Fix hint"]
    if not show_hints:
        body = [row[:4] for row in body]
        header = header[:4]
    return _fmt(body, header)


def render_lint(result: FullLintResult) -> str:
    """The full ``repro lint`` output: summary, verdicts, diagnostics."""
    sections: list[str] = []
    if result.filter_analysis is not None:
        analysis = result.filter_analysis
        universe = analysis.universe
        blocked = sum(1 for b in analysis.blocked if b)
        sections.append(
            f"FILTER LISTS — {sum(len(fl) for fl in analysis.lists)} rules, "
            f"{len(universe.probes)} probe URLs ({blocked} blocked)\n"
            f"ws blindspot domains: {len(analysis.blindspot_domains)} "
            f"({', '.join(analysis.blindspot_domains[:6])}"
            f"{', …' if len(analysis.blindspot_domains) > 6 else ''})\n"
            f"ws covered domains: {len(analysis.ws_covered_domains)}\n"
            + render_lint_report(analysis.report)
        )
    if result.listener_verdicts:
        body = [[label, verdict.value]
                for label, verdict in result.listener_verdicts]
        xchecks = []
        for label, records in result.cross_checks.items():
            agree = sum(1 for r in records if r.agree)
            xchecks.append(
                f"  {label}: static verdict matches dynamic dispatch for "
                f"{agree}/{len(records)} receivers"
            )
        sections.append(
            "WEBREQUEST LISTENERS\n"
            + _fmt(body, ["Configuration", "Verdict"])
            + "\nstatic-vs-dynamic cross-check:\n"
            + "\n".join(xchecks)
        )
    if result.self_report is not None:
        sections.append(
            "DETERMINISM (src/repro)\n"
            + render_lint_report(result.self_report)
        )
    if result.api_report is not None:
        sections.append(
            "API BOUNDARIES (src/repro)\n"
            + render_lint_report(result.api_report)
        )
    if result.flow_report is not None:
        lines = ["WHOLE-PROGRAM FLOW (src/repro)"]
        analysis = result.flow_analysis
        if analysis is not None:
            edges = sum(len(v) for v in analysis.graph.calls.values())
            effectful = sum(1 for e in analysis.effects.values() if e)
            lines.append(
                f"{len(analysis.graph.nodes)} functions, {edges} call "
                f"edges, {effectful} effectful after fixpoint; "
                f"parsed {analysis.parsed_files} file(s), "
                f"{analysis.cached_files} from cache"
            )
        lines.append(render_lint_report(result.flow_report))
        sections.append("\n".join(lines))
    counts = result.report.counts()
    sections.append(
        f"{len(result.report)} finding(s): "
        + (", ".join(f"{rule} x{n}" for rule, n in sorted(counts.items()))
           if counts else "none")
        + f"\nexit code: {result.exit_code}"
    )
    return "\n\n".join(sections)


def render_analysis(result: "AnalysisResult") -> str:
    """The full ``repro analyze`` report over a saved dataset.

    Renders whichever stage artifacts the engine produced, in the
    study's section order; the text for each shared stage is
    byte-identical to the corresponding ``repro study`` section.
    """
    meta = result.meta
    crawls = sorted(meta.crawls, key=lambda crawl: crawl.index)
    header = (
        f"DATASET — {len(crawls)} crawl(s): "
        + "; ".join(
            f"{crawl.index} · {crawl.label} ({len(crawl.sites)} sites)"
            for crawl in crawls
        )
    )
    renderers = (
        ("table1", "TABLE 1 — socket prevalence per crawl", render_table1),
        ("table2", "TABLE 2 — top initiators", render_table2),
        ("table3", "TABLE 3 — top A&A receivers", render_table3),
        ("table4", "TABLE 4 — initiator/receiver pairs", render_table4),
        ("table5", "TABLE 5 — content analysis", render_table5),
        ("figure3", "FIGURE 3 — usage by rank", render_figure3),
        ("overall", "", render_overall),
        ("blocking", "", render_blocking),
        ("drift", "", render_drift),
        ("ads", "", render_ad_delivery),
    )
    sections = [header]
    for name, title, renderer in renderers:
        if name not in result.artifacts:
            continue
        text = renderer(result.artifacts[name])
        sections.append(f"{title}\n{text}" if title else text)
    return "\n\n".join(sections)
