"""Package-private JSON encoders for finalized stage artifacts.

Each ``encode_*`` turns a finalized artifact into plain JSON-able data
(sorted, canonical) for ``repro analyze --json``. Flat row dataclasses
encode themselves via ``asdict`` inside their stage; this module only
holds the artifacts with enum keys, frozensets, or Counters.

This module is private to :mod:`repro.analysis` — import the stage
classes from the package instead. The API-PRIVATE staticlint rule
flags imports of it from outside the package.
"""

from __future__ import annotations

from repro.analysis.ads import AdDeliveryStats
from repro.analysis.drift import InitiatorDrift
from repro.analysis.figure3 import Figure3Series
from repro.analysis.table5 import Table5, Table5Cell


def _encode_cell(cell: Table5Cell) -> list:
    return [cell.count, cell.percent]


def _encode_cells(cells: dict) -> dict:
    return {key.value: _encode_cell(cell) for key, cell in cells.items()}


def encode_table5(table: Table5) -> dict:
    return {
        "ws_total": table.ws_total,
        "http_total": table.http_total,
        "sent_ws": _encode_cells(table.sent_ws),
        "sent_http": _encode_cells(table.sent_http),
        "received_ws": _encode_cells(table.received_ws),
        "received_http": _encode_cells(table.received_http),
        "ws_sent_nothing": _encode_cell(table.ws_sent_nothing),
        "ws_received_nothing": _encode_cell(table.ws_received_nothing),
        "fingerprinting_sockets": table.fingerprinting_sockets,
        "fingerprinting_pairs": table.fingerprinting_pairs,
        "fingerprinting_top_receiver": table.fingerprinting_top_receiver,
        "fingerprinting_top_receiver_share":
            table.fingerprinting_top_receiver_share,
        "dom_receivers": list(table.dom_receivers),
    }


def encode_figure3(series: Figure3Series) -> dict:
    # A ratio with no non-A&A share is float("inf"); json emits
    # Infinity (allow_nan is the default).
    return {
        "bins": list(series.bins),
        "aa_fraction": list(series.aa_fraction),
        "non_aa_fraction": list(series.non_aa_fraction),
        "publishers_per_bin": list(series.publishers_per_bin),
        "overall_ratio": series.overall_ratio,
        "top10k_ratio": series.top10k_ratio,
    }


def encode_drift(drift: InitiatorDrift) -> dict:
    return {
        "per_crawl": {
            str(crawl): sorted(domains)
            for crawl, domains in sorted(drift.per_crawl.items())
        },
        "persistent": sorted(drift.persistent),
        "disappeared_after_patch": sorted(drift.disappeared_after_patch),
        "appeared_after_patch": sorted(drift.appeared_after_patch),
        "churn": [
            [a, b, gained, lost]
            for (a, b), (gained, lost) in sorted(drift.churn.items())
        ],
    }


def encode_ads(stats: AdDeliveryStats) -> dict:
    return {
        "sockets_with_ads": stats.sockets_with_ads,
        "total_units": stats.total_units,
        "receivers": {
            domain: count
            for domain, count in sorted(stats.receivers.items())
        },
        "creative_hosts": {
            host: count
            for host, count in sorted(stats.creative_hosts.items())
        },
        "unlisted_creative_units": stats.unlisted_creative_units,
        "sample_captions": list(stats.sample_captions),
    }

