"""Tests for socket-record archiving and restoring journaled sites.

The journal itself (:class:`repro.spool.SpoolJournal`) is tested in
``tests/spool/test_journal.py``.
"""

from repro.content.items import ReceivedClass, SentItem
from repro.crawler.crawler import CrawlAccountant, CrawlConfig
from repro.crawler.dataset import SocketRecord
from repro.crawler.outcome import SiteOutcome
from repro.crawler.persistence import (
    load_socket_records,
    save_socket_records,
    socket_record_from_json,
    socket_record_to_json,
)


def _record(crawl=0, partial=False):
    return SocketRecord(
        crawl=crawl, site_domain="pub.com", rank=42,
        page_url="https://www.pub.com/",
        socket_host="rt.33across.com",
        initiator_host="cdn.helper.net",
        initiator_url="https://cdn.helper.net/x.js",
        chain_hosts=("www.pub.com", "cdn.helper.net", "rt.33across.com"),
        chain_script_urls=("https://cdn.helper.net/x.js",),
        first_party_host="www.pub.com", cross_origin=True,
        handshake_cookie=True,
        sent_items=frozenset({SentItem.USER_AGENT, SentItem.SCREEN}),
        received_classes=frozenset({ReceivedClass.JSON}),
        sent_nothing=False, received_nothing=False,
        partial=partial,
    )


def test_json_round_trip():
    record = _record()
    assert socket_record_from_json(socket_record_to_json(record)) == record


def test_partial_flag_round_trips():
    record = _record(partial=True)
    payload = socket_record_to_json(record)
    assert payload["partial"] is True
    assert socket_record_from_json(payload) == record
    assert socket_record_from_json(payload).partial is True


def test_partial_defaults_false_for_legacy_payloads():
    payload = socket_record_to_json(_record())
    del payload["partial"]  # records written before the flag existed
    assert socket_record_from_json(payload).partial is False


def test_partial_file_round_trip(tmp_path):
    records = [_record(c, partial=bool(c % 2)) for c in range(4)]
    path = tmp_path / "partial.jsonl"
    assert save_socket_records(path, records) == 4
    loaded = load_socket_records(path)
    assert loaded == records
    assert [r.partial for r in loaded] == [False, True, False, True]


def test_file_round_trip(tmp_path):
    records = [_record(c) for c in range(4)]
    path = tmp_path / "sockets.jsonl"
    assert save_socket_records(path, records) == 4
    assert load_socket_records(path) == records


def test_gzip_round_trip(tmp_path):
    path = tmp_path / "sockets.jsonl.gz"
    save_socket_records(path, [_record()])
    assert load_socket_records(path) == [_record()]


def test_real_dataset_round_trips(tiny_study, tmp_path):
    path = tmp_path / "study.jsonl.gz"
    records = tiny_study.dataset.socket_records[:200]
    save_socket_records(path, records)
    assert load_socket_records(path) == records


# -- journaled sites -------------------------------------------------------


def test_checkpoint_restore_folds_into_summary():
    accountant = CrawlAccountant(CrawlConfig(
        index=0, label="x", chrome_major=57, start_date="2017-04-02"
    ), site_total=2)
    accountant.restore_site(SiteOutcome(
        crawl=0, domain="a.com", rank=1, pages_visited=15,
        sockets_observed=4))
    accountant.restore_site(SiteOutcome(
        crawl=0, domain="b.com", rank=2, quarantined=True, pages_visited=3))
    summary = accountant.summary
    assert summary.sites_visited == 2
    assert summary.pages_visited == 18
    assert summary.sockets_observed == 4
    assert summary.sites_quarantined == 1
    assert summary.sites == [("a.com", 1), ("b.com", 2)]
