"""Unit tests for Table 5 computation over a hand-built dataset."""

from collections import Counter

from repro.analysis.classify import SocketView
from repro.analysis.table5 import compute_table5
from repro.content.items import ReceivedClass, SentItem
from repro.crawler.dataset import SocketRecord, StudyDataset
from repro.filters import CompiledFilterEngine, parse_filter_list
from repro.labeling.aa_labeler import AaLabeler
from repro.labeling.resolver import DomainResolver

CF = "d10lpsik1i8c69.cloudfront.net"


def _dataset():
    engine = CompiledFilterEngine([parse_filter_list("t", "||tracker.example^")])
    dataset = StudyDataset(engine=engine)
    dataset.http_requests_by_host.update({
        "px.tracker.example": 10,       # A&A
        CF: 5,                          # A&A via cloudfront mapping
        "cdn.benign.example": 100,      # not A&A
    })
    dataset.http_items_by_host["px.tracker.example"] = Counter({
        SentItem.USER_AGENT: 10, SentItem.COOKIE: 4,
    })
    dataset.http_received_by_host["px.tracker.example"] = Counter({
        ReceivedClass.IMAGE: 8,
    })
    dataset.http_received_by_host[CF] = Counter({
        ReceivedClass.JAVASCRIPT: 5,
    })
    return dataset


def _view(sent_items=frozenset(), received=frozenset(), receiver="tracker.example",
          sent_nothing=False):
    record = SocketRecord(
        crawl=0, site_domain="pub.example", rank=1,
        page_url="https://pub.example/",
        socket_host=f"ws.{receiver}", initiator_host=f"cdn.{receiver}",
        initiator_url=f"https://cdn.{receiver}/x.js",
        chain_hosts=("pub.example", f"cdn.{receiver}", f"ws.{receiver}"),
        chain_script_urls=(), first_party_host="pub.example",
        cross_origin=True, handshake_cookie=False,
        sent_items=frozenset(sent_items),
        received_classes=frozenset(received),
        sent_nothing=sent_nothing, received_nothing=not received,
    )
    labeled = receiver == "tracker.example"
    return SocketView(record=record, initiator_domain=f"{receiver}",
                      receiver_domain=receiver, aa_initiated=labeled,
                      aa_received=labeled, aa_chain=False)


def test_http_counts_respect_labels_and_cloudfront():
    labeler = AaLabeler(aa_domains=frozenset({"tracker.example",
                                              "tenant.example"}))
    resolver = DomainResolver(cloudfront_mapping={CF: "tenant.example"})
    views = [_view({SentItem.USER_AGENT})]
    table = compute_table5(_dataset(), views, labeler, resolver)
    # 10 tracker requests + 5 cloudfront-tenant requests; benign excluded.
    assert table.http_total == 15
    assert table.sent_http[SentItem.COOKIE].count == 4
    assert table.received_http[ReceivedClass.JAVASCRIPT].count == 5
    assert table.received_http[ReceivedClass.IMAGE].count == 8


def test_ws_denominator_is_aa_sockets_only():
    labeler = AaLabeler(aa_domains=frozenset({"tracker.example"}))
    resolver = DomainResolver()
    views = [
        _view({SentItem.USER_AGENT, SentItem.COOKIE}),
        _view({SentItem.USER_AGENT}, receiver="benign.example"),
    ]
    table = compute_table5(_dataset(), views, labeler, resolver)
    assert table.ws_total == 1  # the benign socket is excluded
    assert table.sent_ws[SentItem.COOKIE].percent == 100.0


def test_no_data_rows():
    labeler = AaLabeler(aa_domains=frozenset({"tracker.example"}))
    views = [
        _view(sent_nothing=True),
        _view({SentItem.USER_AGENT}, received={ReceivedClass.HTML}),
    ]
    table = compute_table5(_dataset(), views, labeler, DomainResolver())
    assert table.ws_sent_nothing.count == 1
    assert table.ws_received_nothing.count == 1
    assert table.received_ws[ReceivedClass.HTML].percent == 50.0


def test_fingerprinting_pair_accounting():
    labeler = AaLabeler(aa_domains=frozenset({"tracker.example"}))
    fp_items = {SentItem.SCREEN, SentItem.VIEWPORT, SentItem.ORIENTATION,
                SentItem.USER_AGENT}
    views = [_view(fp_items), _view(fp_items), _view({SentItem.USER_AGENT})]
    table = compute_table5(_dataset(), views, labeler, DomainResolver())
    assert table.fingerprinting_sockets == 2
    assert table.fingerprinting_pairs == 1
    assert table.fingerprinting_top_receiver == "tracker.example"
