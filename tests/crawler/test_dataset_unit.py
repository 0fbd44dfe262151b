"""Unit tests for dataset internals (chain signatures, tagging)."""

from repro.crawler.dataset import ChainSignature, StudyDataset
from repro.crawler.observation import PageObservation, ResourceObservation
from repro.filters import CompiledFilterEngine, parse_filter_list
from repro.net.http import ResourceType


def _dataset():
    engine = CompiledFilterEngine([parse_filter_list("t", "||ads.example^")])
    return StudyDataset(engine=engine)


def _resource(url, host, chain_hosts, rtype=ResourceType.SCRIPT,
              mime="application/javascript"):
    return ResourceObservation(
        url=url, host=host, resource_type=rtype, mime_type=mime,
        has_cookie=False, sent_items=frozenset(),
        chain_hosts=chain_hosts, chain_script_urls=(url,),
    )


def _page(resources):
    return PageObservation(
        site_domain="pub.example", rank=1, category="News", crawl=0,
        page_url="https://www.pub.example/", resources=resources,
    )


def test_first_party_chains_skipped_in_signatures():
    dataset = _dataset()
    dataset.observe(_page([
        _resource("https://www.pub.example/app.js", "www.pub.example",
                  ("www.pub.example", "www.pub.example")),
    ]))
    assert not dataset.chain_signatures


def test_third_party_chains_counted():
    dataset = _dataset()
    resource = _resource(
        "https://cdn.ads.example/tag.js", "cdn.ads.example",
        ("www.pub.example", "cdn.ads.example"),
    )
    dataset.observe(_page([resource]))
    dataset.observe(_page([resource]))
    assert sum(dataset.chain_signatures.values()) == 2
    assert len(dataset.chain_signatures) == 1
    signature = next(iter(dataset.chain_signatures))
    assert isinstance(signature, ChainSignature)
    assert signature.leaf_host == "cdn.ads.example"
    assert signature.leaf_is_script


def test_tagging_counts_match_engine():
    dataset = _dataset()
    dataset.observe(_page([
        _resource("https://cdn.ads.example/tag.js", "cdn.ads.example",
                  ("www.pub.example", "cdn.ads.example")),
        _resource("https://cdn.benign.example/lib.js", "cdn.benign.example",
                  ("www.pub.example", "cdn.benign.example")),
    ]))
    assert dataset.tag_counter.counts("ads.example") == (1, 0)
    assert dataset.tag_counter.counts("benign.example") == (0, 1)


def test_http_counters_exclude_first_party():
    dataset = _dataset()
    dataset.observe(_page([
        _resource("https://www.pub.example/app.js", "www.pub.example",
                  ("www.pub.example",)),
        _resource("https://cdn.ads.example/tag.js", "cdn.ads.example",
                  ("www.pub.example", "cdn.ads.example")),
    ]))
    assert "www.pub.example" not in dataset.http_requests_by_host
    assert dataset.http_requests_by_host["cdn.ads.example"] == 1


def test_crawl_page_counter():
    dataset = _dataset()
    for _ in range(3):
        dataset.observe(_page([]))
    assert dataset.crawl_pages[0] == 3
    assert dataset.crawl_indices == [0]
