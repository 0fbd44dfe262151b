"""Benchmarks for filter-list parsing, rule-option evaluation, and
matching at real-EasyList scale.

Complements ``bench_engines.py`` (which measures end-to-end engine
matching on the bundled synthetic lists): this file isolates the parse
stage, the ``$domain=`` longest-match resolution the engine leans on
per request, and — the headline — ns/match of the compiled index
against a replica of the pre-compiled-index sharding at 10k/50k/100k
rules. ``BENCH_FILTERS.json`` records the
scale table; the 50k compiled-vs-legacy speedup is asserted >= 10x and
history-gated by ``repro perf check``.
"""

import re
from time import perf_counter

from conftest import BENCH_CONFIG, write_bench_json

from repro.filters.compiled import CompiledFilterEngine
from repro.filters.parser import parse_filter_line, parse_filter_list
from repro.net.domains import is_third_party
from repro.net.http import ResourceType
from repro.util.urls import parse_url
from repro.web.filterlists import (
    build_easylist_text,
    build_easyprivacy_text,
    generate_filter_lists,
    generate_request_corpus,
)


def test_parse_bundled_lists(benchmark, bench_web):
    easylist = build_easylist_text(bench_web.registry)
    easyprivacy = build_easyprivacy_text(bench_web.registry)

    def parse_both():
        return (
            parse_filter_list("easylist", easylist),
            parse_filter_list("easyprivacy", easyprivacy),
        )

    lists = benchmark(parse_both)
    total = sum(len(fl) for fl in lists)
    print(f"\nparsed {total} rules "
          f"({sum(len(fl.skipped_lines) for fl in lists)} skipped)")
    assert total > 0
    assert all(rule.line > 0 for fl in lists for rule in fl.rules)


def test_parse_line_throughput(benchmark):
    lines = [
        "||doubleclick.net^$third-party",
        "@@||google.com/recaptcha/$script,subdocument",
        "/track/hit.gif$image,third-party",
        "||intercom.io^$websocket",
        "/ads/$domain=news.com|~blog.news.com",
        "@@$document,domain=partner.example",
        "||cdn.example/lib.js$script,~third-party,match-case",
    ] * 100

    def parse_all():
        return sum(1 for line in lines if parse_filter_line(line) is not None)

    parsed = benchmark(parse_all)
    assert parsed == len(lines)


def test_domain_option_resolution(benchmark):
    rule = parse_filter_line(
        "/ads/$domain=news.com|shop.com|~blog.news.com|~static.shop.com"
    )
    hosts = ["news.com", "blog.news.com", "a.blog.news.com",
             "sports.news.com", "shop.com", "static.shop.com",
             "other.example"] * 200

    def resolve_all():
        return sum(
            1 for host in hosts
            if rule.options.applies_to(ResourceType.SCRIPT, True, host)
        )

    applied = benchmark(resolve_all)
    # news.com, sports.news.com, shop.com apply; the carved-out
    # subdomains and the unrelated host do not.
    assert applied == 3 * 200


def test_engine_build_from_parsed_lists(benchmark, bench_web):
    lists = [
        parse_filter_list("easylist",
                          build_easylist_text(bench_web.registry)),
        parse_filter_list("easyprivacy",
                          build_easyprivacy_text(bench_web.registry)),
    ]

    engine = benchmark(lambda: CompiledFilterEngine(lists))
    assert engine.would_block(
        "https://securepubads.doubleclick.net/ads/tag.js",
        ResourceType.SCRIPT,
        "https://pub.example/",
    )


# -- matching at real-EasyList scale ----------------------------------------


class _LegacyIndexEngine:
    """Replica of the pre-compiled-index sharding: every rule under its
    longest literal ``[a-z0-9]{3,}`` run regardless of token
    boundaries, first candidate of each polarity wins. This is the
    baseline the >= 10x acceptance bar is measured against (and whose
    boundary-blind tokens caused the false negatives the compiled
    index fixes)."""

    def __init__(self, lists):
        self._by_token = {}
        self._generic = []
        for filter_list in lists:
            for rule in filter_list.rules:
                runs = re.findall(r"[a-z0-9]{3,}", rule.pattern.lower())
                if runs:
                    token = max(runs, key=len)
                    self._by_token.setdefault(token, []).append(rule)
                else:
                    self._generic.append(rule)

    def would_block(self, url, resource_type, first_party_url=None):
        third_party = bool(first_party_url) and is_third_party(
            url, first_party_url
        )
        host = parse_url(first_party_url).host if first_party_url else ""
        matched = exception = False
        for token in set(re.findall(r"[a-z0-9]{3,}", url.lower())):
            for rule in self._by_token.get(token, ()):
                if exception if rule.is_exception else matched:
                    continue
                if rule.options.applies_to(
                    resource_type, third_party, host
                ) and rule.matches_url(url):
                    if rule.is_exception:
                        exception = True
                    else:
                        matched = True
        for rule in self._generic:
            if rule.options.applies_to(
                resource_type, third_party, host
            ) and rule.matches_url(url):
                if rule.is_exception:
                    exception = True
                else:
                    matched = True
        return matched and not exception


def _ns_per_match(engine, corpus, reps):
    """Best-of-``reps`` ns per ``would_block`` over the corpus (one
    untimed pass first warms every lazily compiled rule regex)."""
    for url, resource_type, first_party in corpus:
        engine.would_block(url, resource_type, first_party_url=first_party)
    best = float("inf")
    for _ in range(reps):
        start = perf_counter()
        for url, resource_type, first_party in corpus:
            engine.would_block(
                url, resource_type, first_party_url=first_party
            )
        best = min(best, perf_counter() - start)
    return best / len(corpus) * 1e9


def test_list_scale_matching():
    """The tentpole numbers: compiled vs legacy ns/match at
    calibrated-EasyList scale, with the 50k speedup floor."""
    smoke = BENCH_CONFIG.name == "bench-smoke"
    scales = [10_000, 50_000] if smoke else [10_000, 50_000, 100_000]
    corpus_size, reps = (300, 4) if smoke else (400, 5)

    table = {}
    speedup_50k = None
    for rule_count in scales:
        lists = generate_filter_lists(rule_count, seed=2018)
        corpus = generate_request_corpus(lists, corpus_size, seed=2018)
        compiled = CompiledFilterEngine(lists)
        row = {
            "rules": compiled.rule_count,
            "compiled_match_ns": _ns_per_match(compiled, corpus, reps),
            "legacy_match_ns": _ns_per_match(
                _LegacyIndexEngine(lists), corpus, reps
            ),
        }
        if rule_count == 50_000:
            speedup_50k = row["legacy_match_ns"] / row["compiled_match_ns"]
        table[f"{rule_count // 1000}k"] = row
        print(f"\n{rule_count} rules: " + "  ".join(
            f"{key}={value:,.0f}" for key, value in row.items()
        ))

    assert speedup_50k is not None
    write_bench_json("filters", {
        "preset": BENCH_CONFIG.name,
        "corpus_requests": corpus_size,
        "reps": reps,
        "scales": table,
        "speedup_50k_vs_legacy": round(speedup_50k, 2),
    })
    # The acceptance floor: the compiled index must beat the pre-PR
    # sharding by an order of magnitude at real-EasyList scale.
    assert speedup_50k >= 10.0, f"compiled only {speedup_50k:.1f}x at 50k"
