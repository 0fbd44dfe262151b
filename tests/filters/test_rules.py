"""Tests for rule pattern semantics."""

import re

from repro.filters.parser import parse_filter_line
from repro.filters.rules import pattern_to_regex


def _matches(pattern: str, url: str) -> bool:
    return re.search(pattern_to_regex(pattern), url, re.IGNORECASE) is not None


class TestPatternSemantics:
    def test_domain_anchor_matches_subdomains(self):
        assert _matches("||doubleclick.net^", "https://x.doubleclick.net/a")
        assert _matches("||doubleclick.net^", "https://doubleclick.net/a")

    def test_domain_anchor_rejects_superstrings(self):
        # ||ads.com must not match notads.com (host-label boundary).
        assert not _matches("||ads.com^", "https://notads.com/a")

    def test_domain_anchor_matches_ws_scheme(self):
        assert _matches("||tracker.io^", "wss://api.tracker.io/ws")

    def test_separator_matches_slash_and_end(self):
        assert _matches("||t.com^", "https://t.com/path")
        assert _matches("||t.com^", "https://t.com")
        assert not _matches("||t.co^", "https://t.com")  # m is alnum, not a separator

    def test_wildcard(self):
        assert _matches("/banner/*/ad", "https://x.com/banner/300x250/ad")

    def test_start_anchor(self):
        assert _matches("|https://exact", "https://exact.com/x")
        assert not _matches("|https://exact", "http://other/https://exact")

    def test_end_anchor(self):
        assert _matches("swf|", "https://x.com/movie.swf")
        assert not _matches("swf|", "https://x.com/movie.swf?x=1")

    def test_plain_substring(self):
        assert _matches("/ads/", "https://x.com/ads/banner.png")


class TestAnchorDomain:
    def test_extracts_registrable_domain(self):
        rule = parse_filter_line("||x.doubleclick.net/path^")
        assert rule.anchor_domain() == "doubleclick.net"

    def test_non_anchored_rule_has_none(self):
        assert parse_filter_line("/banner/").anchor_domain() is None


class TestIndexTokens:
    def test_tokens_from_literal_spans(self):
        rule = parse_filter_line("||doubleclick.net/ads^")
        tokens = rule.index_tokens()
        assert "doubleclick" in tokens
        assert "ads" in tokens

    def test_wildcards_break_tokens(self):
        rule = parse_filter_line("/ba*nner/")
        tokens = rule.index_tokens()
        assert "banner" not in tokens
        # "nner" abuts the wildcard on its left, so a matching URL may
        # extend it ("/bazoonner/" tokenizes to "bazoonner") — it is NOT
        # a reliable index token. Same for "ba". No reliable tokens at
        # all: the rule must go to the generic bucket.
        assert tokens == []

    def test_short_chunks_skipped(self):
        rule = parse_filter_line("/ad^")
        assert rule.index_tokens() == []  # "ad" is under 3 chars

    def test_token_details_report_each_edge(self):
        # (token, left bounded, right bounded): "ziqnqhgpj" is
        # half-bounded, "oafcqrj" touches "*" and the unanchored end.
        rule = parse_filter_line("/jtn/ziqnqhgpj*oafcqrj")
        assert rule.token_details() == [
            ("jtn", True, True),
            ("ziqnqhgpj", True, False),
            ("oafcqrj", False, False),
        ]
        assert rule.index_tokens() == ["jtn"]
        assert parse_filter_line("|abc^def|").token_details() == [
            ("abc", True, True), ("def", True, True),
        ]
        assert parse_filter_line("abc^*def").token_details() == [
            ("abc", False, True), ("def", False, False),
        ]


class TestRegexCompilation:
    def test_case_insensitive_by_default(self):
        rule = parse_filter_line("/Banner/")
        assert rule.matches_url("https://x.com/BANNER/1.png")

    def test_match_case(self):
        rule = parse_filter_line("/Banner/$match-case")
        assert rule.matches_url("https://x.com/Banner/1.png")
        assert not rule.matches_url("https://x.com/banner/1.png")
