"""Tests for the filter matching engine."""

from hypothesis import given
from hypothesis import strategies as st

from repro.filters.compiled import CompiledFilterEngine
from repro.filters.parser import parse_filter_list
from repro.net.http import ResourceType

PAGE = "https://news-site.com/"


def _engine(*lines: str) -> CompiledFilterEngine:
    return CompiledFilterEngine([parse_filter_list("t", "\n".join(lines))])


class TestBlocking:
    def test_blocks_matching_third_party(self):
        engine = _engine("||ads.example^$third-party")
        assert engine.would_block(
            "https://cdn.ads.example/tag.js", ResourceType.SCRIPT, PAGE
        )

    def test_first_party_escapes_third_party_rule(self):
        engine = _engine("||news-site.com/ads^$third-party")
        assert not engine.would_block(
            "https://news-site.com/ads/self.js", ResourceType.SCRIPT, PAGE
        )

    def test_type_constraint(self):
        engine = _engine("||t.example^$image")
        assert engine.would_block("https://t.example/px.gif", ResourceType.IMAGE, PAGE)
        assert not engine.would_block("https://t.example/app.js", ResourceType.SCRIPT, PAGE)

    def test_websocket_rule(self):
        engine = _engine("||rt.example^$websocket")
        assert engine.would_block(
            "wss://rt.example/socket", ResourceType.WEBSOCKET, PAGE
        )
        assert not engine.would_block(
            "https://rt.example/app.js", ResourceType.SCRIPT, PAGE
        )

    def test_exception_overrides_block(self):
        engine = _engine("||ads.example^", "@@||ads.example/ok/$script")
        result = engine.match(
            "https://ads.example/ok/loader.js", ResourceType.SCRIPT, PAGE
        )
        assert not result.blocked
        assert result.matched  # a block rule did match
        assert result.exception_rule is not None

    def test_domain_scoped_rule(self):
        engine = _engine("/sponsored/$domain=news-site.com")
        assert engine.would_block(
            "https://cdn.example/sponsored/1.js", ResourceType.SCRIPT, PAGE
        )
        assert not engine.would_block(
            "https://cdn.example/sponsored/1.js", ResourceType.SCRIPT,
            "https://other-site.com/",
        )

    def test_no_match(self):
        engine = _engine("||ads.example^")
        result = engine.match("https://benign.example/app.js",
                              ResourceType.SCRIPT, PAGE)
        assert not result.blocked and not result.matched

    def test_list_name_reported(self):
        engine = CompiledFilterEngine([
            parse_filter_list("easylist", "||ads.example^"),
            parse_filter_list("easyprivacy", "||tracker.example^"),
        ])
        result = engine.match("https://tracker.example/px.gif",
                              ResourceType.IMAGE, PAGE)
        assert result.blocked
        assert result.list_name == "easyprivacy"

    def test_rule_count(self):
        engine = _engine("||a.example^", "||b.example^", "@@||a.example/ok/")
        assert engine.rule_count == 3


class TestTokenIndex:
    def test_generic_rules_always_tried(self):
        # A pattern with no >=3-char literal token lands in the generic
        # bucket and must still match.
        engine = _engine("/a1*b2^$image")
        assert engine.would_block("https://x.example/a1zzb2/", ResourceType.IMAGE, PAGE)

    def test_many_rules_still_correct(self):
        lines = [f"||domain{i}.example^" for i in range(500)]
        engine = _engine(*lines)
        assert engine.would_block(
            "https://sub.domain250.example/x", ResourceType.SCRIPT, PAGE
        )
        assert not engine.would_block(
            "https://unlisted.example/x", ResourceType.SCRIPT, PAGE
        )


@given(st.integers(min_value=0, max_value=499))
def test_index_equivalence_property(i):
    """Token-indexed matching agrees with naive per-rule matching."""
    lines = [f"||site{j}.example^" for j in range(0, 500, 7)]
    engine = _engine(*lines)
    url = f"https://cdn.site{i}.example/asset.js"
    naive = any(
        rule.matches_url(url)
        for flist in engine.lists
        for rule in flist.block_rules
    )
    assert engine.would_block(url, ResourceType.SCRIPT, PAGE) == naive


class TestEngineStats:
    def test_match_accounting(self):
        engine = _engine("||ads.example^", "@@||ads.example/ok/$script")
        engine.would_block("https://ads.example/tag.js",
                           ResourceType.SCRIPT, PAGE)
        engine.would_block("https://ads.example/ok/tag.js",
                           ResourceType.SCRIPT, PAGE)
        engine.would_block("https://benign.example/app.js",
                           ResourceType.SCRIPT, PAGE)
        stats = engine.stats
        assert stats.matches == 3
        assert stats.blocked == 1
        assert stats.exception_overrides == 1

    def test_candidate_accounting_measures_index_selectivity(self):
        lines = [f"||domain{i}.example^" for i in range(50)]
        engine = _engine(*lines)
        engine.would_block("https://domain7.example/x",
                           ResourceType.SCRIPT, PAGE)
        stats = engine.stats
        # The index should offer far fewer than all 50 rules (host
        # rules are offered from the host lane, not token buckets).
        offered = (stats.token_candidates + stats.host_candidates
                   + stats.generic_candidates)
        assert 1 <= offered < 50

    def test_generic_bucket_charged_when_reached(self):
        engine = _engine("/a1*b2^$image")
        engine.would_block("https://x.example/a1zzb2/",
                           ResourceType.IMAGE, PAGE)
        assert engine.stats.generic_candidates >= 1

    def test_as_counts_keys(self):
        engine = _engine("||a.example^")
        counts = engine.stats.as_counts()
        assert set(counts) == {
            "matches", "blocked", "exception_overrides",
            "token_candidates", "generic_candidates", "host_candidates",
        }
        assert all(v == 0 for v in counts.values())
