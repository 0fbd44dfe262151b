"""Fuzz/property tests for the filter stack."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filters.compiled import CompiledFilterEngine
from repro.filters.parser import parse_filter_line, parse_filter_list
from repro.net.http import ResourceType

_RULE_CHARS = st.text(
    alphabet="abcdefghijklmnop./*^|$@!#~=,-_0123456789 ", max_size=60
)


@given(_RULE_CHARS)
@settings(max_examples=300)
def test_parse_filter_line_never_crashes(line):
    rule = parse_filter_line(line)
    if rule is not None:
        # Any parsed rule must compile and be matchable.
        rule.matches_url("https://example.com/some/path?q=1")
        rule.index_tokens()


@given(st.lists(_RULE_CHARS, max_size=20))
@settings(max_examples=50)
def test_engine_from_fuzzed_list_never_crashes(lines):
    parsed = parse_filter_list("fuzz", "\n".join(lines))
    engine = CompiledFilterEngine([parsed])
    engine.match("https://example.com/x?y=1", ResourceType.SCRIPT,
                 "https://pub.example/")
    engine.match("wss://example.com/socket", ResourceType.WEBSOCKET,
                 "https://pub.example/")


@given(
    st.from_regex(r"[a-z]{3,10}\.(com|net|io)", fullmatch=True),
    st.from_regex(r"(/[a-z0-9]{1,8}){1,3}", fullmatch=True),
)
@settings(max_examples=100)
def test_domain_anchor_invariant(domain, path):
    """``||domain^`` blocks every URL on the domain and its subdomains,
    and nothing on unrelated domains."""
    engine = CompiledFilterEngine([parse_filter_list("t", f"||{domain}^")])
    page = "https://unrelated-party.example/"
    assert engine.would_block(f"https://{domain}{path}",
                              ResourceType.SCRIPT, page)
    assert engine.would_block(f"https://sub.{domain}{path}",
                              ResourceType.IMAGE, page)
    assert not engine.would_block(f"https://other-{domain}{path}",
                                  ResourceType.SCRIPT, page)


@given(st.from_regex(r"[a-z]{3,10}\.(com|net)", fullmatch=True))
@settings(max_examples=100)
def test_exception_always_wins(domain):
    text = f"||{domain}^\n@@||{domain}/allowed/"
    engine = CompiledFilterEngine([parse_filter_list("t", text)])
    page = "https://pub.example/"
    assert engine.would_block(f"https://{domain}/x", ResourceType.SCRIPT, page)
    assert not engine.would_block(f"https://{domain}/allowed/x",
                                  ResourceType.SCRIPT, page)
