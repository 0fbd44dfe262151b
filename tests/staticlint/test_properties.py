"""Property tests: the analyzer's removal-safety claims hold on the engine.

A rule the analyzer reports as *shadowed* (or *dead*) is one whose
removal changes no decision. Because every judgement is grounded in the
finite probe universe, the claim is directly checkable: rebuild the
engine without the rule and re-match every probe.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filters.compiled import CompiledFilterEngine
from repro.filters.parser import parse_filter_list
from repro.staticlint.filterlint import analyze_filter_lists
from repro.staticlint.probes import UrlUniverse

_HOSTS = ("ads.example", "track.example", "cdn.example")
_PATHS = ("", "/banner", "/collect", "/pixel.gif", "/lib.js")
_OPTIONS = ("", "$script", "$image", "$third-party", "$websocket",
            "$script,third-party", "$domain=site.example")


@st.composite
def filter_lines(draw):
    host = draw(st.sampled_from(_HOSTS))
    path = draw(st.sampled_from(_PATHS))
    option = draw(st.sampled_from(_OPTIONS))
    anchor = draw(st.sampled_from(("||", "")))
    if anchor:
        pattern = f"||{host}{path}^" if path else f"||{host}^"
    else:
        pattern = path or "/banner"
    exception = draw(st.booleans())
    return ("@@" if exception else "") + pattern + option


@st.composite
def rule_sets(draw):
    lines = draw(st.lists(filter_lines(), min_size=1, max_size=8))
    return parse_filter_list("prop", "\n".join(lines))


def _decisions(lists, universe: UrlUniverse) -> list[bool]:
    engine = CompiledFilterEngine(lists)
    return [
        engine.would_block(
            probe.url, probe.resource_type, probe.first_party_url
        )
        for probe in universe.probes
    ]


def _without(filter_list, removed):
    text = "\n".join(
        rule.raw for rule in filter_list.rules if rule is not removed
    )
    return parse_filter_list(filter_list.name, text)


@given(rule_sets())
@settings(max_examples=60, deadline=None)
def test_removing_a_shadowed_rule_changes_no_decision(filter_list):
    universe = UrlUniverse.from_rules([filter_list])
    analysis = analyze_filter_lists([filter_list], universe=universe)
    baseline = _decisions([filter_list], universe)
    for rule in analysis.shadowed:
        reduced = _without(filter_list, rule)
        assert _decisions([reduced], universe) == baseline, (
            f"removing shadowed rule {rule.raw!r} changed a decision"
        )


@given(rule_sets())
@settings(max_examples=60, deadline=None)
def test_removing_a_dead_rule_changes_no_decision(filter_list):
    universe = UrlUniverse.from_rules([filter_list])
    analysis = analyze_filter_lists([filter_list], universe=universe)
    baseline = _decisions([filter_list], universe)
    for rule in analysis.dead:
        reduced = _without(filter_list, rule)
        assert _decisions([reduced], universe) == baseline, (
            f"removing dead rule {rule.raw!r} changed a decision"
        )


@given(rule_sets())
@settings(max_examples=60, deadline=None)
def test_analyzer_blocked_agrees_with_engine(filter_list):
    """The analyzer's per-probe decision is the engine's decision."""
    universe = UrlUniverse.from_rules([filter_list])
    analysis = analyze_filter_lists([filter_list], universe=universe)
    assert analysis.blocked == _decisions([filter_list], universe)
