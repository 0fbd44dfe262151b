"""The engine ≡ specification contract, property-tested.

``linear_match`` (brute force) is the executable specification;
:class:`CompiledFilterEngine` (compiled index: least-loaded tokens,
host trie lane, bit-mask pre-filters) must return the same verdict AND
the same decisive rules for every request. This suite pins that with
hypothesis over structured rule grammars and URL corpora, with the
shrunk seeds of the PR-9 token-index false-negative bug as explicit
regressions, and audits that the *old* longest-any-token scheme really
did miss them.
"""

import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filters.compiled import CompiledFilterEngine
from repro.filters.engine import linear_match
from repro.filters.parser import parse_filter_list
from repro.net.http import ResourceType
from repro.web.filterlists import generate_filter_lists, generate_request_corpus

PAGE = "https://pub.example/"


def _lists(*lines):
    return [parse_filter_list("t", "\n".join(lines))]


def _assert_agree(lists, url, rtype, page):
    result = CompiledFilterEngine(lists).match(url, rtype, page)
    linear = linear_match(lists, url, rtype, page)
    assert result.blocked == linear.blocked, (url, rtype, page)
    # Decisive-rule identity: same FilterRule *instances*, since both
    # matchers consume the same parsed lists.
    assert result.rule is linear.rule, (url, rtype, page)
    assert result.exception_rule is linear.exception_rule, (
        url, rtype, page,
    )
    if linear.rule is not None or linear.exception_rule is not None:
        assert result.list_name == linear.list_name
    return linear


# ---------------------------------------------------------------------------
# Explicit regression seeds (shrunk from the token-index bug)
# ---------------------------------------------------------------------------

class TestTokenBugRegressions:
    def test_wildcard_extends_token_run(self):
        """The canonical PR-9 bug: ``/ads*banner`` must block a URL
        whose token run *extends* the pattern's literal ``banner``."""
        lists = _lists("/ads*banner")
        linear = _assert_agree(
            lists, "https://x.example/adsbanner123", ResourceType.SCRIPT, PAGE
        )
        assert linear.blocked

    def test_old_longest_token_scheme_missed_it(self):
        """Audit: the pre-fix scheme indexed ``/ads*banner`` under its
        longest literal run (``banner``), a token the matching URL's
        token set does not contain — the bucket was never offered."""
        rule_runs = re.findall(r"[a-z0-9]{3,}", "/ads*banner")
        old_index_token = max(rule_runs, key=len)
        url_tokens = re.findall(
            r"[a-z0-9]{3,}", "https://x.example/adsbanner123"
        )
        assert old_index_token == "banner"
        assert old_index_token not in url_tokens
        # ...even though the rule genuinely matches:
        assert linear_match(
            _lists("/ads*banner"),
            "https://x.example/adsbanner123",
            ResourceType.SCRIPT,
            PAGE,
        ).blocked

    def test_separator_bounded_tokens_stay_indexed(self):
        """Breaker-bounded runs are reliable — the fix must not dump
        every rule into the generic bucket."""
        lists = _lists("/banner/ads.gif")
        engine = CompiledFilterEngine(lists)
        assert engine._blocks._generic == {}
        linear = _assert_agree(
            lists, "https://x.example/banner/ads.gif",
            ResourceType.IMAGE, PAGE,
        )
        assert linear.blocked

    def test_edge_token_unanchored_is_unreliable(self):
        lists = _lists("banner.gif")
        linear = _assert_agree(
            lists, "https://x.example/megabanner.gif",
            ResourceType.IMAGE, PAGE,
        )
        assert linear.blocked

    def test_anchored_edge_token_is_reliable(self):
        lists = _lists("||banner.example^ads")
        linear = _assert_agree(
            lists, "https://banner.example/adstuff",
            ResourceType.SCRIPT, PAGE,
        )
        assert linear.blocked


class TestHostLaneSeeds:
    def test_short_host_rule_blocks_subdomains(self):
        lists = _lists("||ab.io^")
        for url, expect in [
            ("https://ab.io/x", True),
            ("https://sub.ab.io/x", True),
            ("https://xab.io/x", False),
            ("https://ab.iox/x", False),
        ]:
            linear = _assert_agree(lists, url, ResourceType.SCRIPT, PAGE)
            assert linear.blocked is expect, url

    def test_bare_short_host_prefix_semantics(self):
        lists = _lists("||ab.io")
        linear = _assert_agree(
            lists, "https://ab.iolite.example/x", ResourceType.SCRIPT, PAGE
        )
        assert linear.blocked  # ``||host`` without ^ is a prefix match

    def test_userinfo_url_not_fooled(self):
        """The trie lane must mirror the raw-string regex semantics,
        including for userinfo-bearing URLs."""
        lists = _lists("||ads.example^")
        _assert_agree(
            lists, "https://ads.example@evil.example/x",
            ResourceType.SCRIPT, PAGE,
        )

    def test_uppercase_scheme_and_host(self):
        lists = _lists("||doubleclick.net^")
        linear = _assert_agree(
            lists, "HTTP://DoubleClick.NET/ad", ResourceType.SCRIPT, PAGE
        )
        assert linear.blocked


class TestMatchCaseSeeds:
    def test_match_case_pattern_is_case_sensitive(self):
        lists = _lists("banner$match-case")
        assert not _assert_agree(
            lists, "https://x.example/BANNER", ResourceType.SCRIPT, PAGE
        ).blocked
        assert _assert_agree(
            lists, "https://x.example/banner", ResourceType.SCRIPT, PAGE
        ).blocked

    def test_match_case_scheme_host_stay_insensitive(self):
        lists = _lists("||ads.example/banner$match-case")
        linear = _assert_agree(
            lists, "HTTPS://ADS.EXAMPLE/banner", ResourceType.SCRIPT, PAGE
        )
        assert linear.blocked


# ---------------------------------------------------------------------------
# Hypothesis: structured rule grammar × URL corpus
# ---------------------------------------------------------------------------

_word = st.from_regex(r"[a-z0-9]{1,8}", fullmatch=True)
_label = st.from_regex(r"[a-z]{1,6}", fullmatch=True)
_domain = st.builds(
    lambda a, b, tld: f"{a}.{tld}" if not b else f"{a}.{b}.{tld}",
    _label, st.one_of(st.none(), _label), st.sampled_from(["com", "io", "net"]),
)

_body = st.one_of(
    st.builds(lambda d: f"||{d}^", _domain),
    st.builds(lambda d: f"||{d}", _domain),
    st.builds(lambda d, w, x: f"||{d}^{w}/{x}", _domain, _word, _word),
    st.builds(lambda w, x: f"/{w}/{x}", _word, _word),
    st.builds(lambda w, x: f"{w}*{x}", _word, _word),
    st.builds(lambda w, x: f"/{w}*{x}^", _word, _word),
    st.builds(lambda w, x: f"-{w}-{x}.", _word, _word),
    st.builds(lambda d, w: f"|https://{d}/{w}|", _domain, _word),
    st.builds(lambda d, w: f"|https://{d}/{w}", _domain, _word),
    st.builds(lambda w: f"^{w}^", _word),
)

_option = st.one_of(
    st.just("third-party"),
    st.just("~third-party"),
    st.sampled_from(["script", "image", "websocket", "xmlhttprequest"]),
    st.just("match-case"),
    st.builds(lambda d: f"domain={d}", _domain),
    st.builds(lambda d, e: f"domain={d}|~{e}", _domain, _domain),
)

_rule_line = st.builds(
    lambda exc, body, opts: (
        ("@@" if exc else "")
        + body
        + (f"${','.join(opts)}" if opts else "")
    ),
    st.booleans(),
    _body,
    st.lists(_option, max_size=2),
)

_url = st.builds(
    lambda scheme, host, path, upper: (
        f"{scheme}://{host}{path}".upper() if upper
        else f"{scheme}://{host}{path}"
    ),
    st.sampled_from(["http", "https", "ws", "wss"]),
    _domain,
    st.from_regex(r"(/[a-z0-9]{0,8}){0,3}(\?[a-z0-9=&]{0,8})?", fullmatch=True),
    st.booleans(),
)

_page = st.builds(lambda d: f"https://{d}/", _domain)
_rtype = st.sampled_from(list(ResourceType))


@given(
    st.lists(_rule_line, min_size=1, max_size=12),
    st.lists(st.tuples(_url, _rtype, _page), min_size=1, max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_compiled_linear_agree(lines, requests):
    lists = _lists(*lines)
    comp = CompiledFilterEngine(lists)
    for url, rtype, page in requests:
        result = comp.match(url, rtype, page)
        c = linear_match(lists, url, rtype, page)
        assert result.blocked == c.blocked, (lines, url, rtype, page)
        assert result.rule is c.rule, (lines, url, rtype, page)
        assert result.exception_rule is c.exception_rule, (
            lines, url, rtype, page,
        )


@given(
    st.lists(_rule_line, min_size=1, max_size=8),
    _url,
    _rtype,
    _page,
)
@settings(max_examples=150, deadline=None)
def test_list_order_is_decisive(lines, url, rtype, page):
    """Splitting one list into many must not change the decisive rule:
    global order is file order across lists."""
    one = [parse_filter_list("all", "\n".join(lines))]
    many = [
        parse_filter_list(f"part{i}", line) for i, line in enumerate(lines)
    ]
    a = CompiledFilterEngine(one).match(url, rtype, page)
    b = CompiledFilterEngine(many).match(url, rtype, page)
    assert a.blocked == b.blocked
    assert (a.rule.raw if a.rule else None) == (b.rule.raw if b.rule else None)
    assert (a.exception_rule.raw if a.exception_rule else None) == (
        b.exception_rule.raw if b.exception_rule else None
    )


# ---------------------------------------------------------------------------
# Oversized token buckets: (primary, secondary) and prefix-key re-sharding
# ---------------------------------------------------------------------------

# Second-run shapes after a ``head`` that carries the shared token
# (``/tok`` or ``|https://x.io``). Only the shared token is reliable in
# the first three, so those rules all land in its bucket; ``run`` is
# half-bounded in "end" and "before_star" (a prefix key), bounded on
# neither side in "after_star" (no key), and reliable in "bounded".
_SECOND_RUN_SHAPES = {
    "end": lambda head, run, tail: f"{head}/{run}",
    "before_star": lambda head, run, tail: f"{head}/{run}*{tail}",
    "after_star": lambda head, run, tail: f"{head}/*{run}",
    "bounded": lambda head, run, tail: f"{head}/{run}/",
}
_SHARED_TOKEN_SHAPES = ("end", "before_star", "after_star")
_OVERSIZED_OPTIONS = (
    "", "match-case", "domain=pub.example", "domain=~pub.example",
    "script", "third-party",
)
_OVERSIZED_PAGES = ("https://pub.example/", "https://x.io/")


@st.composite
def _oversized_case(draw):
    """25–40 same-polarity rules whose one reliable token is shared —
    a path token, or the ``https`` of a ``|https://x.io`` anchor — then
    0–8 more of any shape and polarity, and requests built from the
    same runs. A catch-all block rule closes the list, so exceptions
    are decisive whenever the shared-token rules are ``@@`` rules."""
    anchored = draw(st.booleans())
    token = "https" if anchored else draw(
        st.from_regex(r"[a-z]{3,6}", fullmatch=True)
    )
    heads = ("|https://x.io", f"/{token}")
    head = heads[0] if anchored else heads[1]
    # Runs share first chars with each other and, at times, with the
    # shared token itself (``/tok/tok`` keys its run under ``<tok``).
    firsts = draw(st.lists(st.from_regex(r"[a-z]{3}", fullmatch=True),
                           min_size=1, max_size=2, unique=True))
    if draw(st.booleans()):
        firsts.append(token[:3])
    runs = draw(st.lists(
        st.builds(str.__add__, st.sampled_from(firsts),
                  st.from_regex(r"[a-z0-9]{0,3}", fullmatch=True)),
        min_size=2, max_size=6, unique=True,
    ))
    main_exception = draw(st.booleans())

    def rule_line(head, shapes, exception):
        body = _SECOND_RUN_SHAPES[draw(st.sampled_from(shapes))](
            head, draw(st.sampled_from(runs)), draw(st.sampled_from(runs))
        )
        option = draw(st.sampled_from(_OVERSIZED_OPTIONS))
        return ("@@" if exception else "") + body + (
            f"${option}" if option else ""
        )

    lines = [
        rule_line(head, _SHARED_TOKEN_SHAPES, main_exception)
        for _ in range(draw(st.integers(25, 40)))
    ]
    lines += [
        rule_line(draw(st.sampled_from(heads)),
                  tuple(_SECOND_RUN_SHAPES), draw(st.booleans()))
        for _ in range(draw(st.integers(0, 8)))
    ]
    lines.append(f"{head}/")

    def url_run():
        run = draw(st.sampled_from(runs))
        variant = draw(st.sampled_from(("exact", "extended", "head", "upper")))
        if variant == "extended":
            return run + "xyz"
        if variant == "head":
            return run[:3] + "qq"  # shares only the first three chars
        return run.upper() if variant == "upper" else run

    base = "https://x.io" if anchored else f"https://x.io/{token}"
    requests = []
    for _ in range(draw(st.integers(4, 8))):
        url = (
            f"{base}/{draw(st.sampled_from(['', 'zz']))}{url_run()}"
            f"{draw(st.sampled_from(['', '/', '-']))}"
            f"{url_run() if draw(st.booleans()) else ''}"
        )
        requests.append((
            url.upper() if draw(st.booleans()) else url,
            draw(st.sampled_from([ResourceType.SCRIPT, ResourceType.IMAGE])),
            draw(st.sampled_from(_OVERSIZED_PAGES)),
        ))
    return token, main_exception, lines, requests


@given(_oversized_case())
@settings(max_examples=150, deadline=None)
def test_oversized_bucket_agrees(case):
    """A token bucket past the pair-shard threshold must keep the
    verdicts and decisive rules of ``linear_match``: prefix keys may
    only narrow what is offered to URLs no moved rule can match."""
    token, main_exception, lines, requests = case
    lists = _lists(*lines)
    comp = CompiledFilterEngine(lists)
    index = comp._exceptions if main_exception else comp._blocks
    assert token in index._pairs, lines  # the bucket was re-sharded
    for url, rtype, page in requests:
        result = comp.match(url, rtype, page)
        c = linear_match(lists, url, rtype, page)
        assert result.blocked == c.blocked, (lines, url, rtype, page)
        assert result.rule is c.rule, (lines, url, rtype, page)
        assert result.exception_rule is c.exception_rule, (
            lines, url, rtype, page,
        )


# ---------------------------------------------------------------------------
# Generated-list equivalence + legacy-delta audit + pickling
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def generated_10k():
    lists = generate_filter_lists(10_000, seed=2018)
    corpus = generate_request_corpus(lists, 250, seed=2018)
    return lists, corpus


class _LegacyEngine:
    """Replica of the pre-PR-9 index: every rule sharded under its
    longest literal ``[a-z0-9]{3,}`` run regardless of boundaries,
    first candidate wins. Kept only to *demonstrate* the false
    negatives the boundary-aware index fixes."""

    def __init__(self, lists):
        self._lists = lists
        self._by_token = {}
        self._generic = []
        for fl in lists:
            for rule in fl.rules:
                runs = re.findall(r"[a-z0-9]{3,}", rule.pattern.lower())
                if runs:
                    token = max(runs, key=len)
                    self._by_token.setdefault(token, []).append(rule)
                else:
                    self._generic.append(rule)

    def _candidates(self, url):
        for token in set(re.findall(r"[a-z0-9]{3,}", url.lower())):
            yield from self._by_token.get(token, ())
        yield from self._generic

    def match_verdicts(self, url, rtype, page, third_party, page_host):
        matched = exception = False
        for rule in self._candidates(url):
            which = rule.is_exception
            if (exception if which else matched):
                continue
            if rule.options.applies_to(
                rtype, third_party, page_host
            ) and rule.matches_url(url):
                if which:
                    exception = True
                else:
                    matched = True
        return matched, matched and not exception


def test_generated_10k_list_equivalence(generated_10k):
    lists, corpus = generated_10k
    comp = CompiledFilterEngine(lists)
    blocked = 0
    for url, rtype, page in corpus:
        b = comp.match(url, rtype, page)
        c = linear_match(lists, url, rtype, page)
        assert (b.blocked, b.rule, b.exception_rule) == (
            c.blocked, c.rule, c.exception_rule,
        ), (url, rtype, page)
        blocked += c.blocked
    # The corpus must actually exercise the engine, not be all misses.
    assert blocked >= 25


def test_generated_10k_token_candidates_per_match(generated_10k):
    """Re-sharded hot buckets must keep the token lane narrow: about 6
    offered token candidates per match with prefix keys, 17.8 when
    single-token rules stayed in the residual buckets."""
    lists, corpus = generated_10k
    comp = CompiledFilterEngine(lists)
    for url, rtype, page in corpus:
        comp.match(url, rtype, page)
    assert comp.stats.token_candidates / comp.stats.matches <= 8


def test_artifact_delta_is_exactly_old_false_negatives(generated_10k):
    """Every verdict that changed vs the pre-fix engine is a request the
    old token index wrongly failed to match — the fix only *adds*
    matches the linear-scan spec always demanded, never removes or
    alters correct ones. (This is the acceptance argument for the
    study-artifact delta: artifacts consume only these verdicts.)"""
    from repro.net.domains import is_third_party
    from repro.util.urls import parse_url

    lists, corpus = generated_10k
    comp = CompiledFilterEngine(lists)
    legacy = _LegacyEngine(lists)
    differences = 0
    for url, rtype, page in corpus:
        new = comp.match(url, rtype, page)
        third_party = is_third_party(url, page)
        old_matched, old_blocked = legacy.match_verdicts(
            url, rtype, page, third_party, parse_url(page).host
        )
        if (new.matched, new.blocked) == (old_matched, old_blocked):
            continue
        differences += 1
        # Any difference must be a strict old-miss: the new engine
        # matched where the old one silently didn't.
        assert new.matched and not old_matched, (url, rtype, page)
        # ...and the spec agrees with the new engine, not the old one.
        spec = linear_match(lists, url, rtype, page)
        assert spec.matched and spec.blocked == new.blocked
    # The corpus is known to contain wildcard-shape old-misses; if this
    # ever drops to zero the audit has gone vacuous — regenerate it.
    assert differences >= 1


def test_compiled_engine_pickles(generated_10k):
    lists, corpus = generated_10k
    comp = CompiledFilterEngine(lists)
    clone = pickle.loads(pickle.dumps(comp))
    assert clone.rule_count == comp.rule_count
    for url, rtype, page in corpus[:50]:
        a = comp.match(url, rtype, page)
        b = clone.match(url, rtype, page)
        assert a.blocked == b.blocked
        assert (a.rule.raw if a.rule else None) == (
            b.rule.raw if b.rule else None
        )
    # The clone's stats are independent of the original's.
    assert clone.stats.matches == 50
