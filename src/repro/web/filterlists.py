"""Synthetic EasyList / EasyPrivacy for the synthetic web.

Real filter lists are community-maintained against the real web; the
synthetic web needs lists that play the same roles — tagging A&A
resources and driving the blocking analyses — written in genuine ABP
syntax and parsed by the same engine a real list would be.

EasyList carries the ad-blocking rules (exchanges, ad networks);
EasyPrivacy carries the tracker rules (pixels, analytics, session
replay beacons). A handful of ``@@`` exceptions model the lists'
documented whitelisting "to avoid site breakage" (paper footnote 2).

The registry-derived lists above are small (hundreds of rules). The
``generate_filter_list_text`` family below additionally produces
*scale-calibrated* synthetic lists — 10k/50k/100k rules whose shape
mix (host anchors, path patterns, wildcards, ``@@`` exceptions,
``$`` options) approximates the published composition of real
EasyList/EasyPrivacy (the ad-blocking performance study, arxiv
1705.03193, and the longitudinal blacklist analysis, arxiv
1906.00166, both characterize these distributions). They exist to
exercise and benchmark the compiled filter index at real-list scale
with fully deterministic content.
"""

from __future__ import annotations

from typing import Sequence

from repro.filters import (
    SCHEME_RE,
    CompiledFilterEngine,
    FilterList,
    FilterRule,
    parse_filter_list,
)
from repro.net.http import ResourceType
from repro.util.rng import RngStream
from repro.web.registry import CompanyRegistry

_EASYLIST_HEADER = """\
[Adblock Plus 2.0]
! Title: EasyList (synthetic ecosystem build)
! Homepage: https://easylist.to/
! Expires: 4 days
"""

_EASYPRIVACY_HEADER = """\
[Adblock Plus 2.0]
! Title: EasyPrivacy (synthetic ecosystem build)
! Homepage: https://easylist.to/
! Expires: 4 days
"""

# Whitelist entries modeled on EasyList's breakage-avoidance policy.
_EASYLIST_EXCEPTIONS = (
    "@@||google.com/recaptcha/$script,subdocument",
    "@@||disqus.com/embed/comments.js$script",
    "@@||googlesyndication.com/sodar/$script",
)

_EASYPRIVACY_EXCEPTIONS = (
    "@@||twitter.com/widgets/widgets.js$script",
    "@@||facebook.net/en_US/sdk.js$script",
)

# A few generic (non-domain-anchored) patterns, as real lists carry.
_GENERIC_EASYLIST = (
    "/ads/tag.js$script,third-party",
    "/bid/request$xmlhttprequest",
    "/imp/px.gif$image",
)

_GENERIC_EASYPRIVACY = (
    "/sync/match$third-party",
    "/track/hit.gif$image,third-party",
)


def build_easylist_text(registry: CompanyRegistry) -> str:
    """Render the synthetic EasyList file."""
    lines = [_EASYLIST_HEADER]
    lines.append("! --- General advert blocking filters ---")
    lines.extend(_GENERIC_EASYLIST)
    lines.append("! --- Third-party advertising domains ---")
    for company in sorted(registry.companies.values(), key=lambda c: c.domain):
        lines.extend(company.easylist_rules)
    lines.append("! --- Whitelists to fix broken sites ---")
    lines.extend(_EASYLIST_EXCEPTIONS)
    return "\n".join(lines) + "\n"


def build_easyprivacy_text(registry: CompanyRegistry) -> str:
    """Render the synthetic EasyPrivacy file."""
    lines = [_EASYPRIVACY_HEADER]
    lines.append("! --- General tracking filters ---")
    lines.extend(_GENERIC_EASYPRIVACY)
    lines.append("! --- Third-party tracking domains ---")
    for company in sorted(registry.companies.values(), key=lambda c: c.domain):
        lines.extend(company.easyprivacy_rules)
    lines.append("! --- Whitelists to fix broken sites ---")
    lines.extend(_EASYPRIVACY_EXCEPTIONS)
    return "\n".join(lines) + "\n"


def build_filter_lists(registry: CompanyRegistry) -> list[FilterList]:
    """Parse both synthetic lists into engine-ready form."""
    return [
        parse_filter_list("easylist", build_easylist_text(registry)),
        parse_filter_list("easyprivacy", build_easyprivacy_text(registry)),
    ]


def build_filter_engine(registry: CompanyRegistry) -> CompiledFilterEngine:
    """The blocking engine over EasyList + EasyPrivacy."""
    return CompiledFilterEngine(build_filter_lists(registry))


# --------------------------------------------------------------------------
# Scale-calibrated synthetic list generation
# --------------------------------------------------------------------------

#: Named rule-count presets for the scale benchmarks and CLI.
LIST_SCALES: dict[str, int] = {"10k": 10_000, "50k": 50_000, "100k": 100_000}

_SCALED_HEADER = """\
[Adblock Plus 2.0]
! Title: {name} (scale-calibrated synthetic build, {count} rules)
! Homepage: https://easylist.to/
! Expires: 4 days
"""

# Rule shapes and their approximate frequency in real EasyList-family
# lists. Host-anchored rules dominate; a small tail of short-host rules
# (no >=3-char label, e.g. ``||t.co^``) and token-free patterns keeps
# the generic/trie lanes honest at every scale.
_RULE_SHAPES: tuple[str, ...] = (
    "host_sep",      # ||domain^
    "host_path",     # ||domain^/path/word.js
    "host_bare",     # ||domain
    "path",          # /word/word.gif
    "substring",     # -word-word. and friends
    "wildcard",      # /word/word*word
    "short_host",    # ||ab.cd^
    "anchored",      # |https://domain/word|
    "no_token",      # /a1*  (token-free: generic in every engine)
)
_SHAPE_WEIGHTS: tuple[float, ...] = (
    0.355, 0.12, 0.05, 0.21, 0.13, 0.05, 0.015, 0.01, 0.0005,
)

_TLDS = ("com", "net", "org", "io", "co", "info", "biz", "de")
_PATH_SUFFIXES = (".js", ".gif", ".png", ".html", "/", "")
_SEPARATOR_GLUE = ("-", "_", ".")
_OPTION_TYPES = (
    "script", "image", "xmlhttprequest", "subdocument",
    "stylesheet", "media", "ping", "websocket",
)
_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _make_words(rng: RngStream, count: int) -> list[str]:
    """A deterministic vocabulary of distinct lowercase words."""
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < count:
        length = rng.randint(3, 9)
        word = "".join(rng.choice(_LETTERS) for _ in range(length))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


class _ListShaper:
    """Draws EasyList-shaped rule lines from shared vocabularies.

    Words and domains are sampled Zipf-style so popular tokens recur
    across many rules, reproducing the hot-bucket skew that makes
    naive longest-token indexes slow on real lists.
    """

    def __init__(self, rng: RngStream, rule_count: int) -> None:
        self._rng = rng
        vocab_size = max(400, min(4000, rule_count // 12))
        domain_count = max(150, rule_count // 5)
        word_rng = rng.child("vocab")
        self._words = _make_words(word_rng, vocab_size)
        self._domains = [
            f"{self._words[word_rng.zipf_index(vocab_size, 0.8)]}"
            f"{word_rng.randint(0, 99)}.{word_rng.choice(_TLDS)}"
            for _ in range(domain_count)
        ]

    def word(self, rng: RngStream) -> str:
        return self._words[rng.zipf_index(len(self._words), 1.0)]

    def domain(self, rng: RngStream) -> str:
        return self._domains[rng.zipf_index(len(self._domains), 0.9)]

    def _options(self, rng: RngStream, shape: str) -> str:
        parts: list[str] = []
        if rng.bernoulli(0.45):
            parts.append("third-party")
        if rng.bernoulli(0.55):
            parts.extend(
                rng.sample(_OPTION_TYPES, rng.randint(1, 2))
            )
        if rng.bernoulli(0.08):
            included = self.domain(rng)
            if rng.bernoulli(0.3):
                parts.append(f"domain={included}|~sub.{included}")
            else:
                parts.append(f"domain={included}")
        if rng.bernoulli(0.01) and shape not in ("short_host", "no_token"):
            parts.append("match-case")
        return ",".join(parts)

    def rule_line(self, index: int) -> str:
        rng = self._rng.child("rule", index)
        shape = rng.weighted_choice(_RULE_SHAPES, _SHAPE_WEIGHTS)
        body = self._body(rng, shape)
        if rng.bernoulli(0.035):
            body = "@@" + body
            options = self._options(rng, shape)
            if not options and rng.bernoulli(0.8):
                options = rng.choice(_OPTION_TYPES)
        elif rng.bernoulli(0.30):
            options = self._options(rng, shape)
        else:
            options = ""
        return f"{body}${options}" if options else body

    def _body(self, rng: RngStream, shape: str) -> str:
        word, domain = self.word(rng), self.domain(rng)
        if shape == "host_sep":
            return f"||{domain}^"
        if shape == "host_path":
            return f"||{domain}^{word}/{self.word(rng)}{rng.choice(_PATH_SUFFIXES)}"
        if shape == "host_bare":
            return f"||{domain}"
        if shape == "path":
            return f"/{word}/{self.word(rng)}{rng.choice(_PATH_SUFFIXES)}"
        if shape == "substring":
            glue = rng.choice(_SEPARATOR_GLUE)
            return f"{glue}{word}{glue}{self.word(rng)}."
        if shape == "wildcard":
            # One breaker-bounded (reliable) token plus a wildcard tail:
            # the exact shape the old longest-token index mis-sharded.
            return f"/{word}/{self.word(rng)}*{self.word(rng)}"
        if shape == "short_host":
            label = "".join(rng.choice(_LETTERS) for _ in range(2))
            return f"||{label}.{rng.choice(_TLDS[:4])}^"
        if shape == "anchored":
            return f"|https://{domain}/{word}|"
        # no_token: every literal run is under 3 chars.
        return f"/{rng.choice(_LETTERS)}{rng.randint(0, 9)}*"


def generate_filter_list_text(
    rule_count: int, *, seed: int = 2018, name: str = "easylist-scaled"
) -> str:
    """Render a deterministic EasyList-shaped list at the given scale."""
    shaper = _ListShaper(RngStream(seed, "filterlists", name), rule_count)
    lines = [_SCALED_HEADER.format(name=name, count=rule_count)]
    lines.extend(shaper.rule_line(i) for i in range(rule_count))
    return "\n".join(lines) + "\n"


def generate_filter_lists(
    rule_count: int, *, seed: int = 2018, name: str = "easylist-scaled"
) -> list[FilterList]:
    """Parse a generated scaled list into engine-ready form."""
    text = generate_filter_list_text(rule_count, seed=seed, name=name)
    return [parse_filter_list(name, text, strict=True)]


def generate_request_corpus(
    lists: Sequence[FilterList],
    count: int,
    *,
    seed: int = 2018,
) -> list[tuple[str, ResourceType, str]]:
    """Deterministic (url, resource_type, first_party_url) requests.

    Roughly 45% of URLs are derived from a sampled rule's own pattern
    (wildcards filled, separators concretized, host context added), so
    the corpus actually exercises hits, exceptions, and the pre-filter
    paths rather than being all misses.
    """
    rng = RngStream(seed, "filterlists", "corpus", count)
    rules = [rule for fl in lists for rule in fl.rules]
    shaper = _ListShaper(rng.child("background"), max(len(rules), 1000))
    types = list(ResourceType)
    corpus: list[tuple[str, ResourceType, str]] = []
    for i in range(count):
        draw = rng.child("request", i)
        if rules and draw.bernoulli(0.45):
            url = _url_from_rule(draw, shaper, draw.choice(rules))
        else:
            url = (
                f"https://{shaper.domain(draw)}/{shaper.word(draw)}"
                f"/{shaper.word(draw)}{draw.choice(_PATH_SUFFIXES)}"
            )
        first_party = f"https://{shaper.domain(draw)}/"
        corpus.append((url, draw.choice(types), first_party))
    return corpus


def _url_from_rule(
    rng: RngStream, shaper: _ListShaper, rule: FilterRule
) -> str:
    """A URL the rule's pattern plausibly matches, built textually."""
    body = rule.pattern
    hosty = body.startswith("||")
    body = body.removeprefix("||").removeprefix("|").removesuffix("|")
    body = body.replace("*", shaper.word(rng)).replace("^", "/")
    if SCHEME_RE.match(body.lower()):
        return body
    if hosty:
        prefix = "sub." if rng.bernoulli(0.3) else ""
        return f"https://{prefix}{body}" if "/" in body else (
            f"https://{prefix}{body}/{shaper.word(rng)}"
        )
    if not body.startswith("/"):
        body = f"/{shaper.word(rng)}{body}{shaper.word(rng)}"
    return f"https://{shaper.domain(rng)}{body}"
