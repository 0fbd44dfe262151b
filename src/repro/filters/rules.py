"""Filter rule data model.

A parsed rule carries its activation options (resource types, party
constraint, domain constraints) and a compiled regular expression for the
URL pattern. Compilation happens lazily so list parsing stays fast even
for rules that never get near the hot path.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Iterable

from repro.net.domains import registrable_domain
from repro.net.http import ResourceType

# Option keywords that select resource types, mapped onto our enum.
TYPE_OPTION_NAMES: dict[str, ResourceType] = {
    "script": ResourceType.SCRIPT,
    "image": ResourceType.IMAGE,
    "stylesheet": ResourceType.STYLESHEET,
    "xmlhttprequest": ResourceType.XHR,
    "websocket": ResourceType.WEBSOCKET,
    "font": ResourceType.FONT,
    "media": ResourceType.MEDIA,
    "ping": ResourceType.PING,
    "subdocument": ResourceType.SUB_FRAME,
    "document": ResourceType.MAIN_FRAME,
    "other": ResourceType.OTHER,
}

ALL_TYPES: frozenset[ResourceType] = frozenset(ResourceType)

# Types implied by a rule with no type options, per ABP semantics:
# everything except main_frame documents (those need an explicit
# ``$document``).
DEFAULT_TYPES: frozenset[ResourceType] = frozenset(
    t for t in ResourceType if t != ResourceType.MAIN_FRAME
)


@dataclass(frozen=True)
class RuleOptions:
    """Activation constraints parsed from the ``$...`` suffix.

    Attributes:
        resource_types: Types this rule applies to.
        third_party: ``True`` = only third-party requests, ``False`` =
            only first-party, ``None`` = either.
        include_domains: If non-empty, the first-party host must be one
            of these domains or a subdomain of one. Entries keep their
            full hostname (``blog.news.com`` stays distinct from
            ``news.com``), per ABP's ``$domain=`` semantics.
        exclude_domains: First-party domains (and their subdomains) on
            which the rule is inert. When an exclude entry is more
            specific than a matching include entry, the exclude wins —
            this is what makes ``$domain=news.com|~blog.news.com``
            meaningful.
        match_case: Whether the pattern is case-sensitive.
    """

    resource_types: frozenset[ResourceType] = DEFAULT_TYPES
    third_party: bool | None = None
    include_domains: tuple[str, ...] = ()
    exclude_domains: tuple[str, ...] = ()
    match_case: bool = False

    def applies_to(
        self,
        resource_type: ResourceType,
        is_third_party_request: bool,
        first_party_host: str,
    ) -> bool:
        """Whether the request context satisfies every constraint."""
        if resource_type not in self.resource_types:
            return False
        if self.third_party is not None and is_third_party_request != self.third_party:
            return False
        if self.include_domains or self.exclude_domains:
            host = first_party_host.lower() if first_party_host else ""
            return self._domain_constraint_allows(host)
        return True

    def domains_allow(self, first_party_host: str) -> bool:
        """Just the ``$domain=`` constraint (the compiled engine's
        pre-filter calls this after its own type/party bit checks)."""
        if not (self.include_domains or self.exclude_domains):
            return True
        host = first_party_host.lower() if first_party_host else ""
        return self._domain_constraint_allows(host)

    def _domain_constraint_allows(self, host: str) -> bool:
        """ABP ``$domain=`` resolution: the most specific entry wins."""
        best_length = -1
        best_is_include = False
        for entry in self.include_domains:
            if _host_within(host, entry) and len(entry) > best_length:
                best_length, best_is_include = len(entry), True
        for entry in self.exclude_domains:
            if _host_within(host, entry) and len(entry) >= best_length:
                # On equal specificity the exclusion wins (ABP's tilde
                # entries are carve-outs from broader includes).
                if len(entry) > best_length or best_is_include:
                    best_length, best_is_include = len(entry), False
        if self.include_domains:
            return best_length >= 0 and best_is_include
        return best_length < 0


def _host_within(host: str, entry: str) -> bool:
    """Whether ``host`` is ``entry`` or one of its subdomains."""
    return host == entry or host.endswith("." + entry)


# Characters that terminate the literal host span of a ``||`` rule body:
# wildcards/anchors plus the first char that leaves the authority.
_HOST_SPAN_BREAKERS = frozenset("*^|/:?")

# A URL scheme as the ``||`` prefix accepts it, matched against the
# lowered URL when extracting the authority span.
SCHEME_RE = re.compile(r"[a-z][a-z0-9+.-]*://")


def host_span_length(body: str) -> int:
    """Length of the leading literal host span of a ``||`` rule body."""
    for i, ch in enumerate(body):
        if ch in _HOST_SPAN_BREAKERS:
            return i
    return len(body)


def pattern_to_regex(pattern: str) -> str:
    """Translate an ABP URL pattern to a Python regex (ABP reference rules).

    * ``||`` start anchor: beginning of the host portion of the URL.
    * ``|`` at the start / end: URL start / end.
    * ``*``: any character run (including none).
    * ``^``: a separator — any char that is not alphanumeric or one of
      ``_ - . %``, or the end of the URL.

    The scheme and host region of anchored patterns is wrapped in a
    scoped ``(?i:...)`` group: ABP's ``$match-case`` applies to the
    *pattern*, while schemes and hosts are case-normalized by browsers
    before matching — so ``||DoubleClick.net^$match-case`` must still
    match ``HTTP://x.doubleclick.net/``. Without the group, compiling
    under ``match_case`` (no ``re.IGNORECASE``) silently broke the
    ``[a-z][a-z0-9+.-]*://`` scheme prefix for upper-case scheme URLs.
    Unanchored patterns carry no scheme/host region of their own and
    are left untouched.
    """
    if pattern.startswith("||"):
        body = pattern[2:]
        split = host_span_length(body)
        prefix = (
            r"(?i:^[a-z][a-z0-9+.-]*://(?:[^/?#]*\.)?"
            + re.escape(body[:split].lower())
            + r")"
        )
        body = body[split:]
    elif pattern.startswith("|"):
        body = pattern[1:]
        scheme = SCHEME_RE.match(body.lower())
        if scheme is not None:
            split = scheme.end() + host_span_length(body[scheme.end():])
            prefix = "(?i:^" + re.escape(body[:split].lower()) + ")"
            body = body[split:]
        else:
            prefix = "^"
    else:
        prefix = ""
        body = pattern
    if body.endswith("|"):
        suffix = "$"
        body = body[:-1]
    else:
        suffix = ""
    out: list[str] = []
    for ch in body:
        if ch == "*":
            out.append(".*")
        elif ch == "^":
            out.append(r"(?:[^a-zA-Z0-9_\-.%]|$)")
        else:
            out.append(re.escape(ch))
    return prefix + "".join(out) + suffix


_TOKEN_RE = re.compile(r"[a-z0-9]{3,}")
# The alphabet of URL index tokens (maximal runs of these make tokens).
_TOKEN_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789")


@dataclass
class FilterRule:
    """One parsed network-filter rule.

    Attributes:
        raw: The original filter text, e.g. ``||doubleclick.net^$third-party``.
        pattern: The URL pattern portion (anchors intact, options stripped).
        is_exception: ``True`` for ``@@`` exception (whitelist) rules.
        options: Parsed activation options.
        line: 1-based line number in the source list file (0 for rules
            built outside :func:`~repro.filters.parser.parse_filter_list`).
    """

    raw: str
    pattern: str
    is_exception: bool
    options: RuleOptions = field(default_factory=RuleOptions)
    line: int = field(default=0, compare=False)
    _regex: re.Pattern[str] | None = field(default=None, repr=False, compare=False)

    @property
    def regex(self) -> re.Pattern[str]:
        """The compiled URL-matching regex (compiled on first use)."""
        if self._regex is None:
            flags = 0 if self.options.match_case else re.IGNORECASE
            self._regex = re.compile(pattern_to_regex(self.pattern), flags)
        return self._regex

    def matches_url(self, url: str) -> bool:
        """Whether the URL pattern matches (context checked separately)."""
        return self.regex.search(url) is not None

    def anchor_domain(self) -> str | None:
        """For ``||domain...`` rules, the anchoring registrable domain.

        The host chars are lowered before the public-suffix lookup:
        hostnames are case-insensitive, and ``||DoubleClick.net^`` must
        anchor to ``doubleclick.net``, not a case-mismatched string the
        rest of the pipeline (which works on lowered hosts) never sees.
        """
        if not self.pattern.startswith("||"):
            return None
        body = self.pattern[2:]
        host_chars: list[str] = []
        for ch in body:
            if ch.isalnum() or ch in ".-":
                host_chars.append(ch)
            else:
                break
        host = "".join(host_chars).strip(".").lower()
        if not host or "." not in host:
            return None
        return registrable_domain(host)

    def host_anchor_literal(self) -> str:
        """The lowered literal host span of a ``||`` rule ('' otherwise).

        The span runs from the anchor to the first wildcard/anchor/
        authority-leaving char — the part of the pattern the hostname
        index lane can key on. Unlike :meth:`anchor_domain` it is the
        raw span (no public-suffix collapsing) and is non-empty for
        hosts without a dot.
        """
        if not self.pattern.startswith("||"):
            return ""
        body = self.pattern[2:]
        return body[: host_span_length(body)].lower()

    def token_details(self) -> list[tuple[str, bool, bool]]:
        """Every literal token of the pattern with the bound of each edge.

        A token is a maximal ≥3-char ``[a-z0-9]`` run inside the
        pattern's literal text (lowered), reported as ``(token,
        left_bounded, right_bounded)``. An edge is *bounded* — the
        alphanumeric run of every matching URL provably stops there —
        when it touches:

        * a literal non-alphanumeric char (``/``, ``.``, ``-``, …):
          the matching URL contains that char right next to the token;
        * ``^``: the separator class excludes alphanumerics, and a
          ``^`` adjacent to a token can only have matched a real
          separator char or the URL end;
        * an anchored pattern edge: ``|`` is the URL start/end, and
          the ``||`` prefix always puts ``://`` or ``.`` before the
          first host char.

        An edge abutting ``*`` or an *unanchored* pattern edge is
        unbounded: the neighboring URL text may extend the alphanumeric
        run. A token is *reliable* — guaranteed to appear as a maximal
        alphanumeric run in every matching URL, and therefore safe to
        index the rule under — only when both edges are bounded; the
        URL tokenizer emits only maximal runs, so an index keyed on an
        unreliable token silently drops matches (``/ads*banner``
        indexed under ``banner`` is never offered for
        ``/adsbanner123``). A token bounded on the left only is
        *half-bounded*: every matching URL holds a maximal run that
        *starts* with it, which the compiled index keys on by prefix.
        """
        pattern = self.pattern
        if pattern.startswith("||"):
            body = pattern[2:]
            left_anchored = True
        elif pattern.startswith("|"):
            body = pattern[1:]
            left_anchored = True
        else:
            body = pattern
            left_anchored = False
        if body.endswith("|"):
            body = body[:-1]
            right_anchored = True
        else:
            right_anchored = False
        lowered = body.lower()
        details: list[tuple[str, bool, bool]] = []
        i, n = 0, len(lowered)
        while i < n:
            if lowered[i] not in _TOKEN_CHARS:
                i += 1
                continue
            j = i
            while j < n and lowered[j] in _TOKEN_CHARS:
                j += 1
            if j - i >= 3:
                left_ok = left_anchored if i == 0 else lowered[i - 1] != "*"
                right_ok = right_anchored if j == n else lowered[j] != "*"
                details.append((lowered[i:j], left_ok, right_ok))
            i = j
        return details

    def index_tokens(self) -> list[str]:
        """Reliable literal tokens that must appear in any matching URL.

        Used by the matchers to shard rules: a rule is only tried
        against URLs containing one of its tokens, so only tokens whose
        :meth:`token_details` edges are both bounded may be returned —
        indexing under an unreliable token causes silent false
        negatives (the PR-9 token-index bug).
        """
        return [
            token for token, left, right in self.token_details()
            if left and right
        ]


@dataclass
class FilterList:
    """A named collection of parsed rules (one EasyList, one EasyPrivacy…).

    Attributes:
        name: List name, e.g. ``"easylist"``.
        rules: Network rules in file order.
        hiding_rule_count: Count of element-hiding rules that were
            recognized and skipped.
        skipped_lines: Unparseable or unsupported lines, for diagnostics.
    """

    name: str
    rules: list[FilterRule] = field(default_factory=list)
    hiding_rule_count: int = 0
    skipped_lines: list[str] = field(default_factory=list)

    @property
    def block_rules(self) -> list[FilterRule]:
        """Blocking (non-exception) rules."""
        return [r for r in self.rules if not r.is_exception]

    @property
    def exception_rules(self) -> list[FilterRule]:
        """``@@`` exception rules."""
        return [r for r in self.rules if r.is_exception]

    def __len__(self) -> int:
        return len(self.rules)


def filter_lists_digest(
    lists: Iterable[FilterList], digest: "hashlib._Hash | None" = None
) -> "hashlib._Hash":
    """Hash each list's name and raw rules, in order, into ``digest``.

    A fresh SHA-256 when ``digest`` is omitted; returned either way, so
    a caller that hashes more than the lists passes its own.
    """
    digest = hashlib.sha256() if digest is None else digest
    for filter_list in lists:
        digest.update(f"list={filter_list.name}\n".encode())
        for rule in filter_list.rules:
            digest.update(rule.raw.encode())
            digest.update(b"\n")
    return digest
