"""The compiled rule index: EasyList-scale filter matching.

Real EasyList/EasyPrivacy are tens of thousands of rules; an index that
keeps every no-reliable-token rule in one generic bucket and
regex-tests each offered candidate stops scaling long before 50k
rules. This module compiles the parsed rules into an immutable index
that keeps candidate sets tiny and avoids the regex engine for the most
common rule shape entirely:

* **Boundary-aware token sharding** — each rule is indexed under ONE
  reliable literal token (see :meth:`FilterRule.token_details` for the
  reliability rule that fixes the PR-9 false-negative bug), chosen by
  *least-loaded* bucket: global token frequencies are counted first and
  every rule picks its rarest reliable token, which flattens the hot
  buckets popular tokens (``ads``, ``banner``, …) would otherwise
  create.
* **Pair and prefix keys** — a token bucket still over 24 entries is
  re-sharded: a rule with a second reliable token moves under the
  ``(primary, secondary)`` pair, and a rule with only the one moves
  under ``(primary, "<" + first three chars)`` of its first
  *half-bounded* run (left edge bounded, right edge not: ``fjpw`` in
  ``/jtn/fjpw``). Every URL such a rule matches holds a maximal
  alphanumeric run *starting* with that run, so the pair bucket is
  offered only when one of the URL's tokens starts with the prefix.
* **Hostname trie lane** — every ``||host...`` rule is keyed by its
  literal host span in a character trie: a rule's own host is far more
  selective than any token it shares with thousands of others
  (``com``, ``gif``), and lookup cost is bounded by the URL's
  authority length, not the rule count. Lookup walks the trie from
  every label-boundary position of the URL's authority — the exact set
  of positions the ``||`` regex prefix can anchor at — so the lane
  offers a superset of the true matches by construction, on the raw
  URL string (no parsed-host detour that crafted URLs could
  desynchronize).
* **Pure-host fast path** — rules whose whole pattern is ``||host^``
  or ``||host`` (the bulk of EasyList) are decided by string scanning
  over the authority, never compiling or running their regex.
* **Bit-mask pre-filters** — each entry carries an int resource-type
  mask and party tri-state; candidates fail these (and the ``$domain=``
  constraint) before any regex runs. Each bucket is frozen into
  tuple sub-buckets per ``(type bit, party)``, keyed by key tuples
  every bucket shares, so the pair and prefix buckets cost little
  memory at 100k rules.
* **Exception short-circuit** — the exception index records the union
  mask of resource types its rules can ever apply to; when a block hit
  needs exception processing, a single bit test skips the whole
  exception pass for types no exception covers.

Equivalence contract: for every URL/context,
``CompiledFilterEngine.match`` returns the same verdict AND the same
decisive rules (lowest list-order applicable match, for both
polarities) as the brute-force specification
:func:`~repro.filters.engine.linear_match`. The hypothesis suite in
``tests/filters/test_equivalence.py`` pins the two against each other.

The index is immutable after construction and picklable (plain tuples
and dicts), so the parallel executor's forked workers and the future
``repro serve`` hot-swap can share one snapshot.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Sequence

from repro.filters.engine import OWN_STATS, EngineStats, MatchResult
from repro.filters.rules import SCHEME_RE, FilterList, FilterRule
from repro.net.domains import is_third_party
from repro.net.http import ResourceType
from repro.util.urls import parse_url

# Stable bit per resource type (enum definition order).
RESOURCE_BIT: dict[ResourceType, int] = {
    rtype: 1 << i for i, rtype in enumerate(ResourceType)
}

# Chars the ``^`` separator class does NOT match, on a lowered URL.
# (Explicit set rather than str.isalnum(): the regex class is ASCII.)
_NOT_SEPARATOR = frozenset("abcdefghijklmnopqrstuvwxyz0123456789_-.%")

# Matcher kinds, decided at compile time per rule.
_KIND_REGEX = 0  # anything we run the rule's compiled regex for
_KIND_HOST_SEP = 1  # pattern is exactly ``||host^``
_KIND_HOST_BARE = 2  # pattern is exactly ``||host``

# Entry tuple layout (tuples keep the hot loop allocation-free and the
# whole index trivially picklable).
_E_ORDER = 0
_E_TYPE_MASK = 1
_E_THIRD_PARTY = 2
_E_HAS_DOMAINS = 3
_E_KIND = 4
_E_HOST_SPAN = 5
_E_LITERAL = 6
_E_RULE = 7
_E_LIST = 8

CompiledEntry = tuple[
    int, int, "bool | None", bool, int, str, str, FilterRule, str
]

# Terminal keys in the host trie's plain-dict nodes (ints can never
# collide with single-char edge keys). Each terminal is split by what
# the lane walk itself proves: reaching a ``_T_ANY`` terminal verifies
# the whole pattern of a ``||host`` rule (span is a prefix at an anchor
# position), while ``_T_SEP`` (``||host^`` rules) additionally requires
# the boundary char after the span to be separator-class — checked once
# per terminal by the walk, not once per entry.
_T_ANY = 0
_T_SEP = 1

_URL_TOKEN_RE = re.compile(r"[a-z0-9]{3,}")

# A prefix key is this mark plus the first ``_PREFIX_LEN`` chars of a
# half-bounded run. The mark never occurs in a token, so prefix keys
# and secondary tokens share one pair table without colliding.
_PREFIX_MARK = "<"
_PREFIX_LEN = 3

_WILDCARD_SPLIT_RE = re.compile(r"[*^|]+")

_AUTHORITY_END_RE = re.compile(r"[/?#]")


def type_mask(resource_types: frozenset[ResourceType]) -> int:
    """The int bitmap of a rule's resource-type set."""
    mask = 0
    for rtype in resource_types:
        mask |= RESOURCE_BIT[rtype]
    return mask


def _literal_prescreen(rule: FilterRule) -> str:
    """The longest literal fragment any matching lowered URL must
    contain, or ``""`` when no sound prescreen exists.

    Fragments between wildcards/anchors/separators are emitted by
    ``pattern_to_regex`` as escaped literals, so a failed substring
    probe (C-speed) rejects a candidate without touching the regex
    engine. ``$match-case`` rules get no prescreen: their path region
    is case-sensitive while scheme/host stay insensitive, so no single
    casing of a fragment is guaranteed present in one casing of the
    URL.
    """
    if rule.options.match_case:
        return ""
    fragments = _WILDCARD_SPLIT_RE.split(rule.pattern)
    longest = max(fragments, key=len)
    return longest.lower() if len(longest) >= 3 else ""


def _index_keys(rule: FilterRule) -> tuple[list[str], str]:
    """The rule's reliable tokens and its prefix key, from one scan.

    The prefix key (``""`` when there is none) comes from the first
    half-bounded run — left edge bounded, right edge not (see
    :meth:`FilterRule.token_details`). Every URL the rule matches holds
    a maximal alphanumeric run that starts with that run, so one of the
    URL's tokens starts with the key's chars.
    """
    tokens: list[str] = []
    prefix = ""
    for run, left, right in rule.token_details():
        if left and right:
            tokens.append(run)
        elif left and not prefix:
            prefix = _PREFIX_MARK + run[:_PREFIX_LEN]
    return tokens, prefix


def _compile_entry(order: int, rule: FilterRule, list_name: str) -> CompiledEntry:
    options = rule.options
    span = rule.host_anchor_literal()
    kind = _KIND_REGEX
    if span:
        rest = rule.pattern[2 + len(span):]
        if rest == "":
            kind = _KIND_HOST_BARE
        elif rest == "^":
            kind = _KIND_HOST_SEP
    return (
        order,
        type_mask(options.resource_types),
        options.third_party,
        bool(options.include_domains or options.exclude_domains),
        kind,
        span,
        _literal_prescreen(rule) if kind == _KIND_REGEX else "",
        rule,
        list_name,
    )


def authority_span(lowered_url: str) -> tuple[int, int] | None:
    """The [start, end) span of the URL's authority, or ``None``.

    Start is the char after a valid ``scheme://`` prefix (the same
    scheme grammar the ``||`` anchor regex requires); end is the first
    ``/``, ``?``, or ``#`` after it. Computed on the lowered URL so the
    result is valid for the case-insensitive scheme/host region of
    anchored rules.
    """
    scheme = SCHEME_RE.match(lowered_url)
    if scheme is None:
        return None
    start = scheme.end()
    end = _AUTHORITY_END_RE.search(lowered_url, start)
    if end is None:
        return start, len(lowered_url)
    return start, end.start()


def _anchor_positions(lowered_url: str, auth: tuple[int, int]) -> Iterator[int]:
    """Positions where a ``||`` host span may begin: the authority
    start and the char after every ``.`` inside the authority."""
    start, end = auth
    yield start
    dot = lowered_url.find(".", start, end)
    while dot >= 0:
        yield dot + 1
        dot = lowered_url.find(".", dot + 1, end)


_TYPE_BITS = tuple(RESOURCE_BIT.values())

# MatchResult is frozen; every miss can share one instance.
_NO_MATCH = MatchResult(blocked=False)

# Lane tags so ``best_match`` can charge the right telemetry counter.
_LANE_TOKEN = 0
_LANE_HOST = 1
_LANE_GENERIC = 2

#: A logical bucket after freezing: ``(resource-type bit, third_party)``
#: key -> order-sorted entry tuple. ``best_match`` reads exactly one key
#: per request, so entries whose type mask or party tri-state cannot
#: apply are never iterated at all.
FrozenBucket = dict[tuple[int, bool], tuple[CompiledEntry, ...]]

# Every frozen bucket keys its sub-buckets by these shared tuples: at
# 100k rules a fresh key tuple per sub-bucket costs megabytes.
_SUB_KEYS: dict[tuple[int, bool], tuple[int, bool]] = {
    (bit, party): (bit, party)
    for bit in _TYPE_BITS
    for party in (True, False)
}


def _freeze_bucket(entries: list[CompiledEntry]) -> FrozenBucket:
    """Split one order-sorted bucket by every (type bit, party) it can
    serve. Entries with no type/party constraint fan out to all their
    keys; append order preserves order-sortedness per key."""
    staged: dict[tuple[int, bool], list[CompiledEntry]] = {}
    for entry in entries:
        mask = entry[_E_TYPE_MASK]
        required_party = entry[_E_THIRD_PARTY]
        parties = (
            (True, False) if required_party is None else (required_party,)
        )
        for bit in _TYPE_BITS:
            if mask & bit:
                for party in parties:
                    staged.setdefault(_SUB_KEYS[bit, party], []).append(entry)
    return {key: tuple(sub) for key, sub in staged.items()}


def _freeze_trie(node: dict) -> None:
    """Freeze every terminal bucket of the host trie, in place."""
    for key, value in node.items():
        if isinstance(key, int):
            node[key] = _freeze_bucket(value)
        else:
            _freeze_trie(value)


class _CompiledIndex:
    """One polarity's compiled storage: token buckets, host trie lane,
    generic bucket. Buckets are order-sorted by construction and frozen
    into per-``(type, party)`` sub-buckets before first use."""

    __slots__ = ("_by_token", "_pairs", "_trie", "_generic",
                 "type_presence", "size")

    #: Token buckets larger than this are re-sharded under (primary,
    #: secondary) pairs, where the secondary is a second token or a
    #: prefix key; a pair bucket is only offered when the URL contains
    #: the primary token *and* the secondary token (or a token starting
    #: with the prefix), so hot shared words ("ads", zipf heads) stop
    #: dominating the candidate stream.
    _PAIR_SHARD_THRESHOLD = 24

    def __init__(
        self, entries: Sequence[tuple[CompiledEntry, list[str], str]]
    ) -> None:
        self._by_token: dict[str, FrozenBucket] = {}
        # primary token -> secondary token or prefix key -> bucket; a
        # primary is present only when its bucket was re-sharded.
        self._pairs: dict[str, dict[str, FrozenBucket]] = {}
        self._trie: dict = {}
        self._generic: FrozenBucket = {}
        self.type_presence = 0
        self.size = len(entries)

        # Pass 1: global reliable-token frequencies (host-anchored
        # rules never consume a token slot, so they don't count).
        frequency: dict[str, int] = {}
        for entry, tokens, _prefix in entries:
            if entry[_E_HOST_SPAN]:
                continue
            for token in dict.fromkeys(tokens):
                frequency[token] = frequency.get(token, 0) + 1

        # Pass 2: shard each rule. Host-anchored rules go to the trie
        # lane — a rule's own host span is far more selective than any
        # shared token ("com", "gif"), and lookup cost is bounded by
        # the URL's authority length, not the rule count. The rest go
        # under their least-loaded reliable token (ties: longer, then
        # lexicographically smaller — deterministic), or the generic
        # bucket when no reliable token exists.
        load_key = lambda t: (frequency[t], -len(t), t)  # noqa: E731
        staged: dict[str, list[tuple[CompiledEntry, list[str], str]]] = {}
        generic: list[CompiledEntry] = []
        for entry, tokens, prefix in entries:
            self.type_presence |= entry[_E_TYPE_MASK]
            if entry[_E_HOST_SPAN]:
                node = self._trie
                for ch in entry[_E_HOST_SPAN]:
                    node = node.setdefault(ch, {})
                terminal = (
                    _T_SEP if entry[_E_KIND] == _KIND_HOST_SEP else _T_ANY
                )
                node.setdefault(terminal, []).append(entry)
            elif tokens:
                token = min(tokens, key=load_key)
                staged.setdefault(token, []).append((entry, tokens, prefix))
            else:
                generic.append(entry)

        # Pass 3: re-shard oversized token buckets under *pairs*. An
        # entry with a second reliable token moves to the ``(primary,
        # secondary)`` bucket, offered only when the URL contains both
        # tokens; a single-token entry with a prefix key moves to the
        # ``(primary, prefix key)`` bucket, offered only when one of
        # the URL's tokens starts with the prefix. The rest stay behind
        # in the (now much smaller) residual bucket. Append order
        # preserves the global order-sortedness of every bucket.
        residuals: dict[str, list[CompiledEntry]] = {}
        pairs: dict[str, dict[str, list[CompiledEntry]]] = {}
        for token, staged_bucket in staged.items():
            bucket = residuals.setdefault(token, [])
            if len(staged_bucket) <= self._PAIR_SHARD_THRESHOLD:
                bucket.extend(entry for entry, _, _ in staged_bucket)
                continue
            shard = pairs.setdefault(token, {})
            for entry, tokens, prefix in staged_bucket:
                others = [t for t in dict.fromkeys(tokens) if t != token]
                secondary = min(others, key=load_key) if others else prefix
                if secondary:
                    shard.setdefault(secondary, []).append(entry)
                else:
                    bucket.append(entry)

        # Pass 4: freeze. Every bucket splits into per-(type, party)
        # sub-buckets so the hot loop never sees an inapplicable entry.
        self._by_token = {
            token: _freeze_bucket(bucket)
            for token, bucket in residuals.items()
            if bucket
        }
        self._pairs = {
            token: {
                secondary: _freeze_bucket(bucket)
                for secondary, bucket in shard.items()
            }
            for token, shard in pairs.items()
            if shard
        }
        self._generic = _freeze_bucket(generic)
        _freeze_trie(self._trie)

    def _lane_buckets(
        self, lowered_url: str, auth: tuple[int, int] | None
    ) -> Iterator[FrozenBucket]:
        trie = self._trie
        if not trie or auth is None:
            return
        seen: set[int] = set()
        n = len(lowered_url)
        for position in _anchor_positions(lowered_url, auth):
            node = trie
            i = position
            while True:
                bucket = node.get(_T_ANY)
                if bucket is not None and id(bucket) not in seen:
                    seen.add(id(bucket))
                    yield bucket
                bucket = node.get(_T_SEP)
                if bucket is not None and id(bucket) not in seen:
                    # ``||span^``: the boundary char after the span (the
                    # walk is exactly there) must be separator-class or
                    # URL end. A not-yet-satisfied terminal stays
                    # unseen — a later anchor position may satisfy it.
                    if i >= n or lowered_url[i] not in _NOT_SEPARATOR:
                        seen.add(id(bucket))
                        yield bucket
                if i >= n:
                    break
                node = node.get(lowered_url[i])
                if node is None:
                    break
                i += 1

    def buckets(
        self,
        lowered_url: str,
        url_tokens: Sequence[str],
        auth: tuple[int, int] | None,
    ) -> Iterator[tuple[FrozenBucket, int]]:
        """``(frozen bucket, lane)`` pairs: a superset of every rule in
        this index that can match the URL lives under some key of some
        yielded bucket. Each per-key sub-bucket is order-sorted."""
        tokens = list(dict.fromkeys(url_tokens))
        by_token = self._by_token
        pairs = self._pairs
        secondaries: list[str] | None = None
        for token in tokens:
            bucket = by_token.get(token)
            if bucket is not None:
                yield bucket, _LANE_TOKEN
            shard = pairs.get(token)
            if shard is None:
                continue
            if secondaries is None:
                # Every URL token, then every URL token's prefix key —
                # the primary's own included: ``/jtn/jtn`` keys its
                # end run under ``<jtn``, and in ``https://x.io/jtn/jtn``
                # only the primary ``jtn`` itself supplies that key.
                secondaries = tokens + list(dict.fromkeys(
                    _PREFIX_MARK + other[:_PREFIX_LEN] for other in tokens
                ))
            for secondary in secondaries:
                bucket = shard.get(secondary)
                if bucket is not None:
                    yield bucket, _LANE_TOKEN
        for bucket in self._lane_buckets(lowered_url, auth):
            yield bucket, _LANE_HOST
        if self._generic:
            yield self._generic, _LANE_GENERIC

    @staticmethod
    def _charge(stats: EngineStats, lane: int, count: int) -> None:
        """Charge offered candidates to the lane's counter."""
        if lane == _LANE_TOKEN:
            stats.token_candidates += count
        elif lane == _LANE_HOST:
            stats.host_candidates += count
        else:
            stats.generic_candidates += count

    def best_match(
        self,
        url: str,
        lowered_url: str,
        url_tokens: Sequence[str],
        auth: tuple[int, int] | None,
        type_bit: int,
        third_party: bool,
        first_party_host: str,
        stats: EngineStats | None = None,
    ) -> CompiledEntry | None:
        """The lowest-order applicable matching entry, or ``None``."""
        best: CompiledEntry | None = None
        best_order = 1 << 62
        key = (type_bit, third_party)
        for bucket, lane in self.buckets(lowered_url, url_tokens, auth):
            sub = bucket.get(key)
            if sub is None:
                continue
            if stats is not None:
                self._charge(stats, lane, len(sub))
            # Type mask and party already hold for every entry under
            # this key — the freeze step filtered them at build time.
            # The literal prescreen rejects almost every candidate that
            # gets this far, so it runs before the ``$domain=`` check.
            for entry in sub:
                if entry[0] >= best_order:  # _E_ORDER
                    break  # sub-bucket is order-sorted; no later entry wins
                if entry[4] == _KIND_REGEX:  # _E_KIND
                    literal = entry[6]  # _E_LITERAL
                    if literal and literal not in lowered_url:
                        continue  # C-speed reject before the regex
                    if entry[3] and not entry[  # _E_HAS_DOMAINS
                        7  # _E_RULE
                    ].options.domains_allow(first_party_host):
                        continue
                    if not entry[7].matches_url(url):  # _E_RULE
                        continue
                elif entry[3] and not entry[7].options.domains_allow(
                    first_party_host
                ):
                    continue
                # _KIND_HOST_SEP / _KIND_HOST_BARE need no further
                # pattern check: host entries are only ever offered by
                # the lane walk, which already verified span + boundary.
                best = entry
                best_order = entry[0]
                break
        return best


class CompiledFilterEngine:
    """Evaluates requests against one or more parsed filter lists.

    Built for 10k–100k-rule lists; its verdicts and decisive rules are
    those of :func:`~repro.filters.engine.linear_match` — see the
    module docstring's equivalence contract."""

    def __init__(self, lists: Iterable[FilterList]) -> None:
        self.lists = list(lists)
        self.stats = EngineStats()
        blocks: list[tuple[CompiledEntry, list[str], str]] = []
        exceptions: list[tuple[CompiledEntry, list[str], str]] = []
        order = 0
        for filter_list in self.lists:
            for rule in filter_list.rules:
                compiled = (
                    _compile_entry(order, rule, filter_list.name),
                    *_index_keys(rule),
                )
                (exceptions if rule.is_exception else blocks).append(compiled)
                order += 1
        self._blocks = _CompiledIndex(blocks)
        self._exceptions = _CompiledIndex(exceptions)

    @property
    def rule_count(self) -> int:
        """Total number of indexed rules across all lists."""
        return self._blocks.size + self._exceptions.size

    def match(
        self,
        url: str,
        resource_type: ResourceType,
        first_party_url: str,
        stats: EngineStats | None = OWN_STATS,
    ) -> MatchResult:
        """Evaluate one request.

        Args:
            url: The request URL (http/https/ws/wss).
            resource_type: What kind of resource is being fetched. Pass
                :attr:`ResourceType.WEBSOCKET` for socket handshakes.
            first_party_url: Top-level page URL providing party context.
            stats: Where to record match telemetry. Defaults to the
                engine-owned ``self.stats``; pass a caller-owned
                :class:`EngineStats` or ``None`` (no recording) when
                the engine is shared across threads: the index itself
                is immutable, so with a non-default ``stats`` the call
                is read-only on the engine and safe under concurrent
                readers.

        Returns:
            The match verdict. ``blocked`` is True only when a blocking
            rule matches and no exception rule does.
        """
        if stats is OWN_STATS:
            stats = self.stats
        if stats is not None:
            stats.matches += 1
        lowered = url.lower()
        url_tokens = _URL_TOKEN_RE.findall(lowered)
        auth = authority_span(lowered)
        type_bit = RESOURCE_BIT[resource_type]
        third_party = bool(first_party_url) and is_third_party(url, first_party_url)
        first_party_host = (
            parse_url(first_party_url).host if first_party_url else ""
        )

        block_hit = self._blocks.best_match(
            url, lowered, url_tokens, auth, type_bit,
            third_party, first_party_host, stats,
        )
        if block_hit is None:
            return _NO_MATCH

        if self._exceptions.type_presence & type_bit:
            exception_hit = self._exceptions.best_match(
                url, lowered, url_tokens, auth, type_bit,
                third_party, first_party_host, stats,
            )
            if exception_hit is not None:
                if stats is not None:
                    stats.exception_overrides += 1
                return MatchResult(
                    blocked=False,
                    rule=block_hit[_E_RULE],
                    exception_rule=exception_hit[_E_RULE],
                    list_name=exception_hit[_E_LIST],
                )
        if stats is not None:
            stats.blocked += 1
        return MatchResult(
            blocked=True, rule=block_hit[_E_RULE], list_name=block_hit[_E_LIST]
        )

    def would_block(
        self, url: str, resource_type: ResourceType, first_party_url: str
    ) -> bool:
        """Shorthand for ``match(...).blocked``."""
        return self.match(url, resource_type, first_party_url).blocked

    def candidate_rules(self, url: str) -> list[tuple[int, FilterRule]]:
        """Every ``(global_order, rule)`` the index offers for a URL,
        both polarities.

        The reuse surface for :mod:`repro.staticlint.filterlint`: the
        probe analyzer only match-tests rules the index would offer,
        which is sound because offered candidates are a superset of
        true matches (the same guarantee ``match`` relies on). Global
        order is file order across lists — identical to the numbering
        filterlint assigns its own indexed rules.
        """
        lowered = url.lower()
        url_tokens = _URL_TOKEN_RE.findall(lowered)
        auth = authority_span(lowered)
        offered: dict[int, FilterRule] = {}
        for index in (self._blocks, self._exceptions):
            for bucket, _lane in index.buckets(lowered, url_tokens, auth):
                # An entry fans out to one sub-bucket per (type, party)
                # key it serves; dedup by global order.
                for sub in bucket.values():
                    for entry in sub:
                        offered.setdefault(entry[_E_ORDER], entry[_E_RULE])
        return sorted(offered.items())
