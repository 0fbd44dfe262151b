"""Matching vocabulary shared by the filter engine and its specification.

Given a request (URL, resource type, first-party context), decide whether
the combined lists block it. Two matchers share one semantics:

* :func:`linear_match` — the executable specification: a brute-force
  scan of every rule in list order. Slow, obviously correct.
* :class:`repro.filters.compiled.CompiledFilterEngine` — the engine:
  a compiled index (token buckets, host lane, bit-mask pre-filters)
  that keeps per-match cost flat at EasyList scale.

Both return the same verdict *and* the same decisive rules: the
blocking rule reported is always the first applicable match in list
order, and likewise for the rescuing exception. The equivalence is
pinned by the hypothesis property suite in
``tests/filters/test_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence, cast

from repro.filters.rules import FilterList, FilterRule
from repro.net.domains import is_third_party
from repro.net.http import ResourceType
from repro.util.urls import parse_url

#: Sentinel default for ``match(stats=...)``: record telemetry into the
#: engine-owned ``self.stats`` (the historical single-threaded
#: behaviour). Callers sharing one engine across threads/workers must
#: instead pass an ``EngineStats`` they own — or ``None`` to skip
#: recording — so ``match`` never mutates shared state (the
#: ``repro.serve`` snapshot contract).
OWN_STATS: "EngineStats" = cast("EngineStats", object())


@dataclass
class EngineStats:
    """Always-on match telemetry, harvested by the obs layer.

    Candidate counts are *offered* candidates: when a bucket is
    reached, its full length is charged, even if the caller stops early
    on a hit — i.e. they measure index selectivity, not rules actually
    regex-tested. Each of the engine's three lanes has one counter,
    charged for both polarities, so their sum is every rule the index
    offered.

    Attributes:
        matches: ``match()`` calls.
        blocked: Calls that ended blocked.
        exception_overrides: Calls where an exception rule rescued a
            request a blocking rule had matched.
        token_candidates: Rules offered from token and token-pair
            buckets.
        generic_candidates: Rules offered from the generic buckets.
        host_candidates: Rules offered from the hostname trie lane.
    """

    matches: int = 0
    blocked: int = 0
    exception_overrides: int = 0
    token_candidates: int = 0
    generic_candidates: int = 0
    host_candidates: int = 0

    def as_counts(self) -> dict[str, int]:
        """The stats as a plain name→count mapping."""
        return asdict(self)

    def snapshot(self) -> "EngineStats":
        """A frozen copy, for before/after delta attribution."""
        return EngineStats(**self.as_counts())

    def merge(self, other: "EngineStats") -> None:
        """Add another stats object's counts into this one."""
        for key, value in vars(other).items():
            setattr(self, key, getattr(self, key) + value)

    def delta_since(self, since: "EngineStats") -> dict[str, int]:
        """Per-field growth since an earlier :meth:`snapshot`.

        How the study runner attributes match telemetry to the crawl
        that caused it (``filters.by_crawl.*``) while the cumulative
        ``filters.*`` counters stay additive across crawls.
        """
        before = since.as_counts()
        return {
            key: value - before[key]
            for key, value in self.as_counts().items()
        }


@dataclass(frozen=True)
class MatchResult:
    """Outcome of evaluating a request against the engine.

    Attributes:
        blocked: Final verdict after exception processing.
        rule: The blocking rule that matched, if any — always the
            *first* applicable match in list order (canonical across
            the compiled and linear matchers).
        exception_rule: The exception rule that rescued the request, if
            any (same first-in-list-order contract).
        list_name: Name of the list contributing the decisive rule.
    """

    blocked: bool
    rule: FilterRule | None = None
    exception_rule: FilterRule | None = None
    list_name: str = ""

    @property
    def matched(self) -> bool:
        """Whether any blocking rule matched, regardless of exceptions."""
        return self.rule is not None


def linear_match(
    lists: Sequence[FilterList],
    url: str,
    resource_type: ResourceType,
    first_party_url: str,
) -> MatchResult:
    """Brute-force reference matcher: scan every rule in list order.

    The executable specification the compiled engine is property-tested
    against — no index, no pre-filters, nothing to get wrong. O(rules)
    per call, so only tests and audits should use it.
    """
    third_party = bool(first_party_url) and is_third_party(url, first_party_url)
    first_party_host = parse_url(first_party_url).host if first_party_url else ""

    block_hit: tuple[FilterRule, str] | None = None
    for filter_list in lists:
        for rule in filter_list.rules:
            if rule.is_exception:
                continue
            if rule.options.applies_to(
                resource_type, third_party, first_party_host
            ) and rule.matches_url(url):
                block_hit = (rule, filter_list.name)
                break
        if block_hit is not None:
            break
    if block_hit is None:
        return MatchResult(blocked=False)

    for filter_list in lists:
        for rule in filter_list.rules:
            if not rule.is_exception:
                continue
            if rule.options.applies_to(
                resource_type, third_party, first_party_host
            ) and rule.matches_url(url):
                return MatchResult(
                    blocked=False,
                    rule=block_hit[0],
                    exception_rule=rule,
                    list_name=filter_list.name,
                )
    return MatchResult(blocked=True, rule=block_hit[0], list_name=block_hit[1])
