"""Adblock-Plus-compatible filter list engine.

Implements the network-blocking subset of the ABP filter syntax that
EasyList and EasyPrivacy rely on: ``||`` / ``|`` anchors, ``*``
wildcards, ``^`` separators, ``@@`` exception rules, and the
``$script/$image/$websocket/$third-party/$domain=`` option vocabulary.
Element-hiding rules are recognized and skipped (they do not affect
network measurements).

The engine serves two distinct roles from the paper:

* tagging resources as A&A vs non-A&A to derive the A&A domain set
  (§3.2), and
* the post-hoc "would this chain have been blocked?" analysis (§4.2).
"""

from repro.filters.compiled import CompiledFilterEngine
from repro.filters.engine import (
    OWN_STATS,
    EngineStats,
    MatchResult,
    linear_match,
)
from repro.filters.loader import load_filter_engine, load_filter_file
from repro.filters.parser import FilterParseError, parse_filter_line, parse_filter_list
from repro.filters.rules import (
    DEFAULT_TYPES,
    SCHEME_RE,
    FilterList,
    FilterRule,
    RuleOptions,
    filter_lists_digest,
)

__all__ = [
    "CompiledFilterEngine",
    "EngineStats",
    "MatchResult",
    "OWN_STATS",
    "linear_match",
    "FilterParseError",
    "parse_filter_line",
    "parse_filter_list",
    "load_filter_engine",
    "load_filter_file",
    "FilterRule",
    "FilterList",
    "filter_lists_digest",
    "RuleOptions",
    "DEFAULT_TYPES",
    "SCHEME_RE",
]
