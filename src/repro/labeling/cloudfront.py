"""Cloudfront tenant mapping (§3.2's manual-mapping step, automated).

Amazon's Cloudfront CDN hosts arbitrary tenants under one registrable
domain, so second-level aggregation would blame ``cloudfront.net`` for
every tenant's behaviour. The paper manually mapped 13 fully-qualified
Cloudfront subdomains to the A&A companies hosting content there, by
"examining the order of resource loads in the corresponding inclusion
chains" — in most cases a one-to-one relationship between a company's
JavaScript and a specific subdomain.

This module automates that procedure: it accumulates, for every
``*.cloudfront.net`` host, the second-level domains immediately
preceding or succeeding it in inclusion chains, and maps the host to
the dominant adjacent A&A domain when the relationship is clear.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.labeling.aa_labeler import AaLabeler
from repro.net.domains import registrable_domain

CLOUDFRONT_SUFFIX = ".cloudfront.net"


def is_cloudfront_host(host: str) -> bool:
    """Whether a host is a Cloudfront distribution subdomain."""
    return host.endswith(CLOUDFRONT_SUFFIX)


@dataclass
class CloudfrontMapper:
    """Adjacency accumulator and mapping derivation.

    Attributes:
        adjacency: cf-host → Counter of adjacent second-level domains.
        dominance: Minimum share of adjacency mass the winning domain
            must hold for a confident mapping (the paper reports the
            mapping was "trivial" — near one-to-one).
    """

    adjacency: dict[str, Counter] = field(default_factory=dict)
    dominance: float = 0.6

    def observe_chain(self, chain_hosts: list[str]) -> None:
        """Record adjacencies from one inclusion chain (hosts, root first)."""
        for index, host in enumerate(chain_hosts):
            if not is_cloudfront_host(host):
                continue
            counter = self.adjacency.setdefault(host, Counter())
            for neighbor_index in (index - 1, index + 1):
                if 0 <= neighbor_index < len(chain_hosts):
                    neighbor = chain_hosts[neighbor_index]
                    if is_cloudfront_host(neighbor):
                        continue
                    counter[registrable_domain(neighbor)] += 1

    def merge(self, other: "CloudfrontMapper") -> None:
        """Fold another mapper's adjacency counts into this one."""
        for host, counter in other.adjacency.items():
            self.adjacency.setdefault(host, Counter()).update(counter)

    def derive_mapping(self, labeler: AaLabeler) -> dict[str, str]:
        """cf-host → tenant domain, for hosts adjacent to A&A domains.

        Only adjacent domains that are themselves A&A-labeled are
        candidates (the publisher embedding the script is adjacent too,
        but differs per chain and is rarely dominant; the tenant's own
        beacon/script domains repeat).
        """
        mapping: dict[str, str] = {}
        for host, counter in self.adjacency.items():
            aa_counts = {
                domain: count
                for domain, count in counter.items()
                if labeler.is_aa(domain)
            }
            if not aa_counts:
                continue
            winner, winner_count = max(aa_counts.items(), key=lambda kv: kv[1])
            if winner_count >= self.dominance * sum(aa_counts.values()):
                mapping[host] = winner
        return mapping
