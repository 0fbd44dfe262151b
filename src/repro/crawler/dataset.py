"""The study dataset: everything the analyses need, accumulated online.

The paper archived raw crawl output and analyzed it post-hoc; at
laptop scale we stream each page observation into compact aggregates
instead, keeping:

* every socket record (Tables 1–5 all need them),
* per-domain filter-tag counts (→ the A&A labeler),
* Cloudfront adjacency counts (→ the tenant mapping),
* per-domain HTTP item/received counters (→ Table 5's HTTP columns),
* inclusion-chain signatures with counts (→ the §4.2 blocking stats),
* per-crawl site lists (→ Table 1 denominators and Figure 3 bins).

Everything that needs the post-hoc A&A set stores *hosts*; analyses
resolve them through the derived labeler + Cloudfront mapping.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.content.ads import AdUnit
from repro.content.items import ReceivedClass, SentItem
from repro.content.received import classify_http_response
from repro.crawler.crawler import CrawlRunSummary
from repro.crawler.observation import PageObservation
from repro.filters import CompiledFilterEngine, EngineStats
from repro.labeling.aa_labeler import AaLabeler, DomainTagCounter
from repro.labeling.cloudfront import CloudfrontMapper, is_cloudfront_host
from repro.labeling.resolver import DomainResolver
from repro.net.domains import registrable_domain
from repro.net.http import ResourceType


@dataclass(frozen=True)
class SocketRecord:
    """One socket, reduced to what the tables need.

    ``partial`` marks records whose lifecycle events were lost in a
    lossy event stream — their frame/handshake data may be incomplete,
    but they still count as observed sockets.
    """

    crawl: int
    site_domain: str
    rank: int
    page_url: str
    socket_host: str
    initiator_host: str
    initiator_url: str
    chain_hosts: tuple[str, ...]
    chain_script_urls: tuple[str, ...]
    first_party_host: str
    cross_origin: bool
    handshake_cookie: bool
    sent_items: frozenset[SentItem]
    received_classes: frozenset[ReceivedClass]
    sent_nothing: bool
    received_nothing: bool
    ad_units: tuple[AdUnit, ...] = ()
    partial: bool = False


@dataclass(frozen=True)
class CrawlMeta:
    """One crawl's identity and denominators.

    Attributes:
        index: Crawl index (0–3 in the four-crawl study).
        label: Crawl window label (``"Chrome 57 #1"``…).
        sites: The crawl's ``(domain, rank)`` site list — Table 1's
            denominator and Figure 3's rank bins.
        pages: Pages observed during the crawl.
    """

    index: int
    label: str
    sites: tuple[tuple[str, int], ...] = ()
    pages: int = 0


@dataclass(frozen=True)
class DatasetMeta:
    """Typed dataset-level metadata the analyses need.

    Replaces the parallel ``crawl_sites``/``crawl_labels`` mappings
    that used to be threaded through every ``compute_table*``
    signature; persisted in the dataset JSONL header so a saved
    dataset is self-describing.
    """

    crawls: tuple[CrawlMeta, ...] = ()

    @property
    def crawl_sites(self) -> dict[int, list[tuple[str, int]]]:
        """The legacy crawl → site-list mapping."""
        return {c.index: list(c.sites) for c in self.crawls}

    @property
    def crawl_labels(self) -> dict[int, str]:
        """The legacy crawl → label mapping."""
        return {c.index: c.label for c in self.crawls}

    @property
    def crawl_indices(self) -> tuple[int, ...]:
        """Crawl indices present, sorted."""
        return tuple(sorted(c.index for c in self.crawls))

    @classmethod
    def from_mappings(
        cls,
        crawl_sites: dict[int, list[tuple[str, int]]],
        crawl_labels: dict[int, str] | None = None,
        crawl_pages: dict[int, int] | None = None,
    ) -> "DatasetMeta":
        """Build from the legacy mapping pair (labels default per crawl)."""
        crawl_labels = crawl_labels or {}
        crawl_pages = crawl_pages or {}
        return cls(crawls=tuple(
            CrawlMeta(
                index=index,
                label=crawl_labels.get(index, f"crawl {index}"),
                sites=tuple(
                    (domain, rank) for domain, rank in crawl_sites[index]
                ),
                pages=crawl_pages.get(index, 0),
            )
            for index in sorted(crawl_sites)
        ))


@dataclass(frozen=True)
class ChainSignature:
    """A deduplicated third-party inclusion-chain shape.

    Attributes:
        hosts: Chain hosts with the leading first-party hop removed.
        script_urls: Query-stripped script URLs along the chain.
        leaf_host: Host of the chain's leaf resource.
        leaf_is_script: Whether the leaf itself is a script.
    """

    hosts: tuple[str, ...]
    script_urls: tuple[str, ...]
    leaf_host: str
    leaf_is_script: bool


@dataclass
class StudyDataset:
    """Accumulates one or more crawls of the study.

    Also a fold over page observations: merging :meth:`spawn` partials
    in canonical site order gives exactly the dataset that observing
    every page in that order would, dict insertion order included.
    ``stats`` takes :meth:`observe`'s match telemetry (the engine's own
    stats by default, fresh ones in a partial) and :meth:`merge` adds a
    partial's in, so each match is charged to the engine once. A
    partial pickles and journals without its engine (``None`` on the
    far side); only :meth:`observe` needs one.
    """

    engine: CompiledFilterEngine | None
    socket_records: list[SocketRecord] = field(default_factory=list)
    tag_counter: DomainTagCounter = field(default_factory=DomainTagCounter)
    cf_mapper: CloudfrontMapper = field(default_factory=CloudfrontMapper)
    http_requests_by_host: Counter = field(default_factory=Counter)
    http_items_by_host: dict[str, Counter] = field(default_factory=dict)
    http_received_by_host: dict[str, Counter] = field(default_factory=dict)
    chain_signatures: Counter = field(default_factory=Counter)
    crawl_sites: dict[int, list[tuple[str, int]]] = field(default_factory=dict)
    crawl_pages: Counter = field(default_factory=Counter)
    crawl_labels: dict[int, str] = field(default_factory=dict)
    stats: EngineStats | None = None

    def __post_init__(self) -> None:
        if self.stats is None:
            self.stats = (
                self.engine.stats if self.engine is not None
                else EngineStats()
            )

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["engine"] = None
        return state

    # -- ingestion -----------------------------------------------------------

    def observe(self, page: PageObservation) -> None:
        """Stream in one page observation."""
        self.crawl_pages[page.crawl] += 1
        first_party_url = page.page_url
        first_party_domain = registrable_domain(page.site_domain)
        for resource in page.resources:
            matched = self.engine.match(
                resource.url, resource.resource_type, first_party_url,
                stats=self.stats,
            ).matched
            self.tag_counter.observe(resource.host, matched)
            if registrable_domain(resource.host) != first_party_domain:
                self._observe_http(resource)
            if any(is_cloudfront_host(h) for h in resource.chain_hosts):
                self.cf_mapper.observe_chain(list(resource.chain_hosts))
            self._observe_chain_signature(resource, first_party_domain)
        for socket in page.sockets:
            if any(is_cloudfront_host(h) for h in socket.chain_hosts):
                self.cf_mapper.observe_chain(list(socket.chain_hosts))
            self.socket_records.append(SocketRecord(
                crawl=page.crawl,
                site_domain=page.site_domain,
                rank=page.rank,
                page_url=page.page_url,
                socket_host=socket.host,
                initiator_host=socket.initiator_host,
                initiator_url=socket.initiator_url,
                chain_hosts=socket.chain_hosts,
                chain_script_urls=socket.chain_script_urls,
                first_party_host=socket.first_party_host,
                cross_origin=socket.cross_origin,
                handshake_cookie=socket.handshake_cookie,
                sent_items=socket.sent_items,
                received_classes=socket.received_classes,
                sent_nothing=socket.sent_nothing,
                received_nothing=socket.received_nothing,
                ad_units=socket.ad_units,
                partial=socket.partial,
            ))

    def spawn(self) -> "StudyDataset":
        """An empty partial on this dataset's engine, with its own stats."""
        return StudyDataset(engine=self.engine, stats=EngineStats())

    def merge(self, other: "StudyDataset") -> None:
        """Add a :meth:`spawn` partial's pages in.

        Site lists and labels are not part of a page fold: the
        accountant and the spool importer record those.
        """
        self.socket_records.extend(other.socket_records)
        self.tag_counter.merge(other.tag_counter)
        self.cf_mapper.merge(other.cf_mapper)
        self.http_requests_by_host.update(other.http_requests_by_host)
        for mine, theirs in (
            (self.http_items_by_host, other.http_items_by_host),
            (self.http_received_by_host, other.http_received_by_host),
        ):
            for host, bucket in theirs.items():
                mine.setdefault(host, Counter()).update(bucket)
        self.chain_signatures.update(other.chain_signatures)
        self.crawl_pages.update(other.crawl_pages)
        self.stats.merge(other.stats)

    def record_crawl(self, summary: CrawlRunSummary) -> None:
        """Register a finished crawl's site list and label."""
        self.crawl_sites[summary.config.index] = list(summary.sites)
        self.crawl_labels[summary.config.index] = summary.config.label

    # -- derived structures -----------------------------------------------------

    def derive_labeler(self, threshold: float = 0.1) -> AaLabeler:
        """Apply the §3.2 rule to the accumulated tag counts."""
        return AaLabeler.from_counts(self.tag_counter, threshold)

    def derive_resolver(self, labeler: AaLabeler | None = None) -> DomainResolver:
        """Derive the Cloudfront tenant mapping and wrap it."""
        labeler = labeler or self.derive_labeler()
        return DomainResolver(
            cloudfront_mapping=self.cf_mapper.derive_mapping(labeler)
        )

    @property
    def crawl_indices(self) -> list[int]:
        """Crawls present in the dataset, sorted."""
        return sorted(self.crawl_pages)

    @property
    def meta(self) -> DatasetMeta:
        """Typed metadata snapshot (labels, site lists, page counts)."""
        return DatasetMeta.from_mappings(
            self.crawl_sites, self.crawl_labels, dict(self.crawl_pages)
        )

    # -- internals ---------------------------------------------------------------

    def _observe_http(self, resource) -> None:
        host = resource.host
        self.http_requests_by_host[host] += 1
        if resource.sent_items:
            bucket = self.http_items_by_host.get(host)
            if bucket is None:
                bucket = Counter()
                self.http_items_by_host[host] = bucket
            for item in resource.sent_items:
                bucket[item] += 1
        received = classify_http_response(resource.mime_type)
        if received is not None:
            bucket = self.http_received_by_host.get(host)
            if bucket is None:
                bucket = Counter()
                self.http_received_by_host[host] = bucket
            bucket[received] += 1

    def _observe_chain_signature(self, resource, first_party_domain: str) -> None:
        hosts = resource.chain_hosts
        # Drop the first-party document hop: signatures describe the
        # third-party portion, which repeats across sites.
        trimmed = hosts[1:] if len(hosts) > 1 else hosts
        if not trimmed:
            return
        # Chains that never leave the first party cannot be A&A chains;
        # skip them (≈40% of all resources) to keep the signature table
        # small and the hot path fast.
        if all(
            registrable_domain(h) == first_party_domain for h in trimmed
        ):
            return
        self.chain_signatures[ChainSignature(
            hosts=trimmed,
            script_urls=resource.chain_script_urls,
            leaf_host=resource.host,
            leaf_is_script=resource.resource_type == ResourceType.SCRIPT,
        )] += 1
