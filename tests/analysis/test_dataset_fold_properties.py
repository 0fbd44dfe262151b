"""Property tests: the study dataset is a mergeable fold over pages.

Shards label their own sites into ``StudyDataset.spawn()`` partials and
the parent merges them in canonical order; a resumed study and the
spool importer merge journaled partials instead. For any split of a
real crawl's page observations into contiguous parts, merging the
parts' partials in order must equal observing every page into one
dataset: the same dataset fingerprint (socket-record order included)
and the same filter-engine telemetry. Merged in any order, the
aggregate preamble lines must still be the same.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crawler.crawler import CrawlConfig, Crawler
from repro.crawler.dataset import StudyDataset
from repro.crawler.persistence import (
    dataset_fingerprint,
    dataset_preamble,
    fold_from_json,
    fold_to_json,
)
from repro.filters import EngineStats
from repro.util.serialization import dumps

SITES = 60
MAX_PARTS = 6


@pytest.fixture(scope="module")
def pages(tiny_web):
    """Page observations of a tiny crawl, sockets included."""
    observed = []
    config = CrawlConfig(index=0, label="fold", chrome_major=57,
                         start_date="2017-04-02", pages_per_site=2)
    Crawler(tiny_web, config, observers=[observed.append]).run(
        tiny_web.seed_list.sites[:SITES]
    )
    assert any(page.sockets for page in observed)
    return observed


def _observed(engine, pages) -> StudyDataset:
    dataset = StudyDataset(engine=engine, stats=EngineStats())
    for page in pages:
        dataset.observe(page)
    return dataset


def _parts(pages, cuts) -> list[list]:
    bounds = [0] + sorted(cuts) + [len(pages)]
    return [pages[start:stop] for start, stop in zip(bounds, bounds[1:])]


def _preamble(dataset) -> list[str]:
    return [dumps(line) for line in dataset_preamble(dataset)]


@st.composite
def splits(draw):
    """(cut points into the page list, merge order of the parts)."""
    cuts = draw(st.lists(st.integers(min_value=0, max_value=2 * SITES),
                         max_size=MAX_PARTS - 1))
    order = draw(st.permutations(range(len(cuts) + 1)))
    return cuts, order


@given(plan=splits())
@settings(max_examples=20, deadline=None)
def test_merged_partials_equal_one_fold(plan, pages, filter_engine):
    cuts, order = plan
    expected = _observed(filter_engine, pages)
    root = StudyDataset(engine=filter_engine, stats=EngineStats())
    partials = []
    for part in _parts(pages, cuts):
        partial = root.spawn()
        for page in part:
            partial.observe(page)
        partials.append(partial)

    shuffled = StudyDataset(engine=filter_engine, stats=EngineStats())
    for index in order:
        shuffled.merge(partials[index])
    for partial in partials:
        root.merge(partial)

    assert dataset_fingerprint(root) == dataset_fingerprint(expected)
    assert root.crawl_pages == expected.crawl_pages
    assert root.stats == expected.stats
    assert root.stats.matches == sum(len(p.resources) for p in pages)
    assert _preamble(shuffled) == _preamble(expected)
    assert shuffled.stats == expected.stats


def test_journaled_partials_merge_to_the_live_dataset(pages, filter_engine):
    """Per-site partials through the journal codec (and JSON) merge to
    the dataset that observing every page gives, and charge nothing."""
    expected = _observed(filter_engine, pages)
    merged = StudyDataset(engine=None)
    for site in sorted({page.rank for page in pages}):
        partial = expected.spawn()
        for page in pages:
            if page.rank == site:
                partial.observe(page)
        merged.merge(fold_from_json(json.loads(dumps(fold_to_json(partial)))))
    assert dataset_fingerprint(merged) == dataset_fingerprint(expected)
    assert merged.crawl_pages == expected.crawl_pages
    assert merged.stats == EngineStats()
