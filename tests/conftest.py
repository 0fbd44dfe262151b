"""Shared fixtures.

The expensive fixtures (a tiny four-crawl study) are session-scoped:
they run once and feed the analysis/integration test modules.
"""

from __future__ import annotations

import pytest

from repro.browser import Browser
from repro.cdp import EventBus
from repro.experiments import StudyConfig
from repro.experiments.runner import analyze, run_crawls
from repro.filters import CompiledFilterEngine, parse_filter_list
from repro.web.filterlists import build_filter_engine
from repro.web.registry import default_registry
from repro.web.server import SyntheticWeb, WebScale

TINY_STUDY_CONFIG = StudyConfig(
    scale=0.03, sample_scale=0.002, pages_per_site=6, name="test-tiny"
)


@pytest.fixture(scope="session")
def registry():
    """The default company registry (scale-independent)."""
    return default_registry()


@pytest.fixture(scope="session")
def tiny_web(registry):
    """A small synthetic web sharing the session registry."""
    return SyntheticWeb(
        scale=WebScale(sample_scale=0.002, entity_scale=0.03),
        registry=registry,
    )


@pytest.fixture(scope="session")
def filter_engine(registry):
    """EasyList + EasyPrivacy engine for the synthetic ecosystem."""
    return build_filter_engine(registry)


@pytest.fixture(scope="session")
def tiny_study(tiny_web):
    """A complete (but small) four-crawl study with analysis."""
    dataset, summaries = run_crawls(tiny_web, TINY_STUDY_CONFIG)
    return analyze(TINY_STUDY_CONFIG, tiny_web, dataset, summaries)


@pytest.fixture()
def bus():
    """A fresh CDP event bus."""
    return EventBus()


@pytest.fixture()
def browser(bus):
    """A patched-Chrome (58) browser on a fresh bus."""
    return Browser(version=58, bus=bus)


@pytest.fixture()
def buggy_browser(bus):
    """A pre-patch Chrome (57) browser — has the webRequest bug."""
    return Browser(version=57, bus=bus)


@pytest.fixture()
def simple_engine():
    """A tiny hand-written filter engine for blocking tests."""
    text = "\n".join([
        "||ads.example^",
        "||tracker.example^$third-party",
        "||socketspy.example^$websocket",
        "@@||ads.example/acceptable/*$script",
        "/banner/$image",
    ])
    return CompiledFilterEngine([parse_filter_list("test", text)])
