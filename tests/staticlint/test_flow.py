"""Zone contracts on fixture trees: one seeded violation per contract.

Each fixture builds a miniature ``repro`` package in a tmp dir whose
violation is *interprocedural* — the effect originates two or more
calls away from the zone entry point, where the per-file DET rules are
blind — and asserts the full call chain is rendered in the diagnostic.
"""

from pathlib import Path

import pytest

from repro.staticlint.flow import (
    DEFAULT_LAYERS,
    FlowConfig,
    analyze_self,
    analyze_tree,
)


def _tree(tmp_path: Path, files: dict[str, str]) -> Path:
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return tmp_path / "repro"


_INITS = {
    "repro/__init__.py": "",
    "repro/util/__init__.py": "",
    "repro/crawler/__init__.py": "",
}


class TestDeterminismZone:
    def test_interprocedural_wallclock_leak(self, tmp_path):
        # crawl -> stamp -> now_ms -> time.time(): the wallclock read
        # sits TWO calls outside the zone; no single-file rule sees it.
        root = _tree(tmp_path, {
            **_INITS,
            "repro/util/helpers.py": (
                "import time\n"
                "def now_ms():\n"
                "    return int(time.time() * 1000)\n"
                "def stamp(record):\n"
                "    record['t'] = now_ms()\n"
            ),
            "repro/crawler/core.py": (
                "from repro.util.helpers import stamp\n"
                "def crawl(record):\n"
                "    stamp(record)\n"
            ),
        })
        analysis = analyze_tree(root, root=tmp_path)
        findings = analysis.flow_report.by_rule("FLOW-DET")
        assert len(findings) == 1
        diag = findings[0]
        assert diag.source == "repro/crawler/core.py:2"
        assert diag.trace == (
            "repro.crawler.core.crawl",
            "repro.util.helpers.stamp",
            "repro.util.helpers.now_ms",
        )
        # Chain and origin are rendered for humans too.
        assert ("repro.crawler.core.crawl -> repro.util.helpers.stamp "
                "-> repro.util.helpers.now_ms") in diag.message
        assert "time.time at repro/util/helpers.py:3" in diag.message
        assert (diag.rule_id, diag.trace[0]) == (
            "FLOW-DET", "repro.crawler.core.crawl"
        )

    def test_only_the_crossing_point_is_flagged(self, tmp_path):
        # outer -> crawl -> (out-of-zone) stamp: the effect enters the
        # zone at crawl; outer merely inherits it from an in-zone
        # callee and is not re-flagged.
        root = _tree(tmp_path, {
            **_INITS,
            "repro/util/helpers.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()\n"
            ),
            "repro/crawler/core.py": (
                "from repro.util.helpers import stamp\n"
                "def crawl():\n"
                "    return stamp()\n"
                "def outer():\n"
                "    return crawl()\n"
            ),
        })
        analysis = analyze_tree(root, root=tmp_path)
        flagged = [d.trace[0] for d in
                   analysis.flow_report.by_rule("FLOW-DET")]
        assert flagged == ["repro.crawler.core.crawl"]

    def test_sanctioned_rng_boundary_absorbs_entropy(self, tmp_path):
        root = _tree(tmp_path, {
            **_INITS,
            "repro/util/rng.py": (
                "import random\n"
                "def draw(seed):\n"
                "    return random.Random(seed).random()\n"
            ),
            "repro/crawler/core.py": (
                "from repro.util.rng import draw\n"
                "def crawl(seed):\n"
                "    return draw(seed)\n"
            ),
        })
        analysis = analyze_tree(root, root=tmp_path)
        assert analysis.flow_report.by_rule("FLOW-DET") == []
        # The sanctioned module itself still carries the effect —
        # only propagation across its boundary is masked.
        assert "rng" in analysis.effects["repro.util.rng:draw"]
        assert "rng" not in analysis.effects["repro.crawler.core:crawl"]


class TestAsyncReadiness:
    def test_interprocedural_blocking_io_on_hot_path(self, tmp_path):
        root = _tree(tmp_path, {
            **_INITS,
            "repro/browser/__init__.py": "",
            "repro/util/disk.py": (
                "def read_blob(path):\n"
                "    with open(path, 'rb') as f:\n"
                "        return f.read()\n"
                "def load_profile(path):\n"
                "    return read_blob(path)\n"
            ),
            "repro/browser/page.py": (
                "from repro.util.disk import load_profile\n"
                "def navigate(path):\n"
                "    return load_profile(path)\n"
            ),
        })
        analysis = analyze_tree(root, root=tmp_path)
        findings = analysis.flow_report.by_rule("FLOW-ASYNC")
        assert len(findings) == 1
        diag = findings[0]
        assert diag.trace == (
            "repro.browser.page.navigate",
            "repro.util.disk.load_profile",
            "repro.util.disk.read_blob",
        )
        assert "blocking-io" in diag.message
        assert "2 call(s) deep" in diag.message

    def test_off_hot_path_io_is_fine(self, tmp_path):
        root = _tree(tmp_path, {
            **_INITS,
            "repro/analysis/__init__.py": "",
            "repro/analysis/export.py": (
                "def dump(path, text):\n"
                "    path.write_text(text)\n"
            ),
        })
        analysis = analyze_tree(root, root=tmp_path)
        assert analysis.flow_report.by_rule("FLOW-ASYNC") == []

    def test_async_finding_gates_the_exit_code(self, tmp_path):
        from repro.staticlint.runner import FullLintResult

        root = _tree(tmp_path, {
            **_INITS,
            "repro/cdp/__init__.py": "",
            "repro/cdp/archive.py": (
                "def load(path):\n"
                "    return open(path).read()\n"
            ),
        })
        analysis = analyze_tree(root, root=tmp_path)
        result = FullLintResult(flow_report=analysis.flow_report)
        for diag in analysis.flow_report.diagnostics:
            result.report.add(diag)
        assert [d.rule_id for d in result.report.errors] == ["FLOW-ASYNC"]
        assert result.exit_code == 1


class TestLayering:
    def test_upward_import_is_flagged(self, tmp_path):
        root = _tree(tmp_path, {
            **_INITS,
            "repro/crawler/core.py": "",
            "repro/util/leaky.py": "from repro.crawler import core\n",
        })
        analysis = analyze_tree(root, root=tmp_path)
        findings = analysis.flow_report.by_rule("FLOW-LAYER")
        assert len(findings) == 1
        diag = findings[0]
        assert diag.source == "repro/util/leaky.py:1"
        assert "util (layer 0)" in diag.message
        assert "crawler" in diag.message

    def test_downward_import_is_fine(self, tmp_path):
        root = _tree(tmp_path, {
            **_INITS,
            "repro/util/helpers.py": "",
            "repro/crawler/core.py": "from repro.util import helpers\n",
        })
        analysis = analyze_tree(root, root=tmp_path)
        assert analysis.flow_report.by_rule("FLOW-LAYER") == []

    def test_undeclared_package_warns(self, tmp_path):
        root = _tree(tmp_path, {
            **_INITS,
            "repro/mystery/__init__.py": "",
            "repro/mystery/x.py": "from repro.util import helpers\n",
            "repro/util/helpers.py": "",
        })
        analysis = analyze_tree(root, root=tmp_path)
        warnings = [d for d in analysis.flow_report.by_rule("FLOW-LAYER")
                    if "not in the declared layer DAG" in d.message]
        assert len(warnings) == 1
        assert "'mystery'" in warnings[0].message

    def test_package_cycle_is_flagged(self, tmp_path):
        # net and cdp share layer 1: neither import is "upward", but
        # together they form a cycle only the SCC pass can see.
        root = _tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/net/__init__.py": "",
            "repro/cdp/__init__.py": "",
            "repro/net/chan.py": "from repro.cdp import bus\n",
            "repro/cdp/bus.py": "from repro.net import chan\n",
        })
        analysis = analyze_tree(root, root=tmp_path)
        findings = analysis.flow_report.by_rule("FLOW-CYCLE")
        assert len(findings) == 1
        assert "cdp <-> net" in findings[0].message
        layer = analysis.flow_report.by_rule("FLOW-LAYER")
        assert layer == []


class TestCustomConfig:
    def test_zones_and_layers_are_configurable(self, tmp_path):
        root = _tree(tmp_path, {
            **_INITS,
            "repro/util/helpers.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()\n"
            ),
            "repro/crawler/core.py": (
                "from repro.util.helpers import stamp\n"
                "def crawl():\n"
                "    return stamp()\n"
            ),
        })
        relaxed = FlowConfig(
            determinism_zones=frozenset(),
            hot_path_prefixes=(),
            layers=dict(DEFAULT_LAYERS),
        )
        analysis = analyze_tree(root, root=tmp_path, config=relaxed)
        assert len(analysis.flow_report) == 0


class TestPerfReadonlyZone:
    """OBS-PERF: the perf observatory must not write the filesystem."""

    _OBS_INITS = {
        "repro/__init__.py": "",
        "repro/obs/__init__.py": "",
    }

    def test_interprocedural_write_leak_is_flagged(self, tmp_path):
        # flame -> export -> dump -> write_text: the write sits TWO
        # calls outside the read-only zone.
        root = _tree(tmp_path, {
            **self._OBS_INITS,
            "repro/obs/export.py": (
                "def dump(path, text):\n"
                "    path.write_text(text)\n"
                "def export(path, report):\n"
                "    dump(path, str(report))\n"
            ),
            "repro/obs/perf.py": (
                "from repro.obs.export import export\n"
                "def flame(path, report):\n"
                "    export(path, report)\n"
            ),
        })
        analysis = analyze_tree(root, root=tmp_path)
        findings = analysis.flow_report.by_rule("OBS-PERF")
        assert len(findings) == 1
        diag = findings[0]
        assert diag.source == "repro/obs/perf.py:2"
        assert diag.trace == (
            "repro.obs.perf.flame",
            "repro.obs.export.export",
            "repro.obs.export.dump",
        )
        assert "fs-write" in diag.message
        assert "repro.obs.history" in diag.fix_hint
        assert (diag.rule_id, diag.trace[0]) == (
            "OBS-PERF", "repro.obs.perf.flame"
        )

    def test_critical_path_module_is_in_the_zone(self, tmp_path):
        root = _tree(tmp_path, {
            **self._OBS_INITS,
            "repro/obs/critical_path.py": (
                "def cache_tree(path, tree):\n"
                "    path.write_text(str(tree))\n"
            ),
        })
        analysis = analyze_tree(root, root=tmp_path)
        findings = analysis.flow_report.by_rule("OBS-PERF")
        assert [(d.rule_id, d.trace[0]) for d in findings] == [
            ("OBS-PERF", "repro.obs.critical_path.cache_tree")
        ]

    def test_history_sink_absorbs_the_write(self, tmp_path):
        # Persistence routed through the sanctioned history module is
        # the designed shape — no finding.
        root = _tree(tmp_path, {
            **self._OBS_INITS,
            "repro/obs/history.py": (
                "def append(path, line):\n"
                "    with path.open('a') as handle:\n"
                "        handle.write(line)\n"
            ),
            "repro/obs/perf.py": (
                "from repro.obs.history import append\n"
                "def flame_and_persist(path, report):\n"
                "    append(path, str(report))\n"
            ),
        })
        analysis = analyze_tree(root, root=tmp_path)
        assert analysis.flow_report.by_rule("OBS-PERF") == []
        # The mask silences the zone finding only; the effect summary
        # never lies — both functions still show the write.
        assert "fs-write" in analysis.effects["repro.obs.history:append"]
        assert "fs-write" in \
            analysis.effects["repro.obs.perf:flame_and_persist"]

    def test_reading_traces_is_fine(self, tmp_path):
        root = _tree(tmp_path, {
            **self._OBS_INITS,
            "repro/obs/perf.py": (
                "import json\n"
                "def load(path):\n"
                "    with open(path) as handle:\n"
                "        return [json.loads(l) for l in handle]\n"
            ),
        })
        analysis = analyze_tree(root, root=tmp_path)
        assert analysis.flow_report.by_rule("OBS-PERF") == []

    def test_writes_outside_the_zone_are_not_obs_perf(self, tmp_path):
        root = _tree(tmp_path, {
            **self._OBS_INITS,
            "repro/obs/recorder.py": (
                "def write_trace(path, text):\n"
                "    path.write_text(text)\n"
            ),
        })
        analysis = analyze_tree(root, root=tmp_path)
        assert analysis.flow_report.by_rule("OBS-PERF") == []


class TestSpoolReadonlyZone:
    """SPOOL-RO: crash recovery must not write the filesystem."""

    _SPOOL_INITS = {
        "repro/__init__.py": "",
        "repro/spool/__init__.py": "",
    }

    def test_interprocedural_repair_leak_is_flagged(self, tmp_path):
        # recover -> patch -> rewrite: the write sits TWO calls
        # outside the read-only zone.
        root = _tree(tmp_path, {
            **self._SPOOL_INITS,
            "repro/spool/repair.py": (
                "def rewrite(path, data):\n"
                "    path.write_bytes(data)\n"
                "def patch(path, data):\n"
                "    rewrite(path, data)\n"
            ),
            "repro/spool/recovery.py": (
                "from repro.spool.repair import patch\n"
                "def recover(path, data):\n"
                "    patch(path, data)\n"
            ),
        })
        analysis = analyze_tree(root, root=tmp_path)
        findings = analysis.flow_report.by_rule("SPOOL-RO")
        assert len(findings) == 1
        diag = findings[0]
        assert diag.source == "repro/spool/recovery.py:2"
        assert diag.trace == (
            "repro.spool.recovery.recover",
            "repro.spool.repair.patch",
            "repro.spool.repair.rewrite",
        )
        assert "fs-write" in diag.message
        assert "truncate_segment" in diag.fix_hint
        assert (diag.rule_id, diag.trace[0]) == (
            "SPOOL-RO", "repro.spool.recovery.recover"
        )

    def test_truncate_sink_absorbs_the_write(self, tmp_path):
        # The one sanctioned repair — truncation routed through
        # repro.spool.segment — is the designed shape; no finding.
        root = _tree(tmp_path, {
            **self._SPOOL_INITS,
            "repro/spool/segment.py": (
                "def truncate_segment(path, size):\n"
                "    with path.open('r+b') as handle:\n"
                "        handle.truncate(size)\n"
            ),
            "repro/spool/recovery.py": (
                "from repro.spool.segment import truncate_segment\n"
                "def recover(path, size):\n"
                "    truncate_segment(path, size)\n"
            ),
        })
        analysis = analyze_tree(root, root=tmp_path)
        assert analysis.flow_report.by_rule("SPOOL-RO") == []
        # The mask silences the zone finding only; the effect summary
        # never lies — both functions still show the write.
        assert "fs-write" in \
            analysis.effects["repro.spool.segment:truncate_segment"]
        assert "fs-write" in \
            analysis.effects["repro.spool.recovery:recover"]

    def test_scanning_segments_is_fine(self, tmp_path):
        root = _tree(tmp_path, {
            **self._SPOOL_INITS,
            "repro/spool/recovery.py": (
                "def scan(path):\n"
                "    with open(path, 'rb') as handle:\n"
                "        return handle.read()\n"
            ),
        })
        analysis = analyze_tree(root, root=tmp_path)
        assert analysis.flow_report.by_rule("SPOOL-RO") == []

    def test_writes_outside_the_zone_are_not_spool_ro(self, tmp_path):
        root = _tree(tmp_path, {
            **self._SPOOL_INITS,
            "repro/spool/store.py": (
                "def append(path, data):\n"
                "    path.write_bytes(data)\n"
            ),
        })
        analysis = analyze_tree(root, root=tmp_path)
        assert analysis.flow_report.by_rule("SPOOL-RO") == []

    def test_spool_finding_gates_the_exit_code(self, tmp_path):
        from repro.staticlint.runner import FullLintResult

        root = _tree(tmp_path, {
            **self._SPOOL_INITS,
            "repro/spool/recovery.py": (
                "def recover(path, data):\n"
                "    path.write_bytes(data)\n"
            ),
        })
        analysis = analyze_tree(root, root=tmp_path)
        result = FullLintResult(flow_report=analysis.flow_report)
        for diag in analysis.flow_report.diagnostics:
            result.report.add(diag)
        assert [d.rule_id for d in result.report.errors] == ["SPOOL-RO"]
        assert result.exit_code == 1


class TestServeReadonlyZone:
    """SERVE-RO: answering a serve query must not write the filesystem."""

    _SERVE_INITS = {
        "repro/__init__.py": "",
        "repro/serve/__init__.py": "",
    }

    def test_interprocedural_dispatch_write_leak_is_flagged(self, tmp_path):
        # handle -> audit -> record: the write sits two calls outside
        # the shared-snapshot dispatch path.
        root = _tree(tmp_path, {
            **self._SERVE_INITS,
            "repro/serve/audit.py": (
                "def record(path, line):\n"
                "    path.write_text(line)\n"
                "def audit(path, line):\n"
                "    record(path, line)\n"
            ),
            "repro/serve/service.py": (
                "from repro.serve.audit import audit\n"
                "def handle(path, request):\n"
                "    audit(path, request)\n"
            ),
        })
        analysis = analyze_tree(root, root=tmp_path)
        findings = analysis.flow_report.by_rule("SERVE-RO")
        assert len(findings) == 1
        diag = findings[0]
        assert diag.source == "repro/serve/service.py:2"
        assert diag.trace == (
            "repro.serve.service.handle",
            "repro.serve.audit.audit",
            "repro.serve.audit.record",
        )
        assert "fs-write" in diag.message
        assert "snapshots" in diag.fix_hint
        assert (diag.rule_id, diag.trace[0]) == (
            "SERVE-RO", "repro.serve.service.handle"
        )

    def test_snapshot_builders_are_in_the_zone(self, tmp_path):
        # Building a snapshot writes nothing; only the transcript
        # writer sits outside the read-only zone.
        root = _tree(tmp_path, {
            **self._SERVE_INITS,
            "repro/serve/snapshot.py": (
                "def build(path, data):\n"
                "    path.write_bytes(data)\n"
            ),
            "repro/serve/transcript.py": (
                "def write_transcript(path, lines):\n"
                "    path.write_text(lines)\n"
            ),
        })
        analysis = analyze_tree(root, root=tmp_path)
        findings = analysis.flow_report.by_rule("SERVE-RO")
        assert [(d.rule_id, d.trace[0]) for d in findings] == [
            ("SERVE-RO", "repro.serve.snapshot.build")
        ]

    def test_read_only_dispatch_is_fine(self, tmp_path):
        root = _tree(tmp_path, {
            **self._SERVE_INITS,
            "repro/serve/service.py": (
                "def handle(path):\n"
                "    with open(path, 'rb') as handle:\n"
                "        return handle.read()\n"
            ),
        })
        analysis = analyze_tree(root, root=tmp_path)
        assert analysis.flow_report.by_rule("SERVE-RO") == []

    def test_workers_are_in_the_zone(self, tmp_path):
        root = _tree(tmp_path, {
            **self._SERVE_INITS,
            "repro/serve/workers.py": (
                "def run(path, data):\n"
                "    path.write_bytes(data)\n"
            ),
        })
        analysis = analyze_tree(root, root=tmp_path)
        findings = analysis.flow_report.by_rule("SERVE-RO")
        assert [(d.rule_id, d.trace[0]) for d in findings] == [
            ("SERVE-RO", "repro.serve.workers.run")
        ]

    def test_serve_finding_gates_the_exit_code(self, tmp_path):
        from repro.staticlint.runner import FullLintResult

        root = _tree(tmp_path, {
            **self._SERVE_INITS,
            "repro/serve/types.py": (
                "def decode(path, data):\n"
                "    path.write_bytes(data)\n"
            ),
        })
        analysis = analyze_tree(root, root=tmp_path)
        result = FullLintResult(flow_report=analysis.flow_report)
        for diag in analysis.flow_report.diagnostics:
            result.report.add(diag)
        assert [d.rule_id for d in result.report.errors] == ["SERVE-RO"]
        assert result.exit_code == 1


class TestSelfAnalysis:
    @pytest.fixture(scope="class")
    def self_analysis(self):
        return analyze_self()

    def test_repro_determinism_zones_are_clean(self, self_analysis):
        assert self_analysis.flow_report.by_rule("FLOW-DET") == []

    def test_repro_perf_zone_is_clean(self, self_analysis):
        assert self_analysis.flow_report.by_rule("OBS-PERF") == []

    def test_repro_spool_recovery_is_read_only(self, self_analysis):
        assert self_analysis.flow_report.by_rule("SPOOL-RO") == []

    def test_repro_serving_is_read_only(self, self_analysis):
        assert self_analysis.flow_report.by_rule("SERVE-RO") == []

    def test_repro_facade_boundaries_hold(self, self_analysis):
        # repro.api (plus the package facades) is the only sanctioned
        # cross-package import surface for the gated packages.
        assert self_analysis.api_report.by_rule("API-FACADE") == []

    def test_repro_layering_holds(self, self_analysis):
        assert self_analysis.flow_report.by_rule("FLOW-LAYER") == []
        assert self_analysis.flow_report.by_rule("FLOW-CYCLE") == []

    def test_repro_flow_report_is_empty(self, self_analysis):
        # No FLOW rule holds an accepted finding: the crawl hot path
        # reaches no blocking I/O, and any new finding fails the gate.
        assert self_analysis.flow_report.diagnostics == []

    def test_single_parse_matches_standalone_linters(self, self_analysis):
        from repro.staticlint.apilint import lint_api_self
        from repro.staticlint.determinism import lint_self

        assert [d.format() for d in self_analysis.det_report.diagnostics] == [
            d.format() for d in lint_self().canonical().diagnostics
        ]
        assert [d.format() for d in self_analysis.api_report.diagnostics] == [
            d.format() for d in lint_api_self().canonical().diagnostics
        ]

    def test_reports_are_byte_stable(self, self_analysis):
        again = analyze_self()
        assert [d.to_json() for d in self_analysis.flow_report.diagnostics] \
            == [d.to_json() for d in again.flow_report.diagnostics]
