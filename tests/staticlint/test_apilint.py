"""Tests for the package-boundary (API-PRIVATE) linter."""

import textwrap

from repro.staticlint.apilint import lint_api_self, lint_api_source


PACKAGES = frozenset({"repro", "repro.analysis", "repro.experiments"})


def _lint(path: str, source: str):
    return lint_api_source(path, textwrap.dedent(source),
                           packages=PACKAGES)


def _rules(report):
    return [d.rule_id for d in report.diagnostics]


class TestPrivateModules:
    def test_cross_package_from_import_flagged(self):
        report = _lint(
            "repro/experiments/runner.py",
            "from repro.analysis._codecs import encode_table5\n",
        )
        assert _rules(report) == ["API-PRIVATE"]
        assert "repro.analysis._codecs" in report.diagnostics[0].message
        assert "repro.analysis" in report.diagnostics[0].fix_hint

    def test_cross_package_plain_import_flagged(self):
        report = _lint(
            "repro/cli.py", "import repro.analysis._codecs\n"
        )
        assert _rules(report) == ["API-PRIVATE"]

    def test_private_member_of_package_flagged(self):
        report = _lint(
            "repro/cli.py", "from repro.analysis import _codecs\n"
        )
        assert _rules(report) == ["API-PRIVATE"]
        assert "repro.analysis" in report.diagnostics[0].message

    def test_without_package_knowledge_owner_is_parent(self):
        # No `packages` info: `repro.analysis` is assumed to be a plain
        # module, so `_codecs` is attributed to `repro` and any
        # repro.* importer passes.
        report = lint_api_source(
            "repro/cli.py", "from repro.analysis import _codecs\n"
        )
        assert _rules(report) == []

    def test_same_package_import_allowed(self):
        report = _lint(
            "repro/analysis/table5.py",
            "from repro.analysis._codecs import encode_table5\n",
        )
        assert _rules(report) == []

    def test_subpackage_import_allowed(self):
        report = _lint(
            "repro/analysis/deep/nested.py",
            "from repro.analysis._codecs import encode_table5\n",
        )
        assert _rules(report) == []


class TestPrivateNames:
    def test_private_name_cross_package_flagged(self):
        report = _lint(
            "repro/experiments/runner.py",
            "from repro.analysis.table1 import _coerce_meta\n",
        )
        assert _rules(report) == ["API-PRIVATE"]

    def test_private_name_same_package_allowed(self):
        report = _lint(
            "repro/analysis/figure3.py",
            "from repro.analysis.table1 import _coerce_meta\n",
        )
        assert _rules(report) == []

    def test_dunder_names_are_not_private(self):
        # In-package importer so the facade rule stays out of frame.
        report = _lint(
            "repro/analysis/figure3.py",
            "from repro.analysis.table1 import __doc__\n",
        )
        assert _rules(report) == []

    def test_public_names_pass(self):
        report = _lint(
            "repro/cli.py",
            "from repro.analysis import compute_table1\n",
        )
        assert _rules(report) == []


class TestFacade:
    def test_deep_from_import_flagged(self):
        report = _lint(
            "repro/cli.py",
            "from repro.filters.engine import linear_match\n",
        )
        assert _rules(report) == ["API-FACADE"]
        assert "repro.filters" in report.diagnostics[0].fix_hint
        assert "repro.api" in report.diagnostics[0].fix_hint

    def test_deep_plain_import_flagged(self):
        report = _lint(
            "repro/cli.py", "import repro.obs.history\n"
        )
        assert _rules(report) == ["API-FACADE"]

    def test_facade_import_allowed(self):
        report = _lint(
            "repro/cli.py", "from repro.serve import ServeService\n"
        )
        assert _rules(report) == []

    def test_in_package_deep_import_allowed(self):
        report = _lint(
            "repro/serve/service.py",
            "from repro.serve.types import CheckRequest\n",
        )
        assert _rules(report) == []

    def test_ungated_package_deep_import_allowed(self):
        report = _lint(
            "repro/cli.py",
            "from repro.crawler.dataset import StudyDataset\n",
        )
        assert _rules(report) == []

    def test_private_violation_wins_over_facade(self):
        # One finding per import: the sharper private-boundary rule.
        report = _lint(
            "repro/cli.py",
            "from repro.analysis._codecs import encode_table5\n",
        )
        assert _rules(report) == ["API-PRIVATE"]

    def test_pragma_suppresses_facade(self):
        report = _lint(
            "repro/cli.py",
            "from repro.filters.engine import linear_match  # api: allow\n",
        )
        assert _rules(report) == []


class TestScope:
    def test_relative_imports_ignored(self):
        report = _lint(
            "repro/analysis/table5.py", "from . import _codecs\n"
        )
        assert _rules(report) == []

    def test_non_repro_modules_ignored(self):
        report = _lint(
            "repro/cli.py", "from collections import _count_elements\n"
        )
        assert _rules(report) == []

    def test_pragma_suppresses(self):
        report = _lint(
            "repro/cli.py",
            "from repro.analysis import _codecs  # api: allow\n",
        )
        assert _rules(report) == []

    def test_syntax_error_reported(self):
        report = _lint("repro/x.py", "def broken(:\n")
        assert _rules(report) == ["API-SYNTAX"]

    def test_package_init_owns_its_package(self):
        report = _lint(
            "repro/analysis/__init__.py",
            "from repro.analysis import _codecs\n",
        )
        assert _rules(report) == []


def test_repro_package_is_clean():
    """The repo's own source must respect its package boundaries."""
    report = lint_api_self()
    assert _rules(report) == []
