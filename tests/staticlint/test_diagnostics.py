"""The diagnostic model: canonical ordering, dedupe, and JSON form."""

import json

from repro.staticlint.diagnostics import Diagnostic, LintReport, Severity


def _diag(source, rule="DET-WALLCLOCK", message="m", **kw):
    return Diagnostic(
        rule_id=rule, severity=Severity.ERROR, source=source,
        message=message, **kw,
    )


class TestSourceParsing:
    def test_file_and_line_split(self):
        diag = _diag("repro/crawler/core.py:42")
        assert diag.file == "repro/crawler/core.py"
        assert diag.line == 42

    def test_source_without_line(self):
        diag = _diag("||ads.example^$websocket")
        assert diag.file == "||ads.example^$websocket"
        assert diag.line == 0


class TestCanonical:
    def test_sorts_by_file_line_rule(self):
        report = LintReport()
        report.add(_diag("repro/b.py:5", rule="DET-RNG"))
        report.add(_diag("repro/a.py:9", rule="FLOW-DET"))
        report.add(_diag("repro/b.py:5", rule="API-PRIVATE"))
        report.add(_diag("repro/a.py:2", rule="DET-WALLCLOCK"))
        ordered = [(d.source, d.rule_id)
                   for d in report.canonical().diagnostics]
        assert ordered == [
            ("repro/a.py:2", "DET-WALLCLOCK"),
            ("repro/a.py:9", "FLOW-DET"),
            ("repro/b.py:5", "API-PRIVATE"),
            ("repro/b.py:5", "DET-RNG"),
        ]

    def test_dedupes_identical_findings(self):
        report = LintReport()
        report.add(_diag("repro/a.py:1"))
        report.add(_diag("repro/a.py:1"))
        report.add(_diag("repro/a.py:1", message="different"))
        assert len(report.canonical()) == 2

    def test_emission_order_never_changes_output(self):
        # The byte-stability pin: any permutation of analyzer emission
        # order canonicalizes to the identical serialized report.
        diags = [
            _diag("repro/c.py:3", rule="FLOW-ASYNC"),
            _diag("repro/a.py:7", rule="DET-RNG"),
            _diag("repro/b.py:1", rule="API-PRIVATE"),
            _diag("repro/a.py:7", rule="DET-ORDER"),
        ]
        forward = LintReport(list(diags))
        backward = LintReport(list(reversed(diags)))
        rotated = LintReport(diags[2:] + diags[:2])
        rendered = [
            json.dumps([d.to_json() for d in r.canonical().diagnostics],
                       sort_keys=True)
            for r in (forward, backward, rotated)
        ]
        assert rendered[0] == rendered[1] == rendered[2]

    def test_canonical_is_idempotent(self):
        report = LintReport()
        report.add(_diag("repro/b.py:2"))
        report.add(_diag("repro/a.py:4"))
        once = report.canonical()
        twice = once.canonical()
        assert [d.to_json() for d in once.diagnostics] == [
            d.to_json() for d in twice.diagnostics
        ]


class TestJsonForm:
    def test_schema_fields(self):
        diag = _diag(
            "repro/crawler/core.py:12",
            rule="FLOW-DET",
            trace=("repro.crawler.core.crawl", "repro.util.helpers.now"),
        )
        payload = diag.to_json()
        assert payload == {
            "rule": "FLOW-DET",
            "severity": "error",
            "source": "repro/crawler/core.py:12",
            "file": "repro/crawler/core.py",
            "line": 12,
            "message": "m",
            "fix_hint": "",
            "trace": ["repro.crawler.core.crawl", "repro.util.helpers.now"],
        }
        # The object must be JSON-serializable as-is (the --json path).
        assert json.loads(json.dumps(payload)) == payload
