"""The unified diagnostic model shared by all three analyzers.

Every finding — a dead filter rule, a scheme-blind webRequest pattern, a
wall-clock read in the simulator — is a :class:`Diagnostic`: a stable
rule id, a severity, a source location, a human message, and (when the
fix is mechanical) a fix hint. Analyzers return :class:`LintReport`
objects, which merge and render uniformly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable


class Severity(enum.Enum):
    """How bad a finding is.

    ERROR findings fail CI (``repro lint --self``); WARNING findings
    describe real but non-breaking defects; INFO findings are
    observations (e.g. redundant exception coverage).
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        """Sort key: errors first."""
        return {"error": 0, "warning": 1, "info": 2}[self.value]


@dataclass(frozen=True)
class Diagnostic:
    """One finding.

    Attributes:
        rule_id: Stable identifier, e.g. ``FL-WS-BLINDSPOT``. The prefix
            names the analyzer (``FL`` filter lists, ``WR`` webRequest,
            ``DET`` determinism, ``API`` boundaries, ``FLOW`` the
            whole-program effect analyzer).
        severity: See :class:`Severity`.
        source: Location string — ``listname:line`` for filter rules,
            ``path:line`` for source findings, a pattern string for
            webRequest findings.
        message: Human-readable description of the defect.
        fix_hint: A mechanical fix when one exists (e.g. the exact rule
            to add), else empty.
        trace: For interprocedural findings, the call chain from the
            violating entry point to the effect's origin, as display
            names (``repro.crawler.crawler.Crawler.crawl_site``, …).
    """

    rule_id: str
    severity: Severity
    source: str
    message: str
    fix_hint: str = ""
    trace: tuple[str, ...] = ()

    @property
    def file(self) -> str:
        """The path part of ``source`` (everything before a trailing
        ``:line``), or the whole source when it carries no line."""
        path, _, line = self.source.rpartition(":")
        return path if path and line.isdigit() else self.source

    @property
    def line(self) -> int:
        """The line part of ``source``, or 0 when it carries none."""
        _, _, line = self.source.rpartition(":")
        return int(line) if line.isdigit() else 0

    def sort_key(self) -> tuple:
        """Canonical ordering: (file, line, rule, message) — stable
        regardless of the order analyzers emitted findings in."""
        return (self.file, self.line, self.rule_id, self.message,
                self.fix_hint)

    def to_json(self) -> dict:
        """The machine-readable form emitted by ``repro lint --json``."""
        return {
            "rule": self.rule_id,
            "severity": self.severity.value,
            "source": self.source,
            "file": self.file,
            "line": self.line,
            "message": self.message,
            "fix_hint": self.fix_hint,
            "trace": list(self.trace),
        }

    def format(self) -> str:
        """One-line rendering: ``severity rule-id source: message``."""
        text = f"{self.severity.value:7s} {self.rule_id:16s} {self.source}: {self.message}"
        if self.fix_hint:
            text += f"  [fix: {self.fix_hint}]"
        return text


@dataclass
class LintReport:
    """An ordered collection of diagnostics from one or more analyzers.

    Attributes:
        diagnostics: Findings in analyzer emission order (already
            deterministic: analyzers iterate rules/files in stable
            order).
    """

    diagnostics: list[Diagnostic] = field(default_factory=list)

    def add(self, diagnostic: Diagnostic) -> None:
        """Append one finding."""
        self.diagnostics.append(diagnostic)

    def extend(self, other: "LintReport | Iterable[Diagnostic]") -> None:
        """Merge another report (or plain diagnostics) into this one."""
        if isinstance(other, LintReport):
            self.diagnostics.extend(other.diagnostics)
        else:
            self.diagnostics.extend(other)

    @property
    def categories(self) -> list[str]:
        """Distinct rule ids present, sorted."""
        return sorted({d.rule_id for d in self.diagnostics})

    @property
    def errors(self) -> list[Diagnostic]:
        """ERROR-severity findings only."""
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    def by_rule(self, rule_id: str) -> list[Diagnostic]:
        """Findings for one rule id."""
        return [d for d in self.diagnostics if d.rule_id == rule_id]

    def counts(self) -> dict[str, int]:
        """Findings per rule id, keyed in sorted order."""
        out: dict[str, int] = {}
        for rule_id in self.categories:
            out[rule_id] = len(self.by_rule(rule_id))
        return out

    def sorted_by_severity(self) -> list[Diagnostic]:
        """Diagnostics with errors first, stable within a severity."""
        return sorted(self.diagnostics, key=lambda d: d.severity.rank)

    def canonical(self) -> "LintReport":
        """A byte-stable view: findings stable-sorted by (file, line,
        rule, message) and exact duplicates (same rule, source, and
        message — e.g. the same defect reached by two analyzers or two
        traversal orders) collapsed to one.

        ``repro lint`` renders and serializes only canonical reports,
        so output bytes never depend on analyzer traversal order.
        """
        seen: set[tuple[str, str, str]] = set()
        out = LintReport()
        for diag in sorted(self.diagnostics, key=Diagnostic.sort_key):
            identity = (diag.rule_id, diag.source, diag.message)
            if identity in seen:
                continue
            seen.add(identity)
            out.add(diag)
        return out

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __bool__(self) -> bool:
        return bool(self.diagnostics)
