"""Structured audit findings and reports.

A finding is one observed divergence between two implementations that are
supposed to be interchangeable (storage backends, analysis backends, trace
encodings) or one static inconsistency in a program's synchronization
structure.  Findings carry everything needed to reproduce and localize the
problem: the check name, the program and fuzz seed, the first diverging
event index and field, both values, and a copy-pasteable repro command.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class AuditFinding:
    """One divergence (or static inconsistency) the audit detected."""

    check: str
    #: Name of the audited program (``fuzz-xxxxxxxx`` for generated ones).
    program: str
    detail: str
    #: Fuzz seed that generated the program; None for ingested programs.
    seed: Optional[int] = None
    #: Index of the first diverging event in the reference ordering;
    #: None when the divergence is not event-localized (e.g. a length or
    #: aggregate mismatch).
    event_index: Optional[int] = None
    #: Name of the diverging event field (``time``, ``seq``, ...).
    field: Optional[str] = None
    expected: Optional[str] = None
    actual: Optional[str] = None
    #: Minimized command reproducing the finding, when one exists.
    repro: Optional[str] = None

    def render(self) -> str:
        lines = [f"[{self.check}] {self.program}: {self.detail}"]
        if self.event_index is not None:
            where = f"  first divergence: event {self.event_index}"
            if self.field:
                where += f", field {self.field!r}"
            lines.append(where)
        if self.expected is not None or self.actual is not None:
            lines.append(f"    expected: {self.expected}")
            lines.append(f"    actual:   {self.actual}")
        if self.seed is not None:
            lines.append(f"  seed: {self.seed}")
        if self.repro:
            lines.append(f"  repro: {self.repro}")
        return "\n".join(lines)


@dataclass
class AuditReport:
    """Aggregate result of one audit run."""

    findings: list[AuditFinding] = field(default_factory=list)
    programs_checked: int = 0
    checks_run: int = 0
    #: Checks that could not run in this environment (e.g. the native
    #: comparisons without a C compiler) — disclosed, never silently
    #: skipped.
    skipped: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def extend(self, findings: list[AuditFinding]) -> None:
        self.findings.extend(findings)

    def render(self) -> str:
        lines = [
            f"audited {self.programs_checked} program(s), "
            f"{self.checks_run} check(s) run"
        ]
        if self.skipped:
            lines.append(
                "skipped (environment): " + ", ".join(sorted(set(self.skipped)))
            )
        if self.ok:
            lines.append("no divergences found")
        else:
            lines.append(f"{len(self.findings)} finding(s):")
            for f in self.findings:
                lines.append("")
                lines.append(f.render())
        return "\n".join(lines)
