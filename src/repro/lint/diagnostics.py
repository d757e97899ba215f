"""Diagnostic primitives shared by every lint pass.

A :class:`Diagnostic` is one finding: a stable code (``ERC101``,
``PLAN202``, ...), a severity, a location string, a human message and an
optional suggested fix.  A :class:`LintReport` collects them, orders
them, renders them as text or JSON and maps the worst severity to a
process exit code (the ``repro lint`` CLI contract).

Code namespaces (see ``docs/EXTENDING.md``):

* ``ERC1xx``  -- electrical rule checks over a :class:`~repro.circuit.
  netlist.Circuit` (structure, geometry, biasing);
* ``PLAN2xx`` -- static checks over a :class:`~repro.kb.plans.Plan` and
  its :class:`~repro.kb.rules.Rule` set;
* ``KB3xx``   -- template / knowledge-base consistency checks.
"""

from __future__ import annotations

import enum
import json
import os
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import LintError

__all__ = ["Severity", "Diagnostic", "LintReport"]


class Severity(enum.IntEnum):
    """Diagnostic severity, ordered so ``max()`` picks the worst."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding.

    Attributes:
        code: stable diagnostic code (``ERC101``); tests and suppression
            lists key on it, so codes are append-only.
        severity: :class:`Severity`.
        message: human-readable, quantified description.
        location: where the finding points (``circuit:node``,
            ``plan/step``, ``template style``); free-form but stable.
        suggestion: optional suggested fix, one line.
    """

    code: str
    severity: Severity
    message: str
    location: str = ""
    suggestion: str = ""

    def render(self) -> str:
        where = f" [{self.location}]" if self.location else ""
        hint = f"  (fix: {self.suggestion})" if self.suggestion else ""
        return f"{self.code} {self.severity.label}{where}: {self.message}{hint}"

    def to_dict(self) -> Dict[str, str]:
        return {
            "code": self.code,
            "severity": self.severity.label,
            "location": self.location,
            "message": self.message,
            "suggestion": self.suggestion,
        }

    def at(self, location: str) -> "Diagnostic":
        """A copy of this diagnostic pointed at ``location``."""
        return replace(self, location=location)


@dataclass
class LintReport:
    """An ordered collection of diagnostics from one or more passes."""

    diagnostics: List[Diagnostic] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        """Append diagnostics (or merge another report's findings)."""
        if isinstance(diagnostics, LintReport):
            diagnostics = diagnostics.diagnostics
        self.diagnostics.extend(diagnostics)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def by_severity(self, severity: Severity) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    @property
    def errors(self) -> List[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> List[Diagnostic]:
        return self.by_severity(Severity.WARNING)

    @property
    def infos(self) -> List[Diagnostic]:
        return self.by_severity(Severity.INFO)

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def codes(self) -> List[str]:
        """Distinct codes present, sorted."""
        return sorted({d.code for d in self.diagnostics})

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    def max_severity(self) -> Optional[Severity]:
        """The worst severity present, or None for a clean report."""
        if not self.diagnostics:
            return None
        return max(d.severity for d in self.diagnostics)

    def exit_code(self) -> int:
        """The CLI contract: 0 clean/info, 1 worst is warning, 2 error."""
        worst = self.max_severity()
        if worst is None or worst is Severity.INFO:
            return 0
        return 1 if worst is Severity.WARNING else 2

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def summary(self) -> str:
        return (
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.infos)} info(s)"
        )

    def render_text(self) -> str:
        """Human rendering, worst findings first, stable within severity."""
        ordered = sorted(
            self.diagnostics,
            key=lambda d: (-int(d.severity), d.code, d.location),
        )
        lines = [d.render() for d in ordered]
        lines.append(
            "clean: no diagnostics" if not self.diagnostics else self.summary()
        )
        return "\n".join(lines)

    def to_json(self, indent: int = 2) -> str:
        payload = {
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "summary": {
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "infos": len(self.infos),
                "exit_code": self.exit_code(),
            },
        }
        return json.dumps(payload, indent=indent)

    def render_github(self) -> str:
        """GitHub Actions workflow-command rendering.

        Each diagnostic becomes one ``::error`` / ``::warning`` /
        ``::notice`` annotation line.  When the diagnostic's location
        starts with an existing file path (the SPICE-deck lint case) it
        is attached as ``file=...,line=...`` so GitHub anchors the
        annotation to the source; otherwise the location travels in the
        message.  The trailing summary line is plain text (GitHub
        ignores non-command lines).
        """
        levels = {
            Severity.INFO: "notice",
            Severity.WARNING: "warning",
            Severity.ERROR: "error",
        }
        ordered = sorted(
            self.diagnostics,
            key=lambda d: (-int(d.severity), d.code, d.location),
        )
        lines = []
        for diag in ordered:
            props = [f"title={diag.code}"]
            path, line = _location_file(diag.location)
            if path is not None:
                props.insert(0, f"file={path},line={line}")
                message = diag.message
            else:
                where = f"[{diag.location}] " if diag.location else ""
                message = f"{where}{diag.message}"
            if diag.suggestion:
                message = f"{message} (fix: {diag.suggestion})"
            lines.append(
                f"::{levels[diag.severity]} {','.join(props)}::"
                f"{_escape_workflow(message)}"
            )
        lines.append(self.summary())
        return "\n".join(lines)

    def render(self, fmt: str = "text") -> str:
        if fmt == "text":
            return self.render_text()
        if fmt == "json":
            return self.to_json()
        if fmt == "github":
            return self.render_github()
        raise LintError(
            f"unknown lint output format {fmt!r} (text/json/github)"
        )

    # ------------------------------------------------------------------
    def raise_if_errors(self, context: str = "") -> None:
        """Raise :class:`LintError` carrying this report when any
        error-severity diagnostic is present."""
        if not self.has_errors:
            return
        head = f"{context}: " if context else ""
        body = "; ".join(d.render() for d in self.errors)
        raise LintError(f"{head}{len(self.errors)} lint error(s): {body}", self)


# ----------------------------------------------------------------------
# GitHub workflow-command helpers
# ----------------------------------------------------------------------
def _escape_workflow(text: str) -> str:
    """Escape a message for a GitHub workflow-command data section."""
    return (
        text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    )


def _location_file(location: str) -> Tuple[Optional[str], int]:
    """Split ``path[:line-or-detail]`` locations into (file, line).

    Returns ``(None, 1)`` unless the location's leading component names
    an existing file, so free-form locations (``opamp/two_stage/...``)
    never masquerade as paths.
    """
    if not location:
        return None, 1
    candidate, line = location, 1
    if ":" in location:
        head, _, tail = location.rpartition(":")
        if head and os.path.isfile(head):
            candidate = head
            if tail.isdigit():
                line = int(tail)
            return candidate, line
    if os.path.isfile(candidate):
        return candidate, line
    return None, 1
