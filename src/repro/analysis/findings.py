"""Finding records produced by the static-analysis checkers.

A :class:`Finding` is one rule violation at one source location. It is
deliberately plain data (no AST nodes, no file handles) so reports can
be sorted, serialised to JSON for the CI artifact, and rendered by the
CLI table without touching the checker that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Finding", "RuleSpec", "SEVERITIES"]

SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class RuleSpec:
    """Catalogue entry for one rule id owned by a checker.

    ``severity`` is the default severity of findings the rule emits;
    individual findings may downgrade (e.g. the contiguity rule emits
    warnings for *unproven* layouts and errors for *known-bad* ones).
    """

    id: str
    summary: str
    severity: str = "error"

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise ValueError(f"severity must be one of {SEVERITIES}")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one ``file:line`` location.

    Attributes
    ----------
    rule : str
        Rule id (e.g. ``'contiguous-reduction'``) — the name a pragma
        refers to.
    path : str
        Posix-style path of the offending file, relative to the
        analysis root (stable across machines).
    line, col : int
        1-based line and 0-based column of the offending node.
    message : str
        What is wrong, concretely, at this site.
    hint : str
        How to fix it (or how to justify it with a pragma).
    severity : str
        ``'error'`` or ``'warning'``; both fail the CI gate, the split
        is informational (how certain the checker is).
    checker : str
        Name of the checker that produced the finding.
    """

    rule: str
    path: str
    line: int
    message: str
    col: int = 0
    hint: str = ""
    severity: str = "error"
    checker: str = field(default="", compare=False)

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise ValueError(f"severity must be one of {SEVERITIES}")

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}"

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
            "checker": self.checker,
        }
