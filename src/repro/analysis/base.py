"""The per-file context checkers analyse, and AST name helpers.

The engine parses every file exactly once into a :class:`FileContext`
(source text, AST with parent links) and hands the same context to
every checker, so N checkers cost one parse. A checker is a plain class
satisfying :class:`Checker`; the built-ins are listed once in
:data:`repro.analysis.checkers.CHECKERS`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Protocol

from repro.analysis.findings import Finding, RuleSpec

__all__ = [
    "FileContext",
    "Checker",
    "attach_parents",
    "dotted_name",
    "call_name",
]


def attach_parents(tree: ast.AST) -> ast.AST:
    """Set a ``.parent`` attribute on every node (engine does this once)."""
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child.parent = node  # type: ignore[attr-defined]
    return tree


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> str | None:
    """Dotted name of a call's callee (``np.einsum``, ``partial``, ...)."""
    return dotted_name(node.func)


@dataclass
class FileContext:
    """Everything a checker may need about one parsed source file.

    ``rel_path`` is posix-style and relative to the analysis root; the
    path-scoped rules (kernel strictness, scoring paths, the input
    boundary) match on it with substring tests, so fixture files in a
    temp directory participate by mirroring the repo layout (or by
    passing an explicit ``rel_path`` to ``analyze_source``).
    """

    rel_path: str
    source: str
    raw: bytes
    tree: ast.AST
    lines: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.lines:
            self.lines = self.source.splitlines()

    def in_path(self, fragment: str) -> bool:
        """Whether this file lives under a path containing ``fragment``."""
        return fragment in self.rel_path

    def finding(
        self,
        rule: RuleSpec,
        node: ast.AST | int,
        message: str,
        *,
        hint: str = "",
        severity: str | None = None,
        checker: str = "",
    ) -> Finding:
        """Build a :class:`Finding` anchored at ``node`` (or a line no)."""
        if isinstance(node, int):
            line, col = node, 0
        else:
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
        return Finding(
            rule=rule.id,
            path=self.rel_path,
            line=line,
            col=col,
            message=message,
            hint=hint,
            severity=severity or rule.severity,
            checker=checker,
        )


class Checker(Protocol):
    """What the engine requires of a checker in ``CHECKERS``.

    Attributes
    ----------
    name : str
        Short name shown in ``--list-rules`` (``'parity'``, ...).
    description : str
        One line for ``--list-rules`` and the docs catalogue.
    rules : tuple of RuleSpec
        Every rule id this checker can emit; ids are unique across
        checkers, since a pragma names a rule by id.
    """

    name: str
    description: str
    rules: tuple[RuleSpec, ...]

    def check(self, ctx: FileContext) -> list[Finding]:
        """Return every violation found in ``ctx`` (empty when clean)."""
        ...
