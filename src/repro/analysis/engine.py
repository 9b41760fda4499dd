"""Analysis engine: walk, parse once, run every checker, suppress, report.

The engine owns the file lifecycle so checkers stay pure AST visitors.
One fixed pass per file:

1. walk the requested roots for ``*.py`` files (skipping caches/VCS);
2. parse each file once into a :class:`FileContext` with parent links;
3. run every checker in :data:`~repro.analysis.checkers.CHECKERS`;
4. apply ``# repro: allow[rule] -- why`` pragmas, marking each pragma
   used as it suppresses;
5. emit ``stale-pragma`` findings for pragmas that suppressed nothing.

A justified pragma next to the code is the only way to accept a
finding.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.base import FileContext, attach_parents
from repro.analysis.checkers import CHECKERS
from repro.analysis.findings import Finding
from repro.analysis.pragmas import STALE_PRAGMA_RULE, parse_pragmas

__all__ = [
    "AnalysisReport",
    "analyze_source",
    "analyze_paths",
    "iter_python_files",
]

_SKIP_DIRS = {
    "__pycache__",
    ".git",
    ".ruff_cache",
    ".pytest_cache",
    "build",
    "dist",
    ".eggs",
}


@dataclass
class AnalysisReport:
    """Outcome of one :func:`analyze_paths` run."""

    findings: list[Finding]
    suppressed: list[Finding]
    files_scanned: int
    parse_errors: list[tuple[str, str]]

    @property
    def exit_code(self) -> int:
        return 1 if self.findings or self.parse_errors else 0

    def to_dict(self) -> dict:
        counts: dict[str, int] = {}
        for f in self.findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        return {
            "files_scanned": self.files_scanned,
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": len(self.suppressed),
            "counts_by_rule": dict(sorted(counts.items())),
            "parse_errors": [
                {"path": p, "error": e} for p, e in self.parse_errors
            ],
        }


def iter_python_files(roots: list[Path]):
    """Yield every ``*.py`` under ``roots`` (sorted, caches skipped)."""
    seen: set[Path] = set()
    for root in roots:
        if root.is_file():
            if root.suffix == ".py" and root not in seen:
                seen.add(root)
                yield root
            continue
        for path in sorted(root.rglob("*.py")):
            if any(part in _SKIP_DIRS for part in path.parts):
                continue
            if path not in seen:
                seen.add(path)
                yield path


def _analyze_file(rel_path: str, raw: bytes):
    """One file through the whole pass: ``(kept, suppressed)`` findings.

    Raises ``SyntaxError`` / ``UnicodeDecodeError`` on unparseable input.
    """
    source = raw.decode("utf-8")
    tree = attach_parents(ast.parse(source, filename=rel_path))
    ctx = FileContext(rel_path=rel_path, source=source, raw=raw, tree=tree)
    findings = [f for checker in CHECKERS for f in checker.check(ctx)]
    return _apply_pragmas(ctx, findings)


def _apply_pragmas(ctx: FileContext, findings):
    """Suppress pragma-covered findings; flag pragmas that earn nothing."""
    pragmas = parse_pragmas(ctx.source)
    kept: list[Finding] = []
    suppressed: list[Finding] = []
    for finding in findings:
        pragma = next(
            (p for p in pragmas if p.covers(finding.rule, finding.line)), None
        )
        if pragma is not None:
            pragma.used.add(finding.rule)
            suppressed.append(finding)
        else:
            kept.append(finding)
    for pragma in pragmas:
        # Every rule runs on every file, so a pragma that suppressed
        # nothing is stale — including one naming an unknown rule id.
        if not pragma.used:
            kept.append(
                ctx.finding(
                    STALE_PRAGMA_RULE,
                    pragma.line,
                    "allow pragma for "
                    f"{sorted(pragma.rules)} suppresses nothing: the "
                    "finding it acknowledged is gone, so the pragma "
                    "is stale",
                    hint="delete the pragma (its justification: "
                    f"{pragma.justification!r})",
                    checker="engine",
                )
            )
    return kept, suppressed


def analyze_source(source: str, rel_path: str = "<memory>.py") -> list[Finding]:
    """Analyse one in-memory source string (the test entry point).

    Returns post-suppression findings, including any ``stale-pragma``
    findings, sorted by location. Raises ``SyntaxError`` on bad input.
    """
    kept, _ = _analyze_file(rel_path, source.encode("utf-8"))
    return sorted(kept, key=Finding.sort_key)


def analyze_paths(paths, *, root: Path | None = None) -> AnalysisReport:
    """Analyse files/trees and return an :class:`AnalysisReport`.

    ``root`` anchors the relative paths reported in findings (defaults
    to the current working directory).
    """
    root = (root or Path.cwd()).resolve()
    findings: list[Finding] = []
    suppressed: list[Finding] = []
    parse_errors: list[tuple[str, str]] = []
    files_scanned = 0
    for path in iter_python_files([Path(p) for p in paths]):
        files_scanned += 1
        resolved = path.resolve()
        try:
            rel_path = resolved.relative_to(root).as_posix()
        except ValueError:
            rel_path = resolved.as_posix()
        try:
            kept, supp = _analyze_file(rel_path, path.read_bytes())
        except (SyntaxError, UnicodeDecodeError) as exc:
            parse_errors.append((rel_path, str(exc)))
            continue
        findings.extend(kept)
        suppressed.extend(supp)
    return AnalysisReport(
        findings=sorted(findings, key=Finding.sort_key),
        suppressed=suppressed,
        files_scanned=files_scanned,
        parse_errors=sorted(parse_errors),
    )
