"""Redundant neighbor-structure checker.

The shared-computation plane exists so each distinct ``(space, order)``
resource key builds its KD-tree once and answers one fused max-k query
for every consumer. The plane can only fold work it can see: detectors
reach it by requesting neighbors through
:func:`repro.neighbors.neighbors_for_fit` /
:func:`~repro.neighbors.neighbors_for_scoring`, which bind a staged
shared result when the ``share`` stage produced one and fall back to a
private build otherwise.

A detector that constructs ``NearestNeighbors(...)`` or ``KDTree(...)``
inline inside its fit/scoring path opts out of that plane silently —
the ensemble still scores bitwise-correctly, it just rebuilds a
structure the share stage already built, which is exactly the
redundancy the plane removes. This checker flags such constructions in
detector code so the regression is caught at review time rather than in
a benchmark trace.
"""

from __future__ import annotations

import ast

from repro.analysis.base import FileContext, call_name
from repro.analysis.findings import Finding, RuleSpec

__all__ = ["RedundantStructureChecker"]

# Structures the sharing plane deduplicates; building one inline in a
# detector bypasses the dedup.
_STRUCTURES = ("NearestNeighbors", "KDTree")

# Fit/scoring entry points (and their template-method bodies) — the
# paths the share stage plans producers for.
_SCORING_PATH_FUNCS = (
    "fit",
    "_fit",
    "decision_function",
    "_decision_function",
    "_score",
    "score_samples",
    "predict",
)


class RedundantStructureChecker:
    """Detectors must route neighbor queries through the sharing plane."""

    name = "sharing"
    description = (
        "neighbor structures (KDTree/NearestNeighbors) constructed "
        "inline in a detector fit/score path instead of routed through "
        "the shared-computation plane"
    )
    rules = (
        RuleSpec(
            "redundant-structure",
            "neighbor structure built inline, bypassing the sharing plane",
        ),
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        if not ctx.in_path("detectors/"):
            return []
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is None or name.split(".")[-1] not in _STRUCTURES:
                continue
            func = self._enclosing_scoring_path(node)
            if func is None:
                continue
            structure = name.split(".")[-1]
            findings.append(
                ctx.finding(
                    self.rules[0],
                    node,
                    f"{structure}() constructed inline in "
                    f"{func.name}(): this private build bypasses the "
                    "shared-computation plane, so the share stage "
                    "rebuilds a structure it may already have built "
                    "for this (space, order) key",
                    hint="request neighbors via neighbors_for_fit() / "
                    "neighbors_for_scoring() so the share stage can "
                    "fold the build, or justify with "
                    "# repro: allow[redundant-structure] -- why",
                    checker=self.name,
                )
            )
        return findings

    @staticmethod
    def _enclosing_scoring_path(node: ast.AST):
        """Innermost enclosing fit/score-path function def, else None."""
        node = getattr(node, "parent", None)
        while node is not None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name in _SCORING_PATH_FUNCS:
                    return node
                # A helper nested inside a scoring-path method still
                # runs on that path; keep climbing.
            node = getattr(node, "parent", None)
        return None
