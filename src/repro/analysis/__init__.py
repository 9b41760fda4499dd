"""Pluggable AST-based static analysis for repo invariants.

The checks codify what this codebase's tests cannot see at runtime:
bitwise-parity hazards (layout-dependent reductions, unordered float
accumulation), shared-memory lifecycle leaks, task payloads mutating
state outside the ExecutionResult channel, hidden-global randomness,
and drift in the frozen kernel reference.
Run it as ``python -m repro analyze``; it gates CI.

Checkers register by name (:func:`register_checker`) under the same
contract as execution backends and schedulers, so third-party rule
packs plug in without touching the engine.
"""

from repro.analysis.base import Checker, FileContext
from repro.analysis.baseline import Baseline
from repro.analysis.engine import (
    AnalysisCache,
    AnalysisReport,
    analyze_paths,
    analyze_source,
)
from repro.analysis.findings import Finding, RuleSpec
from repro.analysis.registry import (
    all_rules,
    get_checker,
    get_checker_class,
    list_checkers,
    register_checker,
    resolve_rules,
)

__all__ = [
    "Checker",
    "FileContext",
    "Finding",
    "RuleSpec",
    "Baseline",
    "AnalysisCache",
    "AnalysisReport",
    "analyze_paths",
    "analyze_source",
    "register_checker",
    "get_checker",
    "get_checker_class",
    "list_checkers",
    "all_rules",
    "resolve_rules",
]
