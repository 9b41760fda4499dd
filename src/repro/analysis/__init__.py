"""AST-based static analysis for repo invariants.

The checks codify what this codebase's tests cannot see at runtime:
bitwise-parity hazards (layout-dependent reductions, unordered float
accumulation), shared-memory lifecycle leaks, task payloads mutating
state outside the ExecutionResult channel, hidden-global randomness,
and drift in the frozen kernel reference.
Run it as ``python -m repro analyze``; it gates CI.

One fixed pass: every built-in checker
(:data:`repro.analysis.checkers.CHECKERS`) runs on every file, and a
justified ``# repro: allow[rule] -- why`` pragma next to the code is the
only way to accept a finding.
"""

from repro.analysis.base import Checker, FileContext
from repro.analysis.engine import AnalysisReport, analyze_paths, analyze_source
from repro.analysis.findings import Finding, RuleSpec

__all__ = [
    "Checker",
    "FileContext",
    "Finding",
    "RuleSpec",
    "AnalysisReport",
    "analyze_paths",
    "analyze_source",
]
