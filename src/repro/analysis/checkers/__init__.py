"""The built-in checkers: one fixed tuple, run in full on every file."""

from repro.analysis.base import Checker
from repro.analysis.checkers.concurrency import ConcurrencyChecker
from repro.analysis.checkers.contracts import ContractsChecker
from repro.analysis.checkers.freeze import ReferenceFreezeChecker
from repro.analysis.checkers.lifecycle import LifecycleChecker
from repro.analysis.checkers.parity import ParityChecker
from repro.analysis.checkers.sharing import RedundantStructureChecker
from repro.analysis.pragmas import STALE_PRAGMA_RULE

__all__ = ["CHECKERS", "RULES", "rule_catalogue"]

CHECKERS: tuple[Checker, ...] = (
    ParityChecker(),
    ConcurrencyChecker(),
    LifecycleChecker(),
    ContractsChecker(),
    ReferenceFreezeChecker(),
    RedundantStructureChecker(),
)


def rule_catalogue(checkers) -> dict:
    """``rule id -> (checker name, RuleSpec)``, ``stale-pragma`` included.

    A rule id claimed twice raises: a pragma names a rule by id, so two
    owners would make every suppression of it ambiguous.
    """
    catalogue = {STALE_PRAGMA_RULE.id: ("pragmas", STALE_PRAGMA_RULE)}
    for checker in checkers:
        for spec in checker.rules:
            if spec.id in catalogue:
                raise ValueError(
                    f"rule id {spec.id!r} is claimed by both "
                    f"{catalogue[spec.id][0]!r} and {checker.name!r}"
                )
            catalogue[spec.id] = (checker.name, spec)
    return catalogue


RULES = rule_catalogue(CHECKERS)
