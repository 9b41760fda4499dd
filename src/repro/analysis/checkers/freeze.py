"""Frozen-reference immutability checker.

``repro/kernels/reference.py`` holds the naive reference
implementations that *define* bitwise correctness for every vectorized
kernel (the parity tests compare kernels against them with
``np.array_equal``). Editing the reference moves the goalposts: a
kernel bug could be "fixed" by changing what correct means. This
checker pins the reference file to a sha256 of its bytes; any edit —
even whitespace — fails the gate until the pin is consciously updated
(with the paired test in ``tests/analysis/test_freeze.py`` forcing the
update to be reviewed alongside a parity re-run).
"""

from __future__ import annotations

import hashlib

from repro.analysis.base import FileContext
from repro.analysis.findings import Finding, RuleSpec

__all__ = ["ReferenceFreezeChecker", "REFERENCE_SHA256", "REFERENCE_PATH"]

REFERENCE_PATH = "repro/kernels/reference.py"

# sha256 of the frozen src/repro/kernels/reference.py bytes. Updating
# this pin is the deliberate, reviewed act of changing what "correct"
# means for every kernel; tests/analysis/test_freeze.py recomputes it.
REFERENCE_SHA256 = (
    "43ff8c54ba7bf186dc41b51d71dc29a722257cc0c172d1b90310f7c020ad9b13"
)


class ReferenceFreezeChecker:
    """The frozen reference implementations must not drift."""

    name = "reference-freeze"
    description = (
        "hash-pins repro/kernels/reference.py: the file that defines "
        "bitwise correctness cannot change without updating the pin"
    )
    rules = (
        RuleSpec(
            "frozen-reference",
            "reference.py content differs from its sha256 pin",
        ),
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        if not ctx.rel_path.endswith(REFERENCE_PATH):
            return []
        digest = hashlib.sha256(ctx.raw).hexdigest()
        if digest == REFERENCE_SHA256:
            return []
        return [
            ctx.finding(
                self.rules[0],
                1,
                "repro/kernels/reference.py no longer matches its "
                f"sha256 pin (got {digest[:12]}..., pinned "
                f"{REFERENCE_SHA256[:12]}...): the reference defines "
                "bitwise correctness for every kernel, so edits must be "
                "deliberate",
                hint="revert the edit, or update REFERENCE_SHA256 in "
                "repro/analysis/checkers/freeze.py together with a "
                "kernel parity re-run",
                checker=self.name,
            )
        ]
