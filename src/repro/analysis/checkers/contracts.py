"""Repo-contract and determinism checker.

Codifies conventions the repo adopted in earlier PRs but until now
enforced only by review:

``unseeded-random``
    Calls into the legacy ``np.random.*`` global generator (or a
    zero-argument ``np.random.default_rng()``) draw from hidden global
    state, breaking run-to-run reproducibility; everything must route
    through ``check_random_state`` / an explicitly seeded Generator.
    Inside ``repro/kernels/`` wall-clock reads (``time.time`` etc.) are
    flagged too — kernel results must be pure functions of their
    inputs.

``memmap-mode``
    ``np.memmap`` (and ``open_memmap`` / ``np.load(..., mmap_mode=...)``)
    without an explicit read-only mode: the numpy default is ``'r+'``,
    a *writable* mapping of the artifact file. A stray in-place store
    through such a view silently corrupts the persisted ensemble for
    every process sharing the page-cache copy, so the memory plane
    requires ``mode='r'`` spelled out at every mapping site.
"""

from __future__ import annotations

import ast

from repro.analysis.base import FileContext, call_name
from repro.analysis.findings import Finding, RuleSpec

__all__ = ["ContractsChecker"]

# Legacy global-state RNG entry points (np.random.<fn> module calls).
_GLOBAL_RNG_FNS = frozenset(
    {
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "choice",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "standard_normal",
        "beta",
        "binomial",
        "exponential",
        "poisson",
    }
)

_CLOCK_FNS = frozenset(
    {
        "time.time",
        "time.monotonic",
        "time.perf_counter",
        "time.process_time",
        "datetime.now",
        "datetime.utcnow",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
    }
)

_KERNEL_PATH = "repro/kernels/"


class ContractsChecker:
    """Enforces repo API contracts and determinism conventions."""

    name = "contracts"
    description = (
        "repo contracts: no hidden-global randomness or kernel clock "
        "reads, no writable memory mappings of artifacts"
    )
    rules = (
        RuleSpec(
            "unseeded-random",
            "hidden-global RNG or kernel wall-clock read",
        ),
        RuleSpec(
            "memmap-mode",
            "memory mapping without an explicit read-only mode",
        ),
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        in_kernels = ctx.in_path(_KERNEL_PATH)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                self._check_random(ctx, node, in_kernels, findings)
                self._check_memmap(ctx, node, findings)
        return findings

    # -- unseeded-random ------------------------------------------------
    def _check_random(self, ctx, node: ast.Call, in_kernels, findings) -> None:
        name = call_name(node)
        if name is None:
            return
        parts = name.split(".")
        if (
            len(parts) == 3
            and parts[0] in ("np", "numpy")
            and parts[1] == "random"
            and parts[2] in _GLOBAL_RNG_FNS
        ):
            findings.append(
                ctx.finding(
                    self.rules[0],
                    node,
                    f"{name}() draws from the hidden global NumPy RNG: "
                    "results change between runs and across import "
                    "orders, breaking score reproducibility",
                    hint="thread a seeded Generator through "
                    "check_random_state(random_state)",
                    checker=self.name,
                )
            )
            return
        if name.endswith("default_rng") and not node.args and not node.keywords:
            findings.append(
                ctx.finding(
                    self.rules[0],
                    node,
                    "default_rng() with no seed draws OS entropy: every "
                    "run produces different results",
                    hint="pass an explicit seed or a seeded SeedSequence",
                    checker=self.name,
                )
            )
            return
        if in_kernels and name in _CLOCK_FNS:
            findings.append(
                ctx.finding(
                    self.rules[0],
                    node,
                    f"{name}() inside repro/kernels/: kernel outputs "
                    "must be pure functions of their inputs, never of "
                    "wall-clock time",
                    hint="hoist timing to the caller (bench layer)",
                    checker=self.name,
                )
            )

    # -- memmap-mode ----------------------------------------------------
    def _check_memmap(self, ctx, node: ast.Call, findings: list) -> None:
        name = call_name(node)
        if name is None:
            return
        tail = name.split(".")[-1]
        if tail in ("memmap", "open_memmap"):
            # Signature: (filename, dtype=..., mode='r+', ...) — mode is
            # the third positional slot for np.memmap, keyword-ish for
            # open_memmap; both default to the *writable* 'r+'.
            mode = None
            explicit = False
            if tail == "memmap" and len(node.args) >= 3:
                mode, explicit = node.args[2], True
            for kw in node.keywords:
                if kw.arg == "mode":
                    mode, explicit = kw.value, True
            if (
                explicit
                and isinstance(mode, ast.Constant)
                and mode.value == "r"
            ):
                return
            if explicit and not isinstance(mode, ast.Constant):
                return  # mode computed at runtime: not statically checkable
            shown = "no mode" if not explicit else f"mode={mode.value!r}"
            findings.append(
                ctx.finding(
                    self.rules[1],
                    node,
                    f"{name}() with {shown}: the default mapping mode is "
                    "the writable 'r+', so a stray in-place store would "
                    "silently corrupt the mapped artifact for every "
                    "process sharing it",
                    hint="pass mode='r' (read-only) explicitly",
                    checker=self.name,
                )
            )
            return
        if tail == "load":
            parts = name.split(".")
            if len(parts) == 2 and parts[0] not in ("np", "numpy"):
                return
            for kw in node.keywords:
                if (
                    kw.arg == "mmap_mode"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value not in (None, "r")
                ):
                    findings.append(
                        ctx.finding(
                            self.rules[1],
                            node,
                            f"{name}(..., mmap_mode={kw.value.value!r}) "
                            "maps the file writable; artifacts must only "
                            "ever be mapped read-only",
                            hint="use mmap_mode='r'",
                            checker=self.name,
                        )
                    )
