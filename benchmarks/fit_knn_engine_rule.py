"""Re-derive the KD-tree engine rule's two constants from timings.

``repro.kernels.neighbors.choose_block_engine`` prices the filter-refine
scan at ``q n`` and the pruned sweep at ``a q s + b log2(n / leaf_size)``
(``s`` = ``expected_scanned``), with ``a = SWEEP_ROW_COST`` and ``b =
_SWEEP_LEVEL_COST``. This script times both engines (forced through the
kernel's ``_query_blocks`` hook) on the (d, n, k, q) grid named in that
module's docstring plus ``d`` in {20, 80} at ``n <= 6000`` (the
dimensions RP leaves the paper's proximity detectors in), searches
``(a, b)`` for the smallest mean regret —
time of the engine the rule picks over time of the faster engine, minus
one — and prints the fitted pair, the regret of the constants committed
in the kernel, and the sweep/scan regime table at ``q = 512, k = 11``.
The scan runs on the tree ``KDTree`` builds (one leaf where the rule
can never pick the sweep); the sweep always runs on a split tree, so a
cell the rule gives to the scan is checked against the sweep it gave
up.

Not a pytest benchmark (it asserts nothing: timings are host-specific);
run it on a quiet box with one BLAS thread::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python benchmarks/fit_knn_engine_rule.py
    ... --quick      # n <= 20 000, one repeat (~1 min)
    ... --json out.json
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from repro.kernels import neighbors as kn
from repro.neighbors import KDTree
from repro.neighbors import kdtree as kdtree_module

DIMS = (2, 3, 5, 8, 12, 20, 80)
SIZES = (500, 2000, 6000, 20_000, 100_000)
# Dimensions where nothing prunes are timed on small n only.
HIGH_D, HIGH_D_MAX_N = 20, 6000
KS = (5, 11, 41)
QUERIES = (1, 16, 512)


def sizes_for(d: int, sizes) -> list[int]:
    return [n for n in sizes if d < HIGH_D or n <= HIGH_D_MAX_N]


def split_tree(X) -> KDTree:
    """The tree the sweep would run on, also where the kernel's rule
    builds one leaf (``can_pick_sweep`` is overridden for the build)."""
    rule = kdtree_module.can_pick_sweep
    kdtree_module.can_pick_sweep = lambda *shape: True
    try:
        return KDTree(X)
    finally:
        kdtree_module.can_pick_sweep = rule


def time_cells(sizes, repeats: int) -> list[dict]:
    """Best-of-``repeats`` seconds of each engine on every grid cell."""
    rng = np.random.default_rng(0)
    cells = []
    for d in DIMS:
        for n in sizes_for(d, sizes):
            X = rng.standard_normal((n, d))
            trees = {"scan": KDTree(X), "sweep": split_tree(X)}
            Q = rng.standard_normal((max(QUERIES), d))
            for k in KS:
                for q in QUERIES:
                    cell = {"d": d, "n": n, "k": k, "q": q}
                    for name, run in kn._BLOCK_ENGINES.items():
                        tree = trees[name]
                        best = np.inf
                        for _ in range(repeats + 1):  # first call warms caches
                            t0 = time.perf_counter()
                            kn._query_blocks(run, tree, Q[:q], k, None, 1024)
                            best = min(best, time.perf_counter() - t0)
                        cell[name] = best
                    cells.append(cell)
    return cells


def regrets(cells: list[dict], row_cost: float, level_cost: float) -> np.ndarray:
    """Per-cell regret of the kernel's rule run with ``(row_cost,
    level_cost)`` in place of its committed constants."""
    committed = kn.SWEEP_ROW_COST, kn._SWEEP_LEVEL_COST
    kn.SWEEP_ROW_COST, kn._SWEEP_LEVEL_COST = row_cost, level_cost
    try:
        picks = [kn.choose_block_engine(c["q"], c["n"], c["d"], c["k"]) for c in cells]
    finally:
        kn.SWEEP_ROW_COST, kn._SWEEP_LEVEL_COST = committed
    return np.array(
        [c[p] / min(c["scan"], c["sweep"]) - 1.0 for c, p in zip(cells, picks)]
    )


def fit(cells: list[dict]) -> tuple[float, float]:
    """Grid search (quarter-octave steps) for the smallest mean regret;
    among equal means, the pair nearest the grid's middle."""
    rows = 2.0 ** np.arange(0, 8.25, 0.25)
    levels = 2.0 ** np.arange(8, 17.25, 0.25)
    score = np.array([[regrets(cells, a, b).mean() for b in levels] for a in rows])
    ties = np.argwhere(score <= score.min() + 1e-12)
    i, j = ties[len(ties) // 2]
    return float(rows[i]), float(levels[j])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--json", default=None)
    args = parser.parse_args(argv)
    sizes = SIZES[:-1] if args.quick else SIZES
    cells = time_cells(sizes, repeats=1 if args.quick else 3)

    print("sweep time / scan time at q=512, k=11 (>1: the scan wins; * = rule -> sweep)")
    print("d    " + "".join(f"{n:>9}" for n in sizes))
    for d in DIMS:
        line = f"{d:<5}"
        for n in sizes:
            c = next(
                (
                    c
                    for c in cells
                    if (c["d"], c["n"], c["k"], c["q"]) == (d, n, 11, 512)
                ),
                None,
            )
            if c is None:
                line += f"{'-':>9}"
                continue
            mark = "*" if kn.choose_block_engine(512, n, d, 11) == "sweep" else " "
            line += f"{c['sweep'] / c['scan']:>8.2f}{mark}"
        print(line)

    committed = (kn.SWEEP_ROW_COST, kn._SWEEP_LEVEL_COST)
    fitted = fit(cells)
    report = {}
    for label, (a, b) in (("committed", committed), ("fitted", fitted)):
        r = regrets(cells, a, b)
        report[label] = {
            "row_cost": a,
            "level_cost": b,
            "mean_regret": float(r.mean()),
            "worst_ratio": float(r.max() + 1.0),
        }
        print(
            f"{label:>9}: row_cost={a:g} level_cost={b:g} "
            f"mean regret {100 * r.mean():.1f} %, worst {r.max() + 1:.2f}x "
            f"over {len(cells)} cells"
        )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"cells": cells, "rule": report}, fh, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
