"""Time the forest traversal's pair block on the perfbench pools.

``repro.kernels.trees.forest_apply`` descends a chunk of rows through
every tree at once, ``chunk_rows = min(_CHUNK_ROW_CAP, _PAIR_BLOCK //
n_trees)`` rows at a time. This script fits the four perfbench pools at
their workload shape (``perfbench/workloads.py``, sample seed 0, one
worker), collects every forest each pool scores with — detector forests
and PSA approximator forests, each with the space it reads — and times
one scoring request of the workload's size (``request_rows``) through
``forest_value_sum`` for pair blocks ``2^11 ... 2^17``. It prints each
workload's table and picks the block with the smallest mean regret over
the workloads that have forests (time at the block over the workload's
best time, minus one; among equal means, the smaller block). On a
shared box that pick is noise-bound; read the per-workload rows too (the
committed block is the hetero request's fastest). A request that is one
chunk per forest at every block of the grid (the one-row serving
request) runs the same code at every block, so it is listed but not
timed; the neighbour pool has no forest and is listed only to say so.

Not a pytest benchmark (it asserts nothing: timings are host-specific);
run it from the repository root on a quiet box with one BLAS thread::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src:. python benchmarks/fit_forest_pair_block.py
    ... --quick      # perfbench's quick shapes, one repeat (~10 s)
    ... --json out.json
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from perfbench.workloads import WORKLOADS
from repro import SUOD
from repro.kernels import forest_value_sum
from repro.kernels import trees as kt

BLOCKS = tuple(1 << e for e in range(11, 18))


def pool_forests(workload, quick: bool):
    """``(forests, rows)`` pairs: every forest the fitted pool scores
    with, detector forests first, then PSA approximator forests, each
    with one request's rows in the space it reads."""
    X_train, X_test, _ = workload.data(seed=0, quick=quick)
    shape = workload.quick_shape if quick else workload.shape
    params = {k: v for k, v in workload.suod.items() if k not in ("n_jobs", "backend")}
    clf = SUOD(workload.pool(), n_jobs=1, random_state=0, **params).fit(X_train)
    request = X_test[: shape.request_rows]
    detectors, approximators = [], []
    for i, est in enumerate(clf.base_estimators_):
        rows = clf.projectors_[i].transform(request)
        if hasattr(est, "forest_"):
            detectors.append((est.forest_, rows))
        regressor = clf.approximators_[i].regressor_
        if hasattr(regressor, "forest_"):
            approximators.append((regressor.forest_, rows))
    clf.close()
    return detectors + approximators


def n_chunks(flat, rows: int) -> int:
    """Chunks of ``rows`` rows at the smallest block of the grid."""
    committed = kt._PAIR_BLOCK
    kt._PAIR_BLOCK = BLOCKS[0]
    try:
        return -(-rows // kt._chunk_rows(flat.n_trees))
    finally:
        kt._PAIR_BLOCK = committed


def best_time(pairs, repeats: int) -> float:
    """Best of ``repeats`` (after one warm-up) of scoring every pair."""
    best = np.inf
    for _ in range(repeats + 1):
        t0 = time.perf_counter()
        for flat, rows in pairs:
            forest_value_sum(flat, rows)
        best = min(best, time.perf_counter() - t0)
    return best


def sweep(pairs_by_workload, repeats: int) -> dict:
    """Seconds per (workload, block) with ``kt._PAIR_BLOCK`` set to each
    block; blocks interleave inside each repeat round."""
    committed = kt._PAIR_BLOCK
    times = {w: {b: np.inf for b in BLOCKS} for w in pairs_by_workload}
    try:
        for _ in range(repeats):
            for w, pairs in pairs_by_workload.items():
                for b in BLOCKS:
                    kt._PAIR_BLOCK = b
                    times[w][b] = min(times[w][b], best_time(pairs, 1))
    finally:
        kt._PAIR_BLOCK = committed
    return times


def pick(times: dict) -> tuple[int, dict]:
    """The block with the smallest mean regret over workloads."""
    regret = {
        b: float(np.mean([t[b] / min(t.values()) - 1.0 for t in times.values()]))
        for b in BLOCKS
    }
    low = min(regret.values())
    return min(b for b in BLOCKS if regret[b] <= low + 1e-12), regret


def report(times: dict) -> int:
    chosen, regret = pick(times)
    print("pair block: ms per request (* = picked, c = committed)")
    print(f"{'':24}" + "".join(f"{b:>9}" for b in BLOCKS))
    for w, t in times.items():
        print(f"{w:<24}" + "".join(f"{1e3 * t[b]:>9.2f}" for b in BLOCKS))
    marks = "".join(
        f"{100 * regret[b]:>7.1f}%"
        + ("*" if b == chosen else "c" if b == kt._PAIR_BLOCK else " ")
        for b in BLOCKS
    )
    print(f"{'mean regret':<24}" + marks)
    print(f"_PAIR_BLOCK = {chosen} (committed {kt._PAIR_BLOCK})")
    return chosen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--json", default=None)
    args = parser.parse_args(argv)
    repeats = 1 if args.quick else 30

    pools = {}
    for name, workload in WORKLOADS.items():
        pairs = pool_forests(workload, args.quick)
        trees = sum(flat.n_trees for flat, _ in pairs)
        rows = pairs[0][1].shape[0] if pairs else 0
        print(f"{name}: {len(pairs)} forests, {trees} trees, {rows}-row requests")
        if not pairs:
            continue
        if any(n_chunks(flat, rows) > 1 for flat, _ in pairs):
            pools[name] = pairs
        else:
            print("  one chunk per forest at every block: not timed")
    print()

    blocks = sweep(pools, repeats)
    block = report(blocks)

    if args.json:
        table = {w: {str(v): t for v, t in ts.items()} for w, ts in blocks.items()}
        with open(args.json, "w") as fh:
            json.dump({"pair_block": table, "picked": block}, fh, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
