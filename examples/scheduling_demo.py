"""Balanced parallel scheduling walkthrough (Fig. 2 and §3.5).

Recreates the paper's motivating example: 100 heterogeneous models from
{kNN, Isolation Forest, HBOS, OCSVM} — 25 each, ordered by family, as a
parameter-grid loop would produce them. A generic dispatcher sends all
25 kNNs to worker 1 and stalls the system; BPS forecasts costs and
balances the rank sums (the Fig. 2 flowchart), approaching the ideal
makespan.

Run:  python examples/scheduling_demo.py
"""

import time
import zlib

import numpy as np

from repro.scheduling import (
    AnalyticCostModel,
    bps_schedule,
    generic_schedule,
    shuffle_schedule,
)
from repro.data import load_benchmark
from repro.detectors import sample_model_pool
from repro.metrics import imbalance, makespan, spearmanr


def build_pool() -> list:
    """25 models per family, ordered by family (the §3.5 pathology).

    Each family's seed is a CRC-32 of its name: ``hash(str)`` is salted
    per interpreter, so it would draw a different pool on every run.
    """
    pool = []
    for fam in ("KNN", "IsolationForest", "HBOS", "OCSVM"):
        pool.extend(
            sample_model_pool(
                25,
                families=[fam],
                max_n_neighbors=100,
                random_state=zlib.crc32(fam.encode()),
            )
        )
    return pool


def main() -> None:
    X, _ = load_benchmark("PageBlock", scale=0.15)
    print(f"dataset: PageBlock replica, n={X.shape[0]}, d={X.shape[1]}")

    pool = build_pool()
    print(f"pool: {len(pool)} heterogeneous models, family-ordered\n")

    # Measure the true cost of each model once on this machine.
    print("measuring true per-model fit costs on one core ...")
    true_costs = np.empty(len(pool))
    for i, model in enumerate(pool):
        t0 = time.perf_counter()
        model.fit(X)
        true_costs[i] = time.perf_counter() - t0
    print(f"total sequential fit time: {true_costs.sum():.2f}s")

    # Forecast costs the way SUOD does before fitting anything.
    forecast = AnalyticCostModel().forecast(pool, X)
    rho = spearmanr(forecast, true_costs)
    print(f"forecast vs true cost rank correlation (Spearman): {rho:.3f}\n")

    t = 4
    schedules = {
        "generic (contiguous by order)": generic_schedule(len(pool), t),
        "random shuffle": shuffle_schedule(len(pool), t, random_state=0),
        "BPS (forecast rank sums)": bps_schedule(forecast, t),
    }
    ideal = true_costs.sum() / t
    print(
        f"replaying measured costs through {t} virtual workers "
        f"(ideal makespan = {ideal:.2f}s):\n"
    )
    header = f"{'policy':32s} {'makespan':>9s} {'imbalance':>10s}  per-worker loads"
    print(header)
    print("-" * len(header))
    for name, assignment in schedules.items():
        loads = np.bincount(assignment, weights=true_costs, minlength=t)
        span = makespan(true_costs, assignment, t)
        imb = imbalance(true_costs, assignment, t)
        loads_str = " ".join(f"{v:5.2f}" for v in loads)
        print(f"{name:32s} {span:8.2f}s {imb:9.1%}  [{loads_str}]")

    gen = makespan(true_costs, schedules["generic (contiguous by order)"], t)
    bps = makespan(true_costs, schedules["BPS (forecast rank sums)"], t)
    print(
        f"\nBPS time reduction vs generic: {100 * (gen - bps) / gen:.1f}% "
        "(the paper reports up to 61%, Table 4)"
    )

    # Beyond the paper: the adaptive policy closes the forecast gap by
    # folding each batch's *measured* durations back into its cost model
    # — consecutive batches are rescheduled on reality, not guesses.
    from repro.scheduling import get_scheduler

    adaptive = get_scheduler("adaptive", smoothing=1.0)
    print("\nadaptive rescheduling over consecutive batches:")
    for batch in range(1, 4):
        assignment = adaptive.assign(len(pool), t, forecast, task_keys=range(len(pool)))
        span = makespan(true_costs, assignment, t)
        print(
            f"  batch {batch}: makespan {span:6.2f}s "
            f"(observed tasks: {adaptive.n_observed})"
        )
        # On a real backend the durations are the executed wave's
        # ExecutionResult.task_times; SUOD itself schedules by bps_flag.
        adaptive.observe(true_costs, task_keys=range(len(pool)))
    print(f"  ideal: {ideal:8.2f}s")


if __name__ == "__main__":
    main()
