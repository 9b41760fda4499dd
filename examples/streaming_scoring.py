"""Streaming scoring driven through the plan API, with persistence.

A deployment-shaped demo of the planner/executor architecture: fit a
heterogeneous SUOD pool once (inspecting the compiled fit plan before
running it), persist the fitted ensemble, reload it, then serve a
stream of scoring requests — each request is a predict
:class:`~repro.pipeline.ExecutionPlan` whose stage reports provide
per-batch telemetry:

- ``backend="threads"`` overlaps the models' NumPy/BLAS work on several
  threads of one process, with no pool to spawn or data to copy;
- a dataset too large to hold in RAM is written to disk once and
  scored out of core: :func:`~repro.memory.outofcore.score_out_of_core`
  streams its memmapped rows through a fixed ring of small row blocks.

Threaded and out-of-core scores are bitwise-identical to the sequential
path — the demo verifies that on every batch and on the streamed
dataset, against the *reloaded* ensemble.

Run:  python examples/streaming_scoring.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import SUOD, load_ensemble, save_ensemble
from repro.data import make_outlier_dataset
from repro.detectors import HBOS, KNN, LOF, AvgKNN, IsolationForest
from repro.memory.outofcore import open_rows, save_rows, score_out_of_core
from repro.parallel import ExecutionResult
from repro.pipeline import PlanRunner


def make_pool():
    return [
        KNN(n_neighbors=12),
        AvgKNN(n_neighbors=15),
        LOF(n_neighbors=20),
        HBOS(n_bins=20),
        IsolationForest(n_estimators=40, random_state=0),
    ]


def main() -> None:
    X_train, _ = make_outlier_dataset(
        n_samples=1500, n_features=10, contamination=0.1, random_state=0
    )

    engine = SUOD(
        make_pool(),
        n_jobs=4,
        backend="threads",
        approx_flag_global=False,  # keep raw detectors: worst-case costs
        random_state=0,
    )

    # -- compile the fit plan; preview the schedule before training ----
    fit_plan = engine.build_fit_plan(X_train)
    runner = PlanRunner()
    runner.run(fit_plan, until="schedule")
    print("fit plan:", fit_plan)
    print("planned worker loads:", fit_plan.worker_rows())
    runner.run(fit_plan)  # resume the same plan -> the ensemble is fitted
    print(f"fitted {engine.n_models} detectors; fit-plan stage walls:")
    for report in fit_plan.reports:
        print(f"  {report.stage:<12s} {report.wall_time:8.4f}s")

    # -- persist + reload: the served ensemble is the reloaded one -----
    workdir = Path(tempfile.mkdtemp())
    path = workdir / "streaming_ensemble.pkl"
    save_ensemble(engine, path)
    served = load_ensemble(path)
    print(f"\nensemble round-tripped through {path.name}")

    reference = SUOD(
        make_pool(), n_jobs=1, approx_flag_global=False, random_state=0
    ).fit(X_train)

    rng = np.random.default_rng(42)
    batch_executions = []
    print(f"\n{'batch':>5} {'rows':>6} {'latency':>9} {'rows/s':>9} {'tasks':>6}")
    for batch_id in range(6):
        n_rows = int(rng.integers(300, 900))
        stream = rng.standard_normal((n_rows, X_train.shape[1]))
        plan = served.build_predict_plan(stream)
        runner.run(plan)
        scores = plan.context.scores
        latency = plan.total_wall_time
        telemetry = plan.report_for("execute").execution
        batch_executions.append(plan.merged_execution())
        assert np.array_equal(scores, reference.decision_function(stream)), \
            "threaded scores must match the sequential path bitwise"
        print(
            f"{batch_id:>5} {n_rows:>6} {latency:>8.3f}s "
            f"{n_rows / latency:>9.0f} {telemetry.task_times.size:>6}"
        )

    merged = ExecutionResult.merge(batch_executions)
    print(
        "\ncombined run telemetry (all served batches): "
        f"wall {merged.wall_time:.3f}s, worker busy "
        f"{np.round(merged.worker_times, 3).tolist()} s"
    )

    # -- bounded memory: stream an on-disk dataset through a 64 KB ring --
    big = rng.standard_normal((5000, X_train.shape[1]))
    rows = open_rows(save_rows(big, workdir / "rows.npy"))
    budget = 64 << 10
    streamed = score_out_of_core(served, rows, memory_budget_bytes=budget)
    assert np.array_equal(streamed, reference.decision_function(big)), \
        "out-of-core scores must match the in-RAM sequential path bitwise"
    print(
        f"\nscored {rows.shape[0]} memmapped rows out of core "
        f"({big.nbytes >> 10} KB of data, {budget >> 10} KB resident ring)"
    )
    served.close()
    print(
        "every batch and the streamed dataset verified bitwise-equal to "
        "the sequential engine"
    )


if __name__ == "__main__":
    main()
