"""Backend scaling: the execution engine's perf trajectory benchmark.

One fixed, deliberately transport-bound workload (an HBOS pool over a
synthetic matrix — per-byte compute at the floor, so engine costs are
what the clock sees) is pushed through every real backend at several
worker counts: sequential, threads and shared-memory processes. The
predict phase scores the test set as a stream of consecutive batches —
the serving pattern — so per-execute engine costs (pool spawn, per-task
data transport) are weighted the way a request stream weights them.

Shape expectations pinned here:

- every configuration reproduces the sequential reference bitwise
  (the engine may move bytes differently, never change them);
- the same JSON rows are what ``python -m repro scaling --quick --json``
  emits and what CI's ``bench-smoke`` job uploads, so regressions in the
  engine become visible as a perf trajectory. Timings are informational
  on shared hosts; only parity is asserted.
"""

from conftest import run_once
from repro.bench import format_table
from repro.bench.runners import run_backend_scaling


def test_backend_scaling(benchmark, cfg):
    rows, meta = run_once(
        benchmark,
        run_backend_scaling,
        cfg,
        worker_counts=(1, 2, 4),
        n_train=3000,
        n_test=16000,
        n_models=8,
        repeats=3,
    )
    print()
    print(meta["config"])
    print(
        format_table(
            rows,
            columns=[
                "backend",
                "n_workers",
                "fit_s",
                "predict_s",
                "total_s",
                "speedup_vs_sequential",
                "identical",
            ],
            title="\nBackend scaling — fit + predict wall clock",
        )
    )
    # The engine may move bytes differently, never change them.
    assert meta["scores_identical"], "a backend produced different scores"
    assert all(r["identical"] for r in rows)

    # Every backend × worker count actually ran.
    backends = {r["backend"] for r in rows}
    assert backends == {"sequential", "threads", "shm_processes"}
    assert {r["n_workers"] for r in rows} == {1, 2, 4}
