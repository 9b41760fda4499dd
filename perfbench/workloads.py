"""The four workloads: shapes, detector pools, phase plans.

Each workload exists to put most of its work into different layers
(the ``why`` strings are copied into ``BENCHMARK.json``), so that an
optimisation can name one workload where it should show and one where
the prediction is "no change".

A workload fixes the *distribution* of its data; ``--seed`` draws the
*sample*. Each workload owns a population from
``repro.data.synthetic.make_outlier_dataset`` (twice the rows a run
needs, generated from the workload's constant ``population_seed``) and
``--seed`` picks which rows a run trains and scores on. Seeding the
generator itself would redraw cluster centres and covariances, i.e.
make every seed a different workload: measured on the neighbour pool,
that alone moved the scoring rate by 17 % between seeds against 3.5 %
between runs of one seed. The program only ever sees the sampled arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.synthetic import make_outlier_dataset
from repro.detectors import (
    ABOD,
    CBLOF,
    COPOD,
    HBOS,
    KNN,
    LODA,
    LOF,
    PCAD,
    AvgKNN,
    IsolationForest,
    LoOP,
)


def hetero_pool():
    """The paper's headline scenario: 16 models from 11 families."""
    return [
        KNN(n_neighbors=5),
        KNN(n_neighbors=20, method="mean"),
        KNN(n_neighbors=50, method="median"),
        AvgKNN(n_neighbors=10),
        LOF(n_neighbors=10),
        LOF(n_neighbors=30),
        ABOD(n_neighbors=10),
        LoOP(n_neighbors=15),
        CBLOF(n_clusters=5),
        HBOS(n_bins=10),
        HBOS(n_bins=30),
        IsolationForest(n_estimators=100),
        IsolationForest(n_estimators=50, max_features=0.5),
        LODA(n_projections=100),
        COPOD(),
        PCAD(),
    ]


def neighbors_pool():
    """Ten neighbour detectors that can share one KD-tree."""
    return [
        KNN(n_neighbors=5),
        KNN(n_neighbors=15),
        KNN(n_neighbors=40, method="mean"),
        KNN(n_neighbors=25, method="median"),
        AvgKNN(n_neighbors=10),
        LOF(n_neighbors=10),
        LOF(n_neighbors=20),
        LOF(n_neighbors=40),
        LoOP(n_neighbors=15),
        ABOD(n_neighbors=10),
    ]


def serving_pool():
    """Cheap per-row models: serving overheads dominate one-row requests."""
    return [
        IsolationForest(n_estimators=100, max_samples=256),
        IsolationForest(n_estimators=100, max_samples=256),
        IsolationForest(n_estimators=100, max_samples=256),
        HBOS(n_bins=20),
        LODA(n_projections=50),
        COPOD(),
        KNN(n_neighbors=10),
        LOF(n_neighbors=15),
    ]


@dataclass(frozen=True)
class Shape:
    n_train: int
    n_features: int
    n_test: int
    request_rows: int  # rows per decision_function call / per request


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    A run is ``rounds`` repetitions of (set up, ``fits_per_round`` timed
    fits, timed scoring phases); every end-to-end timing is a quiet
    quartile over rounds or windows, so disturbed ones cannot move it.
    ``--seconds`` is split evenly over the rounds and, inside a round,
    over the scoring phases by the ``*_share`` fields; fits are fixed
    work.
    """

    name: str
    why: str
    kind: str  # "batch" or "serve"
    pool: object
    suod: dict
    shape: Shape
    quick_shape: Shape
    population_seed: int
    rounds: int
    fits_per_round: int
    window_requests: int  # scoring calls / requests per measurement window
    closed_share: float  # share of a round's seconds in the closed loop
    open_rps: float  # open-loop schedule (traced pass only if open_share == 0)
    open_share: float = 0.0  # share of a round's seconds in the open loop
    inflight: int = 1  # closed-loop requests in flight per connection

    def data(self, seed: int, quick: bool):
        """``(X_train, X_test, y_test)``: the rows ``seed`` draws from
        the workload's fixed population."""
        shape = self.quick_shape if quick else self.shape
        n_rows = shape.n_train + shape.n_test
        X, y = make_outlier_dataset(
            2 * n_rows, shape.n_features, random_state=self.population_seed
        )
        rows = np.random.default_rng(seed).permutation(2 * n_rows)[:n_rows]
        X, y = X[rows], y[rows]
        return X[: shape.n_train], X[shape.n_train :], y[shape.n_train :]


_OFF = {"rp_flag_global": False, "approx_flag_global": False}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="hetero_highdim_fit",
            why=(
                "Paper headline: 16-model heterogeneous pool on 1500x120 with "
                "RP+PSA+BPS on 2 shm workers; fit-dominated (PSA forests, "
                "detector fits, projection, scheduling); KD-tree and serving idle."
            ),
            kind="batch",
            pool=hetero_pool,
            suod={"n_jobs": 2, "backend": "shm_processes"},
            shape=Shape(1500, 120, 4500, 1500),
            quick_shape=Shape(120, 20, 1040, 80),
            population_seed=1,
            rounds=3,
            fits_per_round=1,
            window_requests=1,
            closed_share=0.25,
            open_rps=20.0,
            inflight=4,
        ),
        Workload(
            name="neighbors_lowdim_score",
            why=(
                "Score-dominated: 10 neighbour detectors share one KD-tree on "
                "6000x8 (1 build, 10 fused queries); PSA, projection, scheduler "
                "and parallel plane do nothing, so they must show no change here."
            ),
            kind="batch",
            pool=neighbors_pool,
            suod={"n_jobs": 1, **_OFF},
            shape=Shape(6000, 8, 8000, 500),
            quick_shape=Shape(600, 8, 1100, 100),
            population_seed=2,
            rounds=3,
            fits_per_round=1,
            window_requests=1,
            closed_share=0.65,
            open_rps=50.0,
            inflight=4,
        ),
        Workload(
            name="serve_single_open",
            why=(
                "Independent users: one-row requests to a real server, closed loop "
                "2x32 in flight then open loop at 1200 req/s; protocol, "
                "admission, batcher and the per-call plan floor do the work."
            ),
            kind="serve",
            pool=serving_pool,
            suod={"n_jobs": 1, **_OFF},
            shape=Shape(2000, 12, 6000, 1),
            quick_shape=Shape(400, 12, 1024, 1),
            population_seed=3,
            rounds=3,
            fits_per_round=2,
            window_requests=200,
            open_share=0.4,
            # ~50 % of the closed-loop capacity. 400 and 800 req/s are
            # bimodal (the batch policy settles at a p50 of 17 or 31 ms,
            # 4 against 6 runs of 10 at 800); 1200 is always the latter.
            open_rps=1200.0,
            closed_share=0.4,
            inflight=32,
        ),
        Workload(
            name="serve_bulk_closed",
            why=(
                "Callers that wait: 2 clients send 256-row requests and block on "
                "the reply; nothing to coalesce, compute- and codec-dominated, so "
                "a batching change that helps single-row users must not cost here."
            ),
            kind="serve",
            pool=serving_pool,
            suod={"n_jobs": 1, **_OFF},
            shape=Shape(2000, 12, 6144, 256),
            quick_shape=Shape(400, 12, 1024, 256),
            population_seed=3,
            rounds=3,
            fits_per_round=2,
            window_requests=6,
            closed_share=0.65,
            open_rps=10.0,
        ),
    )
}
