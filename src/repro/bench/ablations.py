"""Ablation runners for the design choices docs/architecture.md calls out.

- A1: JL distortion vs target dimension (the empirical face of Eq. 1);
- A2: cost-predictor validation (the paper's Spearman rho > 0.9 claim);
- A3: scheduler policy comparison (generic / shuffle / LPT / KK /
  discounted-alpha / oracle);
- A4: approximator family comparison (forest / ridge / knn-regressor /
  shallow tree) on proximity detectors.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.config import BenchConfig
from repro.scheduling import (
    CostPredictor,
    bps_schedule,
    get_scheduler,
    list_schedulers,
    lpt_partition,
    train_cost_predictor,
)
from repro.data import load_benchmark, train_test_split
from repro.detectors import KNN, LOF
from repro.metrics import makespan, precision_at_n, roc_auc_score, spearmanr
from repro.projection import JLProjector, JL_FAMILIES
from repro.supervised import (
    DecisionTreeRegressor,
    KNeighborsRegressor,
    RandomForestRegressor,
    Ridge,
)
from repro.utils.distances import pairwise_distances

__all__ = [
    "run_jl_distortion",
    "run_cost_predictor_validation",
    "run_scheduler_ablation",
    "run_scheduler_trajectory",
    "run_approximator_ablation",
]


def run_jl_distortion(cfg: BenchConfig, *, d: int = 96, n: int = 300):
    """A1: median/p95 pairwise-distance distortion and projection time
    per JL family across target dimensions k."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((n, d))
    D0 = pairwise_distances(X, metric="sqeuclidean")
    iu = np.triu_indices(n, k=1)
    rows = []
    for frac in (0.25, 0.5, 2.0 / 3.0, 0.9):
        k = max(1, int(frac * d))
        for family in JL_FAMILIES:
            dist_meds, dist_p95s, times = [], [], []
            for trial in range(cfg.trials):
                t0 = time.perf_counter()
                Z = JLProjector(k, family=family, random_state=trial).fit_transform(X)
                times.append(time.perf_counter() - t0)
                D1 = pairwise_distances(Z, metric="sqeuclidean")
                ratio = np.abs(D1[iu] / D0[iu] - 1.0)
                dist_meds.append(np.median(ratio))
                dist_p95s.append(np.quantile(ratio, 0.95))
            rows.append(
                {
                    "k_frac": round(frac, 3),
                    "k": k,
                    "family": family,
                    "median_distortion": float(np.mean(dist_meds)),
                    "p95_distortion": float(np.mean(dist_p95s)),
                    "time_ms": 1000.0 * float(np.mean(times)),
                }
            )
    return rows, {"config": cfg.describe(), "n": n, "d": d}


def run_cost_predictor_validation(cfg: BenchConfig):
    """A2: hold-out rank correlation of the trained cost predictor.

    The paper reports Spearman rho > 0.9 (10-fold CV over 47 datasets);
    we train on local timings and validate on a held-out third.
    """
    _, report = train_cost_predictor(
        families=["KNN", "LOF", "HBOS", "IsolationForest", "CBLOF"],
        n_grid=(150, 400, 800),
        d_grid=(5, 20),
        models_per_family=3,
        # Each cell records its fastest timed fit after an untimed
        # warm-up. The paper's target sums 10 trials; a minimum drops the
        # fits that other work on the host slowed down, a sum keeps them.
        n_trials=max(3, cfg.trials),
        random_state=0,
    )
    feats, secs = report["features"], report["seconds"]
    rng = np.random.default_rng(1)
    idx = rng.permutation(len(secs))
    cut = len(secs) // 3
    test_idx, train_idx = idx[:cut], idx[cut:]
    pred_model = CostPredictor(n_estimators=100, random_state=0).fit(
        feats[train_idx], secs[train_idx]
    )
    pred = np.exp(pred_model._rf.predict(feats[test_idx]))
    rho = spearmanr(pred, secs[test_idx])
    rows = [
        {
            "n_timings": len(secs),
            "n_holdout": cut,
            "spearman_rho": float(rho),
            "paper_claim": "rho > 0.9",
        }
    ]
    return rows, {"config": cfg.describe()}


def _seeded_scheduler(name: str):
    """A registry policy instance, seeded when it accepts a seed.

    Capability-probed (not name-matched), so any future stochastic
    policy joining the registry stays reproducible in the ablations —
    the same convention ``SUOD._make_scheduler`` uses.
    """
    try:
        return get_scheduler(name, random_state=0)
    except TypeError:
        return get_scheduler(name)


def _registry_assignments(noisy_forecast: np.ndarray, t: int) -> dict:
    """One assignment per *registered* scheduling policy.

    Iterating the registry instead of a hard-coded list means newly
    registered policies are ablated automatically. Every policy sees
    the same noisy forecast; stochastic policies are seeded for
    reproducible tables.
    """
    m = noisy_forecast.size
    assignments = {}
    for name in list_schedulers():
        scheduler = _seeded_scheduler(name)
        assignments[name] = scheduler.assign(m, t, noisy_forecast)
    return assignments


def run_scheduler_ablation(cfg: BenchConfig, *, m: int = 120, t: int = 8):
    """A3: makespan of every *registered* scheduling policy on
    heavy-tailed cost distributions, with forecasts perturbed by rank
    noise (policies see forecasts; the makespan is evaluated on true
    costs). ``oracle_lpt`` (LPT on the true costs) rides along as the
    reference upper baseline."""
    rng = np.random.default_rng(2)
    rows = []
    for dist_name, sampler in (
        ("exponential", lambda: rng.exponential(1.0, m)),
        ("lognormal", lambda: rng.lognormal(0.0, 1.5, m)),
        (
            "bimodal",
            lambda: np.concatenate(
                [rng.uniform(0.1, 0.2, m // 2), rng.uniform(5.0, 10.0, m - m // 2)]
            ),
        ),
    ):
        true_costs = np.sort(sampler())[::-1]  # family-ordered pathology
        noisy_forecast = true_costs * rng.lognormal(0.0, 0.3, m)
        policies = _registry_assignments(noisy_forecast, t)
        # Reference variants outside the registry: the undiscounted
        # rank-sum objective (raw Eq. 2, alpha=None) and the oracle.
        policies["bps_rank"] = bps_schedule(noisy_forecast, t, alpha=None)
        policies["oracle_lpt"] = lpt_partition(true_costs, t)
        lower_bound = max(true_costs.sum() / t, true_costs.max())
        for name, assignment in policies.items():
            span = makespan(true_costs, assignment, t)
            rows.append(
                {
                    "distribution": dist_name,
                    "policy": name,
                    "makespan": float(span),
                    "vs_lower_bound": float(span / lower_bound),
                }
            )
    return rows, {
        "config": cfg.describe(),
        "m": m,
        "t": t,
        "policies": list_schedulers() + ["bps_rank", "oracle_lpt"],
    }


def run_scheduler_trajectory(
    cfg: BenchConfig,
    *,
    m: int = 40,
    t: int = 4,
    batches: int = 5,
    heavy_fraction: float = 0.75,
):
    """Static-vs-adaptive makespan over consecutive batches (the feedback loop).

    A skewed pool — one task carrying ``heavy_fraction * m`` cost units
    among unit-cost peers — is scheduled from a maximally wrong forecast
    (all tasks look equal) and replayed through the virtual-clock
    simulated backend for ``batches`` consecutive rounds. After each
    round every scheduler is offered the batch's measured per-task
    durations (``ExecutionResult.task_times``); static policies ignore
    them, the adaptive policy folds them into its telemetry-refined cost
    model and reschedules. The trajectory shows the gap close: batch 1
    is identical for ``adaptive`` and ``bps-lpt``, by batch 3 the
    adaptive makespan has dropped to the oracle's while the static
    policies stay flat. Deterministic (virtual clock, seeded shuffle).
    """
    from repro.parallel import SimulatedClusterBackend

    true_costs = np.ones(m)
    true_costs[m - 1] = heavy_fraction * m  # hidden heavy task, last in order
    forecast = np.ones(m)  # the maximally wrong static guess
    backend = SimulatedClusterBackend(n_workers=t)
    lower_bound = float(max(true_costs.sum() / t, true_costs.max()))
    tasks = [None] * m  # replay mode never calls them

    rows = []
    for name in list_schedulers():
        scheduler = _seeded_scheduler(name)
        for batch in range(1, batches + 1):
            assignment = scheduler.assign(m, t, forecast, task_keys=range(m))
            result = backend.execute(tasks, assignment, known_costs=true_costs)
            scheduler.observe(result.task_times, task_keys=range(m))
            rows.append(
                {
                    "policy": name,
                    "batch": batch,
                    "makespan": float(result.wall_time),
                    "vs_lower_bound": float(result.wall_time / lower_bound),
                }
            )

    by_policy_batch = {(r["policy"], r["batch"]): r["makespan"] for r in rows}
    meta = {
        "config": cfg.describe(),
        "m": m,
        "t": t,
        "batches": batches,
        "lower_bound": lower_bound,
        "adaptive_batch1": by_policy_batch.get(("adaptive", 1)),
        "adaptive_batch3": by_policy_batch.get(("adaptive", 3)),
        "adaptive_final": by_policy_batch.get(("adaptive", batches)),
        "static_final": by_policy_batch.get(("bps-lpt", batches)),
    }
    return rows, meta


def run_approximator_ablation(cfg: BenchConfig, *, dataset: str = "Cardio"):
    """A4: which supervised family approximates proximity detectors best
    (test ROC / P@N / prediction time vs the original detector)."""
    from repro.bench.runners import _effective_scale

    X, y = load_benchmark(dataset, scale=_effective_scale(dataset, cfg), random_state=0)
    Xtr, Xte, ytr, yte = train_test_split(X, y, random_state=0)
    k = max(2, min(10, Xtr.shape[0] - 1))
    detectors = {"kNN": KNN(n_neighbors=k), "LOF": LOF(n_neighbors=2 * k)}
    approximators = {
        "forest": RandomForestRegressor(n_estimators=30, random_state=0),
        "shallow_tree": DecisionTreeRegressor(max_depth=4, random_state=0),
        "ridge": Ridge(alpha=1.0),
        "knn_reg": KNeighborsRegressor(n_neighbors=min(5, Xtr.shape[0] - 1)),
    }
    rows = []
    for det_name, det in detectors.items():
        det.fit(Xtr)
        t0 = time.perf_counter()
        s_orig = det.decision_function(Xte)
        t_orig = time.perf_counter() - t0
        rows.append(
            {
                "detector": det_name,
                "approximator": "(original)",
                "roc": roc_auc_score(yte, s_orig),
                "patn": precision_at_n(yte, s_orig),
                "pred_ms": 1000.0 * t_orig,
            }
        )
        for appr_name, proto in approximators.items():
            import copy

            reg = copy.deepcopy(proto)
            reg.fit(Xtr, det.decision_scores_)
            t0 = time.perf_counter()
            s = reg.predict(Xte)
            t_pred = time.perf_counter() - t0
            rows.append(
                {
                    "detector": det_name,
                    "approximator": appr_name,
                    "roc": roc_auc_score(yte, s),
                    "patn": precision_at_n(yte, s),
                    "pred_ms": 1000.0 * t_pred,
                }
            )
    return rows, {"config": cfg.describe(), "dataset": dataset}
