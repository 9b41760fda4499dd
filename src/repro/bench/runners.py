"""Experiment runners regenerating every table and figure of the paper.

Each runner returns ``(rows, meta)`` where ``rows`` is a list of dicts
(one per printed table row) and ``meta`` records the active scaling
configuration. The ``benchmarks/`` files are thin wrappers that time the
runners and print the tables.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.config import BenchConfig
from repro.combination import ecdf_standardise, moa
from repro.scheduling import AnalyticCostModel, bps_schedule, generic_schedule
from repro.core.suod import SUOD
from repro.data import (
    load_benchmark,
    make_claims_dataset,
    make_fig3_toy,
    make_outlier_dataset,
    train_test_split,
)
from repro.data.benchmark import TABLE_A1
from repro.detectors import (
    ABOD,
    COPOD,
    HBOS,
    KNN,
    LODA,
    LOF,
    PCAD,
    AvgKNN,
    CBLOF,
    FeatureBagging,
    IsolationForest,
    LoOP,
    sample_model_pool,
)
from repro.metrics import makespan, precision_at_n, roc_auc_score
from repro.parallel import WorkStealingBackend, chunk_slices
from repro.pipeline import PlanRunner
from repro.projection import PROJECTION_METHODS, jl_target_dim, make_projector
from repro.supervised import RandomForestRegressor

__all__ = [
    "run_table1_projection",
    "run_psa_comparison",
    "run_table4_bps",
    "run_table5_full_system",
    "run_fig3_decision_surface",
    "run_claims_case",
    "run_dynamic_scheduling",
    "run_plan_overhead",
    "run_backend_scaling",
    "run_kernel_benchmarks",
    "run_sharing_benchmark",
    "run_approx_benchmark",
    "run_memory_benchmark",
    "run_service_benchmark",
]


def _host_meta() -> dict:
    """Host facts stamped into every bench JSON meta.

    Includes the process's peak RSS so committed benchmark artifacts
    carry their memory footprint alongside their wall times (the
    memory-plane PR's acceptance evidence, but recorded everywhere so
    regressions in *any* runner's footprint show up in the bench
    trajectory). ``ru_maxrss`` is kilobytes on Linux, bytes on macOS.
    """
    import os
    import platform
    import sys

    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        peak_bytes = int(peak) * (1 if sys.platform == "darwin" else 1024)
    except ImportError:  # non-POSIX platform: no getrusage
        peak_bytes = None
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "peak_rss_bytes": peak_bytes,
    }


def _effective_scale(name: str, cfg: BenchConfig) -> float:
    n = TABLE_A1[name][0]
    return min(cfg.scale, cfg.max_n / n, 1.0)


def _load(name: str, cfg: BenchConfig, seed=None):
    return load_benchmark(name, scale=_effective_scale(name, cfg), random_state=seed)


def _safe_k(n_train: int, k: int) -> int:
    return max(2, min(k, n_train - 1))


# ---------------------------------------------------------------------------
# Table 1 — data compression methods
# ---------------------------------------------------------------------------
_T1_DATASETS = ("Cardio", "MNIST", "Satellite", "Satimage-2")


def _t1_detector(name: str, n: int):
    if name == "ABOD":
        return ABOD(n_neighbors=_safe_k(n, 10))
    if name == "LOF":
        return LOF(n_neighbors=_safe_k(n, 20))
    if name == "KNN":
        return KNN(n_neighbors=_safe_k(n, 10))
    raise ValueError(name)


def run_table1_projection(
    cfg: BenchConfig,
    *,
    datasets=_T1_DATASETS,
    detectors=("ABOD", "LOF", "KNN"),
    methods=PROJECTION_METHODS,
):
    """Table 1: execution time / ROC / P@N per compression method.

    Protocol (§4.1): the full (replica) dataset is used for model
    building; k = 2d/3; metrics computed on training scores.
    """
    rows = []
    for ds in datasets:
        for det_name in detectors:
            for method in methods:
                times, rocs, patns = [], [], []
                for trial in range(cfg.trials):
                    X, y = _load(ds, cfg, seed=trial)
                    k = jl_target_dim(X.shape[1])
                    t0 = time.perf_counter()
                    proj = make_projector(method, k, random_state=trial)
                    Z = proj.fit(X).transform(X)
                    det = _t1_detector(det_name, X.shape[0]).fit(Z)
                    times.append(time.perf_counter() - t0)
                    rocs.append(roc_auc_score(y, det.decision_scores_))
                    patns.append(precision_at_n(y, det.decision_scores_))
                rows.append(
                    {
                        "dataset": ds,
                        "detector": det_name,
                        "method": method,
                        "time": float(np.mean(times)),
                        "roc": float(np.mean(rocs)),
                        "patn": float(np.mean(patns)),
                    }
                )
    return rows, {"config": cfg.describe(), "k": "2d/3"}


# ---------------------------------------------------------------------------
# Tables 2 & 3 — pseudo-supervised approximation
# ---------------------------------------------------------------------------
_PSA_DATASETS = (
    "Annthyroid",
    "Breastw",
    "Cardio",
    "HTTP",
    "MNIST",
    "Pendigits",
    "Pima",
    "Satellite",
    "Satimage-2",
    "Thyroid",
)


def _psa_models(n_train: int):
    return {
        "ABOD": ABOD(n_neighbors=_safe_k(n_train, 10)),
        "CBLOF": CBLOF(n_clusters=min(8, max(2, n_train // 20)), random_state=0),
        "FB": FeatureBagging(n_estimators=5, random_state=0),
        "kNN": KNN(n_neighbors=_safe_k(n_train, 10)),
        "aKNN": AvgKNN(n_neighbors=_safe_k(n_train, 10)),
        "LOF": LOF(n_neighbors=_safe_k(n_train, 20)),
    }


def run_psa_comparison(cfg: BenchConfig, *, datasets=_PSA_DATASETS):
    """Tables 2 & 3: prediction ROC and P@N, original vs approximator.

    Protocol (§4.2): 60/40 split; the approximator is a random forest
    regressor trained on the detector's train-set scores; both score the
    held-out 40%.
    """
    rows = []
    for ds in datasets:
        per_model: dict[str, dict[str, list[float]]] = {}
        for trial in range(cfg.trials):
            X, y = _load(ds, cfg, seed=trial)
            Xtr, Xte, ytr, yte = train_test_split(X, y, random_state=trial)
            if yte.sum() == 0 or yte.sum() == yte.size:  # degenerate split
                continue
            for name, det in _psa_models(Xtr.shape[0]).items():
                det.fit(Xtr)
                s_orig = det.decision_function(Xte)
                reg = RandomForestRegressor(
                    n_estimators=30, random_state=trial
                ).fit(Xtr, det.decision_scores_)
                s_appr = reg.predict(Xte)
                rec = per_model.setdefault(
                    name,
                    {"roc_o": [], "roc_a": [], "pn_o": [], "pn_a": []},
                )
                rec["roc_o"].append(roc_auc_score(yte, s_orig))
                rec["roc_a"].append(roc_auc_score(yte, s_appr))
                rec["pn_o"].append(precision_at_n(yte, s_orig))
                rec["pn_a"].append(precision_at_n(yte, s_appr))
        for name, rec in per_model.items():
            rows.append(
                {
                    "dataset": ds,
                    "model": name,
                    "roc_orig": float(np.mean(rec["roc_o"])),
                    "roc_appr": float(np.mean(rec["roc_a"])),
                    "patn_orig": float(np.mean(rec["pn_o"])),
                    "patn_appr": float(np.mean(rec["pn_a"])),
                }
            )
    return rows, {"config": cfg.describe()}


# ---------------------------------------------------------------------------
# Table 4 — balanced parallel scheduling
# ---------------------------------------------------------------------------
_T4_DATASETS = ("Cardio", "Letter", "PageBlock", "Pendigits")
_T4_FAMILIES = ("KNN", "IsolationForest", "HBOS", "OCSVM")


def _family_ordered_pool(m: int, n_train: int, seed: int):
    """The §3.5 pathology: equal blocks of each family, ordered by family
    (what a parameter-grid loop naturally produces)."""
    per = max(1, m // len(_T4_FAMILIES))
    pool = []
    for i, fam in enumerate(_T4_FAMILIES):
        pool.extend(
            sample_model_pool(
                per,
                families=[fam],
                max_n_neighbors=_safe_k(n_train, 100),
                random_state=seed + i,
            )
        )
    return pool


def run_table4_bps(
    cfg: BenchConfig,
    *,
    datasets=_T4_DATASETS,
    m_list=(40, 120),
    t_list=(2, 4, 8),
):
    """Table 4: training makespan, Generic vs BPS scheduling.

    Each model in a family-ordered pool is fitted once on the local core
    with its wall time recorded; the recorded costs are then replayed
    through t virtual workers under both schedules (the virtual makespan
    of :class:`repro.parallel.SimulatedClusterBackend`). BPS schedules on
    *forecast* costs (analytic model) and is evaluated on *measured*
    costs — exactly the paper's setting.
    """
    rows = []
    cost_model = AnalyticCostModel()
    for ds in datasets:
        X, _ = _load(ds, cfg, seed=0)
        n, d = X.shape
        for m in m_list:
            pool = _family_ordered_pool(m, n, seed=42)
            measured = np.empty(len(pool))
            for i, model in enumerate(pool):
                t0 = time.perf_counter()
                model.fit(X)
                measured[i] = time.perf_counter() - t0
            forecast = cost_model.forecast(pool, X)
            for t in t_list:
                gen = makespan(measured, generic_schedule(len(pool), t), t)
                bps = makespan(measured, bps_schedule(forecast, t), t)
                rows.append(
                    {
                        "dataset": ds,
                        "n": n,
                        "d": d,
                        "m": len(pool),
                        "t": t,
                        "generic": gen,
                        "bps": bps,
                        "redu_pct": 100.0 * (gen - bps) / gen if gen > 0 else 0.0,
                    }
                )
    return rows, {"config": cfg.describe(), "paper_m": "(100, 500, 1000)"}


# ---------------------------------------------------------------------------
# Dynamic scheduling — static (Generic/BPS) vs work stealing
# ---------------------------------------------------------------------------
def _ws_replay(costs: np.ndarray, assignment: np.ndarray, t: int):
    res = WorkStealingBackend(t).execute(
        [None] * costs.size, assignment, known_costs=costs
    )
    return res.wall_time, res.total_steals


def run_dynamic_scheduling(
    cfg: BenchConfig,
    *,
    m_list=(40, 120),
    t_list=(2, 4, 8),
    sigmas=(0.5, 1.5),
    chunk_factor: int = 4,
):
    """Static vs dynamic makespan on skewed synthetic cost pools.

    Pools draw per-task costs from a log-normal (``sigma`` controls the
    skew) and are sorted descending — the worst case for a contiguous
    split, and the shape a family-ordered model pool produces. BPS
    schedules on *noisy* forecasts (rank-correlated with the truth, as
    the cost predictor's are); every schedule is judged on true costs
    via deterministic virtual-clock replay:

    - ``generic`` / ``bps`` — static makespan of the assignment;
    - ``ws_gen`` / ``ws_bps`` — work-stealing replay seeded by the same
      assignment (steal counts show how much the forecast missed);
    - ``ws_chunk`` — work stealing after splitting every task into
      ``chunk_factor`` equal chunks (the SUOD ``batch_size`` grain);
    - ``ideal`` — the sum/t lower bound on any schedule.
    """
    rows = []
    for m in m_list:
        for sigma in sigmas:
            for t in t_list:
                fields = (
                    "generic",
                    "bps",
                    "ws_gen",
                    "ws_bps",
                    "ws_chunk",
                    "steals",
                    "ideal",
                )
                acc = {k: [] for k in fields}
                for trial in range(cfg.trials):
                    rng = np.random.default_rng(1000 * trial + m + int(10 * sigma))
                    true = np.sort(rng.lognormal(0.0, sigma, m))[::-1]
                    forecast = true * rng.lognormal(0.0, 0.5, m)
                    gen_a = generic_schedule(m, t)
                    bps_a = bps_schedule(forecast, t)
                    acc["generic"].append(makespan(true, gen_a, t))
                    acc["bps"].append(makespan(true, bps_a, t))
                    ws_g, steals = _ws_replay(true, gen_a, t)
                    ws_b, _ = _ws_replay(true, bps_a, t)
                    acc["ws_gen"].append(ws_g)
                    acc["ws_bps"].append(ws_b)
                    acc["steals"].append(steals)
                    chunked = np.repeat(true / chunk_factor, chunk_factor)
                    chunk_a = generic_schedule(chunked.size, t)
                    acc["ws_chunk"].append(_ws_replay(chunked, chunk_a, t)[0])
                    acc["ideal"].append(true.sum() / t)
                mean = {k: float(np.mean(v)) for k, v in acc.items()}
                mean.update(
                    m=m,
                    sigma=sigma,
                    t=t,
                    redu_pct=100.0 * (mean["generic"] - mean["ws_gen"])
                    / mean["generic"],
                )
                rows.append(mean)
    return rows, {
        "config": cfg.describe(),
        "chunk_factor": chunk_factor,
        "forecast_noise": "lognormal(0, 0.5) multiplicative",
    }


# ---------------------------------------------------------------------------
# Plan stage telemetry — per-stage wall times + planner overhead
# ---------------------------------------------------------------------------
def run_plan_overhead(
    cfg: BenchConfig, *, n_jobs: int = 4, backend: str = "work_stealing"
):
    """Per-stage timings of a planned fit + predict pass.

    Fits and scores a heterogeneous pool through the plan pipeline and
    reports one row per (phase, stage) with its wall time and share of
    the phase total, plus a ``(plan overhead)`` row per phase: the
    phase's end-to-end wall time minus the summed stage walls — i.e. the
    cost of the planner/executor machinery itself. ``overhead_pct``
    states that overhead relative to the execute stage's makespan; the
    refactor's contract is that it stays within noise (< 5%).
    """
    n = max(300, min(cfg.max_n, int(4000 * cfg.scale)))
    X, _ = make_outlier_dataset(
        n_samples=n, n_features=12, contamination=0.1, random_state=0
    )
    pool = sample_model_pool(
        max(8, cfg.n_models // 2),
        max_n_neighbors=_safe_k(n, 60),
        random_state=3,
    )
    clf = SUOD(pool, n_jobs=n_jobs, backend=backend, random_state=0)
    t0 = time.perf_counter()
    clf.fit(X)
    fit_total = time.perf_counter() - t0
    t0 = time.perf_counter()
    clf.decision_function(X)
    pred_total = time.perf_counter() - t0

    rows = []
    for phase, plan, total in (
        ("fit", clf.fit_plan_, fit_total),
        ("predict", clf.predict_plan_, pred_total),
    ):
        for report in plan.reports:
            rows.append(
                {
                    "phase": phase,
                    "stage": report.stage,
                    "wall_s": report.wall_time,
                    "share_pct": 100.0 * report.wall_time / total,
                    "steals": report.total_steals,
                }
            )
        stage_sum = plan.total_wall_time
        exec_wall = plan.report_for("execute").wall_time
        overhead = max(0.0, total - stage_sum)
        rows.append(
            {
                "phase": phase,
                "stage": "(plan overhead)",
                "wall_s": overhead,
                "share_pct": 100.0 * overhead / total,
                "overhead_pct": 100.0 * overhead / max(exec_wall, 1e-12),
            }
        )
    merged = clf.merged_telemetry()
    meta = {
        "config": cfg.describe(),
        "n": n,
        "m": len(pool),
        "n_jobs": n_jobs,
        "backend": backend,
        "combined_wall": merged.wall_time,
        "combined_steals": merged.total_steals,
        "combined_idle": float(merged.idle_times.sum()),
    }
    return rows, meta


# ---------------------------------------------------------------------------
# Table 5 — full system
# ---------------------------------------------------------------------------
_T5_DATASETS = (
    "Annthyroid",
    "Cardio",
    "MNIST",
    "Optdigits",
    "Pendigits",
    "Pima",
    "Shuttle",
    "SpamSpace",
    "Thyroid",
    "Waveform",
)


def _combined_metrics(clf: SUOD, Xte, yte):
    """Avg / MOA combination ROC and P@N on held-out data.

    Consumes the predict *plan* directly: runs it up to the execute
    stage (so the raw matrix is available before any combiner is fixed)
    and reads the scoring wall time off the stage report instead of
    re-implementing orchestration.
    """
    plan = clf.build_predict_plan(Xte)
    try:
        PlanRunner().run(plan, until="execute")
        M = plan.context.matrix
    finally:
        # Keep the stage reports (Table 5 reads task_times off them) but
        # drop Xte/spaces/matrix so looping over system variants does not
        # pin every variant's arrays simultaneously.
        plan.release_data()
    U = ecdf_standardise(M, ref=clf.train_score_matrix_)
    avg = U.mean(axis=0)
    m_oa = moa(U, n_buckets=min(5, U.shape[0]), standardise=False, random_state=0)
    out = {}
    out["roc_avg"] = roc_auc_score(yte, avg)
    out["roc_moa"] = roc_auc_score(yte, m_oa)
    out["patn_avg"] = precision_at_n(yte, avg)
    out["patn_moa"] = precision_at_n(yte, m_oa)
    return out, plan.report_for("execute").execution.wall_time


def run_table5_full_system(
    cfg: BenchConfig, *, datasets=_T5_DATASETS, t_list=(5, 10, 30)
):
    """Table 5: baseline vs full SUOD — fit/pred virtual time + accuracy.

    The pool is randomly sampled from Table B.1 (the paper's worst-case
    shuffled ordering). Each system fits its models **once** on the local
    core (the simulated backend records per-model costs); the measured
    costs are then replayed through every worker count in ``t_list``
    under the system's scheduling policy, so the reported times are
    virtual makespans without redundant refits.
    """
    rows = []
    cost_model = AnalyticCostModel()
    approx_clf = RandomForestRegressor(n_estimators=20, max_depth=10, random_state=0)
    for ds in datasets:
        X, y = _load(ds, cfg, seed=0)
        Xtr, Xte, ytr, yte = train_test_split(X, y, random_state=0)
        if yte.sum() == 0:
            continue
        per_system = {}
        for label, flags in (
            ("B", dict(rp_flag_global=False, approx_flag_global=False, bps_flag=False)),
            ("S", dict(rp_flag_global=True, approx_flag_global=True, bps_flag=True)),
        ):
            pool = sample_model_pool(
                cfg.n_models,
                max_n_neighbors=_safe_k(Xtr.shape[0], 100),
                random_state=7,
            )
            clf = SUOD(
                pool,
                n_jobs=1,  # fit once; parallel times replayed below
                approx_clf=approx_clf,
                random_state=0,
                **flags,
            )
            clf.fit(Xtr)
            fit_costs = clf.fit_plan_.report_for("execute").execution.task_times
            metrics, _ = _combined_metrics(clf, Xte, yte)
            pred_costs = clf.predict_plan_.report_for("execute").execution.task_times
            forecast = cost_model.forecast(clf.base_estimators_, Xtr)
            per_system[label] = (clf, fit_costs, pred_costs, forecast, metrics)

        for t in t_list:
            row = {"dataset": ds, "n": X.shape[0], "d": X.shape[1], "t": t}
            for label, system in per_system.items():
                clf, fit_costs, pred_costs, forecast, metrics = system
                m = len(fit_costs)
                if label == "S":  # BPS on forecast ranks
                    assignment = bps_schedule(forecast, t)
                else:  # generic contiguous split
                    assignment = generic_schedule(m, t)
                row[f"fit_{label}"] = makespan(fit_costs, assignment, t)
                row[f"pred_{label}"] = makespan(pred_costs, assignment, t)
                for key, value in metrics.items():
                    row[f"{key}_{label}"] = value
            rows.append(row)
    return rows, {"config": cfg.describe(), "paper_models": 600}


# ---------------------------------------------------------------------------
# Figure 3 — decision surfaces on the 2-D toy
# ---------------------------------------------------------------------------
def _count_errors(scores: np.ndarray, y: np.ndarray, contamination: float) -> int:
    thr = np.quantile(scores, 1.0 - contamination)
    pred = (scores > thr).astype(int)
    return int((pred != y).sum())


def _ascii_surface(score_fn, extent: float = 6.0, width: int = 48, height: int = 20):
    """Coarse ASCII rendering of a 2-D decision surface (score deciles)."""
    xs = np.linspace(-extent, extent, width)
    ys = np.linspace(-extent, extent, height)
    grid = np.array([[x, yv] for yv in ys for x in xs])
    s = score_fn(grid).reshape(height, width)
    chars = " .:-=+*#%@"
    ranks = np.digitize(s, np.quantile(s, np.linspace(0.1, 0.9, 9)))
    return "\n".join("".join(chars[v] for v in row) for row in ranks[::-1])


def run_fig3_decision_surface(cfg: BenchConfig):
    """Figure 3: error counts (and ASCII surfaces) for four unsupervised
    models vs their pseudo-supervised approximators on the 200-sample toy.
    """
    X, y = make_fig3_toy(random_state=0)
    contamination = float(y.mean())
    models = {
        "ABOD": ABOD(n_neighbors=10, contamination=contamination),
        "FeatureBagging": FeatureBagging(
            n_estimators=10, random_state=0, contamination=contamination
        ),
        "kNN": KNN(n_neighbors=10, contamination=contamination),
        "LOF": LOF(n_neighbors=10, contamination=contamination),
    }
    rows, surfaces = [], {}
    for name, det in models.items():
        det.fit(X)
        reg = RandomForestRegressor(n_estimators=50, random_state=0).fit(
            X, det.decision_scores_
        )
        err_orig = _count_errors(det.decision_function(X), y, contamination)
        err_appr = _count_errors(reg.predict(X), y, contamination)
        rows.append({"model": name, "errors_orig": err_orig, "errors_appr": err_appr})
        surfaces[name] = _ascii_surface(det.decision_function)
        surfaces[f"{name} approximator"] = _ascii_surface(reg.predict)
    return rows, {"config": cfg.describe(), "surfaces": surfaces}


# ---------------------------------------------------------------------------
# §4.5 — claims-fraud deployment case
# ---------------------------------------------------------------------------
def run_claims_case(cfg: BenchConfig, *, n_workers: int = 10):
    """The IQVIA-style deployment: full SUOD vs the current (baseline)
    system on the synthetic claims table, 10 workers, 60/40 split.
    """
    n = max(1000, int(123720 * min(cfg.scale, 4000 / 123720)))
    X, y = make_claims_dataset(n, random_state=0)
    Xtr, Xte, ytr, yte = train_test_split(X, y, random_state=0)
    out = {}
    for label, flags in (
        (
            "baseline",
            dict(rp_flag_global=False, approx_flag_global=False, bps_flag=False),
        ),
        ("suod", dict(rp_flag_global=True, approx_flag_global=True, bps_flag=True)),
    ):
        # Two timing passes per system; keep the faster one. Per-model
        # costs are measured live, so a single transient load spike on
        # the host would otherwise be attributed to whichever system
        # happened to be fitting at that moment.
        best = None
        for timing_pass in range(2):
            pool = sample_model_pool(
                max(10, cfg.n_models // 2),
                families=["KNN", "LOF", "HBOS", "IsolationForest", "CBLOF"],
                max_n_neighbors=_safe_k(Xtr.shape[0], 60),
                random_state=11,
            )
            clf = SUOD(
                pool,
                n_jobs=n_workers,
                backend="simulated",
                approx_clf=RandomForestRegressor(
                    n_estimators=20, max_depth=10, random_state=0
                ),
                random_state=0,
                **flags,
            ).fit(Xtr)
            metrics, pred_time = _combined_metrics(clf, Xte, yte)
            candidate = {
                "fit_time": clf.fit_result_.wall_time,
                "pred_time": pred_time,
                "roc": metrics["roc_avg"],
                "patn": metrics["patn_avg"],
            }
            if best is None or candidate["fit_time"] < best["fit_time"]:
                best = candidate
        out[label] = best
    b, s = out["baseline"], out["suod"]
    rows = [
        {"system": "baseline", **b},
        {"system": "suod", **s},
        {
            "system": "delta_pct",
            "fit_time": 100.0 * (b["fit_time"] - s["fit_time"]) / b["fit_time"],
            "pred_time": 100.0 * (b["pred_time"] - s["pred_time"]) / b["pred_time"],
            "roc": 100.0 * (s["roc"] - b["roc"]) / max(b["roc"], 1e-9),
            "patn": 100.0 * (s["patn"] - b["patn"]) / max(b["patn"], 1e-9),
        },
    ]
    return rows, {"config": cfg.describe(), "n_claims": n, "paper_n": 123720}


# ---------------------------------------------------------------------------
# Backend scaling — sequential vs threads vs work stealing vs processes
# vs shm processes, across worker counts (the perf trajectory benchmark)
# ---------------------------------------------------------------------------
SCALING_BACKENDS = (
    "sequential",
    "threads",
    "work_stealing",
    "processes",
    "shm_processes",
)


def _scaling_pool(n_models: int, seed: int) -> list:
    """A deliberately transport-bound pool for the scaling benchmark.

    HBOS scores at near-memcpy cost per byte (one ``searchsorted`` per
    feature), so the measured walls are dominated by what this
    benchmark is actually about — the execution engine's pool spawn,
    dispatch, and data-transport costs — rather than by model compute
    that no engine can parallelise away on a loaded host. A compute-
    heavy pool (kNN, ABOD) would bury a 50 ms transport regression
    under seconds of arithmetic. HBOS is also RP-exempt, which makes
    the shm plane's dedup visible: every space is the same ``X``
    object, materialised as one shared segment.
    """
    bin_counts = (10, 20, 30, 40)
    return [HBOS(n_bins=bin_counts[i % len(bin_counts)]) for i in range(n_models)]


def run_backend_scaling(
    cfg: BenchConfig,
    *,
    backends: tuple = SCALING_BACKENDS,
    worker_counts: tuple = (1, 2, 4),
    n_train: int = 3000,
    n_test: int = 24000,
    n_features: int = 16,
    n_models: int = 12,
    batch_size: int | None = None,
    repeats: int | None = None,
    predict_batches: int = 4,
    seed: int = 0,
):
    """Fit + predict wall clock for every backend × worker count.

    One long-lived estimator per configuration runs ``repeats`` full
    fit + predict passes; the reported walls are the per-phase minima
    (best-of), which is the stable statistic on a shared host. The
    predict phase scores the test set in ``predict_batches``
    consecutive row batches — the serving pattern the ROADMAP targets —
    so per-call engine costs (a pickling backend spawns its pool on
    *every* execute; a persistent pool stays warm) are weighted as a
    request stream weights them, not amortised into one giant call.
    Batch boundaries never change the numbers: per-row scoring is
    batch-separable, and the concatenated batch scores are compared
    bitwise against a single-pass sequential reference. Pools that
    persist across calls (``shm_processes``) keep their workers warm
    between batches and repeats — that persistence is part of what the
    benchmark measures. Every configuration's ``decision_scores_`` and
    test scores are checked bitwise against the sequential reference;
    a mismatch poisons the row (``identical=False``) and the meta flag.

    Returns rows of ``{backend, n_workers, fit_s, predict_s, total_s,
    speedup_vs_sequential, identical}`` plus a meta dict carrying the
    generating config, host facts, and the headline
    ``shm_speedup_vs_processes`` ratio at the largest worker count
    where both ran.
    """
    if repeats is None:
        repeats = max(2, cfg.trials)
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if predict_batches < 1:
        raise ValueError("predict_batches must be >= 1")
    if not worker_counts or any(t < 1 for t in worker_counts):
        raise ValueError("worker_counts must be non-empty positive ints")
    Xtr, _ = make_outlier_dataset(
        n_train, n_features, contamination=0.1, random_state=seed
    )
    Xte, _ = make_outlier_dataset(
        n_test, n_features, contamination=0.1, random_state=seed + 1
    )

    def fresh_clf(backend: str, t: int) -> SUOD:
        return SUOD(
            _scaling_pool(n_models, seed),
            n_jobs=t,
            backend=backend,
            batch_size=batch_size,
            approx_flag_global=False,  # measure the engine, not PSA
            random_state=seed,
        )

    ref = fresh_clf("sequential", 1).fit(Xtr)
    ref_train = ref.decision_scores_
    ref_test = ref.decision_function(Xte)

    batch_rows = -(-n_test // max(1, predict_batches))
    batch_slices = chunk_slices(n_test, batch_rows)

    def serve(clf: SUOD) -> np.ndarray:
        if len(batch_slices) == 1:
            return clf.decision_function(Xte)
        return np.concatenate([clf.decision_function(Xte[sl]) for sl in batch_slices])

    configs = []
    for backend in backends:
        if backend == "sequential":
            configs.append((backend, 1))
        else:
            configs.extend((backend, t) for t in worker_counts if t > 1)

    rows = []
    all_identical = True
    for backend, t in configs:
        clf = fresh_clf(backend, t)
        fit_s = predict_s = float("inf")
        identical = True
        try:
            for _ in range(repeats):
                t0 = time.perf_counter()
                clf.fit(Xtr)
                fit_s = min(fit_s, time.perf_counter() - t0)
                t0 = time.perf_counter()
                scores = serve(clf)
                predict_s = min(predict_s, time.perf_counter() - t0)
                identical = (
                    identical
                    and np.array_equal(clf.decision_scores_, ref_train)
                    and np.array_equal(scores, ref_test)
                )
        finally:
            clf.close()
        all_identical = all_identical and identical
        rows.append(
            {
                "backend": backend,
                "n_workers": t,
                "fit_s": fit_s,
                "predict_s": predict_s,
                "total_s": fit_s + predict_s,
                "identical": identical,
            }
        )

    seq_total = next(r["total_s"] for r in rows if r["backend"] == "sequential")
    for r in rows:
        r["speedup_vs_sequential"] = seq_total / r["total_s"]

    def _total(backend: str, t: int) -> float | None:
        for r in rows:
            if r["backend"] == backend and r["n_workers"] == t:
                return r["total_s"]
        return None

    shm_vs_procs = None
    largest_t = None
    for t in sorted({r["n_workers"] for r in rows}, reverse=True):
        procs, shm = _total("processes", t), _total("shm_processes", t)
        if procs is not None and shm is not None:
            shm_vs_procs = procs / shm
            largest_t = t
            break

    meta = {
        "config": cfg.describe(),
        "benchmark": "backend_scaling",
        "n_train": n_train,
        "n_test": n_test,
        "n_features": n_features,
        "n_models": n_models,
        "batch_size": batch_size,
        "repeats": repeats,
        "predict_batches": predict_batches,
        "seed": seed,
        "worker_counts": list(worker_counts),
        "host": _host_meta(),
        "scores_identical": all_identical,
        "shm_speedup_vs_processes": shm_vs_procs,
        "shm_speedup_worker_count": largest_t,
    }
    return rows, meta


def run_kernel_benchmarks(
    cfg: BenchConfig,
    *,
    n_index: int = 8000,
    n_query: int = 3000,
    k_neighbors: int = 10,
    n_features: int = 6,
    iforest_train: int = 2048,
    n_trees: int = 100,
    serve_batch: int = 256,
    serve_batches: int = 32,
    ensemble_train: int = 1500,
    split_rows: int = 4000,
    split_features: int = 12,
    abod_queries: int = 3000,
    repeats: int | None = None,
    seed: int = 0,
):
    """Before/after microbenchmarks for every :mod:`repro.kernels` kernel.

    Each row times one hot-path kernel twice — through the frozen
    pre-refactor reference implementation
    (:mod:`repro.kernels.reference`) and through the vectorised batched
    path now on the production route — on the same data, and checks the
    outputs bitwise. Wall times are best-of-``repeats``. Scoring-shaped
    kernels (iForest, forest/GBM predict) run the serving pattern the
    execution plane produces: ``serve_batches`` consecutive batches of
    ``serve_batch`` rows, which is where eliminating per-tree Python
    dispatch pays (single bulk calls of many thousands of rows sit at
    parity — both formulations are bandwidth-bound there).

    Returns rows of ``{kernel, reference_s, vectorized_s, speedup,
    identical}`` plus a meta dict with the headline gates
    (``knn_query_speedup``, ``iforest_speedup``, ``all_identical``) —
    the format of ``BENCH_pr5.json`` and the CI bench-smoke artifact.
    """
    from repro.detectors import IsolationForest
    from repro.detectors.lof import _EPS as _LOF_EPS
    from repro.kernels import pairwise_angle_variance, reference
    from repro.neighbors import KDTree
    from repro.supervised import (
        DecisionTreeRegressor,
        GradientBoostingRegressor,
    )

    if repeats is None:
        repeats = max(2, cfg.trials)
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    rng = np.random.default_rng(seed)

    def best_of(fn):
        best, value = float("inf"), None
        for _ in range(repeats):
            t0 = time.perf_counter()
            value = fn()
            best = min(best, time.perf_counter() - t0)
        return best, value

    rows = []

    def add_row(kernel, ref_fn, vec_fn, same_fn):
        ref_s, ref_out = best_of(ref_fn)
        vec_s, vec_out = best_of(vec_fn)
        rows.append(
            {
                "kernel": kernel,
                "reference_s": ref_s,
                "vectorized_s": vec_s,
                "speedup": ref_s / vec_s if vec_s > 0 else float("inf"),
                "identical": bool(same_fn(ref_out, vec_out)),
            }
        )

    def arrays_equal(a, b):
        return all(np.array_equal(x, y) for x, y in zip(a, b))

    # -- neighbor query: per-row heap search vs block-batched sweep ------
    X_index = rng.standard_normal((n_index, n_features))
    X_query = rng.standard_normal((n_query, n_features))
    tree = KDTree(X_index)
    add_row(
        "knn_query",
        lambda: reference.kdtree_query_heap(tree, X_query, k_neighbors),
        lambda: tree.query(X_query, k_neighbors, mode="batched"),
        arrays_equal,
    )

    # -- LOF scoring: the full detector on top of the query kernel ------
    lof = LOF(n_neighbors=k_neighbors, algorithm="kd_tree").fit(X_index)

    def lof_reference():
        dist, idx = reference.kdtree_query_heap(lof._nn._tree, X_query, k_neighbors)
        reach = np.maximum(dist, lof._kdist[idx])
        lrd_q = 1.0 / (reach.mean(axis=1) + _LOF_EPS)
        return lof._lrd[idx].mean(axis=1) / lrd_q

    add_row(
        "lof_scores",
        lof_reference,
        lambda: lof.decision_function(X_query),
        np.array_equal,
    )

    # -- iForest scoring: per-tree loop vs flat batched traversal, in
    # the consecutive-batch serving pattern ------------------------------
    iforest = IsolationForest(n_estimators=n_trees, random_state=seed).fit(
        rng.standard_normal((iforest_train, n_features))
    )
    serve = rng.standard_normal((serve_batches, serve_batch, n_features))
    add_row(
        "iforest_scoring",
        lambda: np.concatenate(
            [
                reference.iforest_score_loop(iforest._trees, iforest._sub, b)
                for b in serve
            ]
        ),
        lambda: np.concatenate([iforest.decision_function(b) for b in serve]),
        np.array_equal,
    )

    # -- forest / GBM prediction: per-tree loops vs flat traversal ------
    X_ens = rng.standard_normal((ensemble_train, n_features))
    y_ens = 2.0 * X_ens[:, 0] + np.sin(3.0 * X_ens[:, 1])
    forest = RandomForestRegressor(n_estimators=50, random_state=seed).fit(X_ens, y_ens)
    add_row(
        "forest_predict",
        lambda: np.concatenate(
            [reference.forest_predict_loop(forest, b) for b in serve]
        ),
        lambda: np.concatenate([forest.predict(b) for b in serve]),
        np.array_equal,
    )
    gbm = GradientBoostingRegressor(n_estimators=100, random_state=seed).fit(
        X_ens, y_ens
    )
    add_row(
        "gbm_predict",
        lambda: np.concatenate([reference.gbm_predict_loop(gbm, b) for b in serve]),
        lambda: np.concatenate([gbm.predict(b) for b in serve]),
        np.array_equal,
    )

    # -- CART fit: float-sort oracle vs the rank-space builder ----------
    X_split = rng.integers(0, 6, size=(split_rows, split_features)).astype(np.float64)
    y_split = rng.standard_normal(split_rows)

    def trees_equal(a, b):
        return (
            a.n_nodes_ == b.n_nodes_
            and np.array_equal(a.feature_, b.feature_)
            and np.array_equal(a.threshold_, b.threshold_, equal_nan=True)
            and np.array_equal(a.children_left_, b.children_left_)
            and np.array_equal(a.children_right_, b.children_right_)
            and np.array_equal(a.value_, b.value_)
        )

    add_row(
        "tree_fit_split_search",
        lambda: reference.cart_fit_loop(X_split, y_split, random_state=seed),
        lambda: DecisionTreeRegressor(random_state=seed).fit(X_split, y_split),
        trees_equal,
    )

    # -- ABOD angle variance: per-query loop vs chunked einsum ----------
    Q_abod = rng.standard_normal((abod_queries, n_features))
    idx_abod = rng.integers(0, n_index, size=(abod_queries, k_neighbors))
    add_row(
        "abod_angle_variance",
        lambda: reference.abod_scores_loop(Q_abod, X_index, idx_abod),
        lambda: -pairwise_angle_variance(Q_abod, X_index, idx_abod),
        np.array_equal,
    )

    by_kernel = {r["kernel"]: r for r in rows}
    meta = {
        "config": cfg.describe(),
        "benchmark": "compute_kernels",
        "n_index": n_index,
        "n_query": n_query,
        "k_neighbors": k_neighbors,
        "n_features": n_features,
        "iforest_train": iforest_train,
        "n_trees": n_trees,
        "serve_batch": serve_batch,
        "serve_batches": serve_batches,
        "ensemble_train": ensemble_train,
        "split_rows": split_rows,
        "split_features": split_features,
        "abod_queries": abod_queries,
        "repeats": repeats,
        "seed": seed,
        "host": _host_meta(),
        "all_identical": all(r["identical"] for r in rows),
        "knn_query_speedup": by_kernel["knn_query"]["speedup"],
        "iforest_speedup": by_kernel["iforest_scoring"]["speedup"],
    }
    return rows, meta


# ---------------------------------------------------------------------------
# Memory plane — mmap-backed artifacts vs inline pickles
# ---------------------------------------------------------------------------
def _memory_probe_child(path: str, rows_path: str, first_rows: int, conn) -> None:
    """Spawn-context child for :func:`run_memory_benchmark`.

    Loads the ensemble artifact, answers one first serving request (a
    small batch of ``first_rows`` rows — the stream-serving pattern),
    and sends back its cold-start wall times, peak RSS, and scores (for
    the parent's bitwise parity check). The child runs in a *fresh*
    interpreter (spawn context), so the recorded RSS is the artifact's
    true per-process serving footprint — a forked child would report
    the parent's inherited pages instead. This is where the two
    artifact modes diverge: the inline artifact unpickles every array
    through a private heap copy and rebuilds its flat serving caches on
    the first request, while the memmapped artifact attaches lazily and
    only ever faults the pages the request touches.
    """
    import os
    import resource
    import sys

    from repro.utils.persistence import load_ensemble

    def current_rss() -> int:
        # VmRSS *now*, not the getrusage high-water mark: interpreter
        # start-up spikes above steady state, so a peak-based delta
        # would read zero for any artifact smaller than that headroom.
        try:
            with open("/proc/self/statm") as fh:
                return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
        except (OSError, ValueError, IndexError):  # no procfs (not Linux)
            return 0

    unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss KB on Linux
    rss_before = current_rss()
    t0 = time.perf_counter()
    model = load_ensemble(path)
    load_s = time.perf_counter() - t0
    rows = np.load(rows_path)[:first_rows]
    t0 = time.perf_counter()
    scores = model.decision_function(rows)
    first_score_s = time.perf_counter() - t0
    rss_after = current_rss()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit
    conn.send(
        {
            "load_s": load_s,
            "first_score_s": first_score_s,
            "peak_rss_bytes": int(peak),
            # Resident growth attributable to serving this artifact —
            # the interpreter/numpy baseline (identical across modes)
            # is subtracted out, so small artifacts stay measurable.
            "serving_rss_delta_bytes": int(rss_after - rss_before),
            "scores": scores,
        }
    )
    conn.close()


def _cold_start_round(
    ctx, path: str, rows_path: str, first_rows: int, workers: int
) -> list[dict]:
    """One cold-start measurement: ``workers`` fresh processes, all
    loading and scoring the same artifact concurrently."""
    procs, pipes = [], []
    for _ in range(workers):
        recv_conn, send_conn = ctx.Pipe(duplex=False)
        p = ctx.Process(
            target=_memory_probe_child,
            args=(path, rows_path, first_rows, send_conn),
        )
        p.start()
        send_conn.close()
        procs.append(p)
        pipes.append(recv_conn)
    results = [c.recv() for c in pipes]
    for p in procs:
        p.join()
    for c in pipes:
        c.close()
    return results


# ---------------------------------------------------------------------------
# Shared-computation plane — fused neighbor producers vs redundant builds
# ---------------------------------------------------------------------------
def run_sharing_benchmark(
    cfg: BenchConfig,
    *,
    n_train: int = 6000,
    n_test: int = 3000,
    n_features: int = 8,
    repeats: int = 3,
    n_jobs: int = 4,
    seed: int = 0,
):
    """Shared-computation plane: one KD-tree + fused query vs m private.

    Fits the same pool of neighbor detectors (heterogeneous ``k``, one
    shared unprojected space) twice per backend — ``share_flag=True``
    (the ``share`` stage folds every build/query into one producer) and
    ``share_flag=False`` (each detector builds and queries privately) —
    and reports best-of-``repeats`` fit/predict walls.

    The gates the CI bench-smoke job enforces ride in the meta:

    - ``parity_ok`` — train score matrix, combined train scores, and
      the predict score matrix are bitwise-identical between the two
      modes on every backend (the prefix-slice contract's end-to-end
      form);
    - ``builds_ok`` — on the sequential backend the shared fit performs
      exactly ``distinct_keys`` KD-tree builds (one per distinct
      ``(space, metric)`` resource key) while the redundant fit
      performs one per consumer.

    ``fit_speedup``/``total_speedup`` (redundant wall over shared wall)
    are the headline numbers but are *not* gated — wall-clock on shared
    CI hosts is informational; BENCH_pr9.json records them from a quiet
    host.
    """
    from repro.neighbors import kdtree_build_count

    Xtr, _ = make_outlier_dataset(
        n_train, n_features, contamination=0.1, random_state=seed
    )
    Xte, _ = make_outlier_dataset(
        n_test, n_features, contamination=0.1, random_state=seed + 1
    )
    n = Xtr.shape[0]

    def make_pool():
        # Four consumers, heterogeneous k, all resolving to the KD-tree
        # engine over the same unprojected space -> one resource key.
        return [
            KNN(n_neighbors=_safe_k(n, 10)),
            AvgKNN(n_neighbors=_safe_k(n, 20)),
            LOF(n_neighbors=_safe_k(n, 25)),
            LoOP(n_neighbors=_safe_k(n, 15)),
        ]

    n_detectors = len(make_pool())
    distinct_keys = 1  # one space, one metric
    backends = (("sequential", 1), ("threads", n_jobs))
    rows = []
    reference: dict = {}
    builds: dict = {}
    sharing_info = None
    parity_ok = True
    for backend, jobs in backends:
        for mode, flag in (("shared", True), ("redundant", False)):
            best_fit = best_pred = float("inf")
            for _ in range(max(1, repeats)):
                clf = SUOD(
                    make_pool(),
                    n_jobs=jobs,
                    backend=backend,
                    share_flag=flag,
                    rp_flag_global=False,
                    approx_flag_global=False,
                    contamination=0.1,
                    random_state=seed,
                )
                b0 = kdtree_build_count()
                t0 = time.perf_counter()
                clf.fit(Xtr)
                fit_s = time.perf_counter() - t0
                b1 = kdtree_build_count()
                t0 = time.perf_counter()
                matrix = clf.decision_function_matrix(Xte)
                pred_s = time.perf_counter() - t0
                best_fit = min(best_fit, fit_s)
                best_pred = min(best_pred, pred_s)
            if backend == "sequential":
                builds[mode] = b1 - b0
                if flag:
                    sharing_info = clf.sharing_fit_info_
            key = (backend, "train")
            if key not in reference:
                reference[key] = (clf.train_score_matrix_, clf.decision_scores_)
                reference[(backend, "predict")] = matrix
            else:
                ref_matrix, ref_scores = reference[key]
                parity_ok = (
                    parity_ok
                    and np.array_equal(ref_matrix, clf.train_score_matrix_)
                    and np.array_equal(ref_scores, clf.decision_scores_)
                    and np.array_equal(reference[(backend, "predict")], matrix)
                )
            rows.append(
                {
                    "backend": backend,
                    "n_jobs": jobs,
                    "mode": mode,
                    "fit_s": round(best_fit, 4),
                    "predict_s": round(best_pred, 4),
                    "total_s": round(best_fit + best_pred, 4),
                }
            )

    by_mode = {
        (r["backend"], r["mode"]): r for r in rows
    }
    seq_shared = by_mode[("sequential", "shared")]
    seq_redundant = by_mode[("sequential", "redundant")]
    builds_ok = (
        builds.get("shared") == distinct_keys
        and builds.get("redundant") == n_detectors
    )
    meta = {
        "config": (
            f"{n_detectors} neighbor detectors on one ({n_train}, "
            f"{n_features}) space, best of {repeats}"
        ),
        "n_train": n_train,
        "n_test": n_test,
        "n_features": n_features,
        "n_detectors": n_detectors,
        "distinct_keys": distinct_keys,
        "kdtree_builds_shared": builds.get("shared"),
        "kdtree_builds_redundant": builds.get("redundant"),
        "sharing": sharing_info,
        "fit_speedup": round(seq_redundant["fit_s"] / seq_shared["fit_s"], 3),
        "total_speedup": round(
            seq_redundant["total_s"] / seq_shared["total_s"], 3
        ),
        "parity_ok": bool(parity_ok),
        "builds_ok": bool(builds_ok),
        "host": _host_meta(),
    }
    meta["gates_ok"] = meta["parity_ok"] and meta["builds_ok"]
    return rows, meta


def _hetero_pool() -> list:
    """The paper's headline scenario: 16 models from 11 families, nine of
    them costly (so PSA trains nine forests)."""
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


def run_approx_benchmark(
    cfg: BenchConfig,
    *,
    n_train: int = 1500,
    n_test: int = 1500,
    n_features: int = 120,
    repeats: int = 3,
    worker_counts: tuple = (1, 2),
    seed: int = 0,
):
    """PSA on the parallel plane: ``approximate``-stage wall per worker count.

    Fits the heterogeneous pool (RP + PSA + BPS on, ``shm_processes``)
    once per entry of ``worker_counts`` and reports, per count, the
    best-of-``repeats`` wall of the fit plan's ``approximate`` stage and
    of the whole fit, the wave's ledger (tasks, blocks per model, tasks
    per worker) and each worker's busy share of the wave wall.

    The gate CI bench-smoke enforces is ``parity_ok``: train scores,
    threshold, held-out ``decision_function`` scores and every
    approximator tree are bitwise-identical between the first
    (single-worker) fit and every other one. ``approximate_speedup`` is
    informational — wall clock on a shared host is not gated.
    """
    Xtr, _ = make_outlier_dataset(
        n_train, n_features, contamination=0.1, random_state=seed
    )
    Xte, _ = make_outlier_dataset(
        n_test, n_features, contamination=0.1, random_state=seed + 1
    )

    def fingerprint(clf):
        trees = [
            (t.feature_, t.threshold_, t.children_left_, t.children_right_, t.value_)
            for a in clf.approximators_
            if a.approximated
            for t in a.regressor_.estimators_
        ]
        return (
            clf.decision_scores_,
            np.float64(clf.threshold_),
            clf.decision_function(Xte),
            *(part for tree in trees for part in tree),
        )

    rows = []
    reference = None
    parity_ok = True
    for n_jobs in worker_counts:
        best = None
        for _ in range(max(1, repeats)):
            clf = SUOD(
                _hetero_pool(),
                n_jobs=n_jobs,
                backend="shm_processes",
                contamination=0.1,
                random_state=seed,
            )
            try:
                t0 = time.perf_counter()
                clf.fit(Xtr)
                fit_s = time.perf_counter() - t0
            finally:
                clf.close()
            report = clf.fit_plan_.report_for("approximate")
            if best is None or report.wall_time < best[0].wall_time:
                best = (report, fit_s)
        report, fit_s = best
        clf.n_jobs = 1  # score the held-out rows in-process
        prints = fingerprint(clf)
        if reference is None:
            reference = prints
        else:
            parity_ok = (
                parity_ok
                and len(prints) == len(reference)
                # equal_nan: leaf nodes carry a NaN threshold.
                and all(
                    np.array_equal(a, b, equal_nan=True)
                    for a, b in zip(reference, prints)
                )
            )
        busy = report.execution.worker_times
        rows.append(
            {
                "n_jobs": n_jobs,
                "approximate_s": round(report.wall_time, 4),
                "fit_s": round(fit_s, 4),
                "tasks": report.info["tasks"],
                "blocks_per_model": report.info["blocks_per_model"],
                "tasks_per_worker": report.info["tasks_per_worker"],
                "busy_share": [
                    round(float(b) / report.execution.wall_time, 3) for b in busy
                ],
            }
        )
    base = rows[0]
    for row in rows:
        row["approximate_speedup"] = round(
            base["approximate_s"] / row["approximate_s"], 3
        )
        row["fit_speedup"] = round(base["fit_s"] / row["fit_s"], 3)
    meta = {
        "config": (
            f"16-model heterogeneous pool on ({n_train}, {n_features}), RP+PSA+BPS, "
            f"shm_processes, best of {repeats}"
        ),
        "n_train": n_train,
        "n_test": n_test,
        "n_features": n_features,
        "n_approximated": int(clf.approx_flags_.sum()),
        "approximate_speedup": rows[-1]["approximate_speedup"],
        "fit_speedup": rows[-1]["fit_speedup"],
        "parity_ok": bool(parity_ok),
        "host": _host_meta(),
    }
    meta["gates_ok"] = meta["parity_ok"]
    return rows, meta


def run_memory_benchmark(
    cfg: BenchConfig,
    *,
    n_train: int = 8000,
    n_test: int = 2000,
    n_features: int = 12,
    n_forests: int = 6,
    n_trees: int = 200,
    forest_subsample: int | str = 4096,
    workers: int = 2,
    first_rows: int = 64,
    repeats: int | None = None,
    seed: int = 0,
    artifact_dir: str | None = None,
):
    """Memory-plane benchmark: mmap-backed serving vs inline artifacts.

    Fits one SUOD pool (arena-heavy isolation forests plus KD-tree
    neighbor detectors), persists it twice — once with flat arenas
    externalised for ``np.memmap`` serving (``arenas=True``, the
    default) and once fully inline (``arenas=False``, the rebuild
    baseline) — and measures the cold-start path for each artifact:
    ``workers`` *fresh* spawn-context processes concurrently load the
    file and answer one small serving request (``first_rows`` rows),
    reporting per-process load wall, time-to-first-score, and peak
    RSS. Best-of-``repeats`` rounds. Cold start is ``load +
    first_score``: for the inline artifact that includes unpickling
    every array into a private heap copy and rebuilding the flat
    serving caches; the memmapped artifact attaches lazily and faults
    only the pages the request touches.

    The parity gates the CI bench-smoke job enforces ride in the meta:

    - ``memmap_bitwise`` — float64 scores served off the memmapped
      artifact are bitwise-identical to the in-RAM fitted model's;
    - ``float32_within_tolerance`` — float32 serving mode stays within
      :data:`repro.memory.FLOAT32_SCORE_ATOL` of float64, and restoring
      float64 is bitwise-exact (``float32_restore_bitwise``);
    - ``out_of_core_bitwise`` — chunked scoring of a memmapped row file
      under a memory budget far below the matrix size is
      bitwise-identical to one in-RAM pass;
    - ``workers_bitwise`` — every cold-start worker's scores matched.

    Returns one row per artifact mode plus a meta dict with the
    headline ``cold_start_speedup`` and ``peak_rss_ratio``
    (inline / memmap; > 1 means the memory plane wins) and the
    ``parity_ok`` conjunction of every gate above.
    """
    import os
    import tempfile
    from multiprocessing import get_context

    from repro.detectors import IsolationForest
    from repro.memory import (
        FLOAT32_SCORE_ATOL,
        open_rows,
        save_rows,
        score_out_of_core,
    )
    from repro.memory import set_serving_dtype
    from repro.utils.persistence import (
        load_ensemble,
        read_ensemble_header,
        save_ensemble,
    )

    if repeats is None:
        repeats = max(2, cfg.trials)
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if not 1 <= first_rows <= n_test:
        raise ValueError("first_rows must be in [1, n_test]")

    Xtr, _ = make_outlier_dataset(
        n_train, n_features, contamination=0.1, random_state=seed
    )
    Xte, _ = make_outlier_dataset(
        n_test, n_features, contamination=0.1, random_state=seed + 1
    )
    pool = [
        IsolationForest(
            n_estimators=n_trees,
            max_samples=forest_subsample,
            random_state=seed + i,
        )
        for i in range(n_forests)
    ]
    pool += [
        KNN(n_neighbors=_safe_k(n_train, 10)),
        LOF(n_neighbors=_safe_k(n_train, 15)),
    ]
    model = SUOD(
        pool,
        approx_flag_global=False,  # measure the detectors, not PSA
        random_state=seed,
    ).fit(Xtr)
    ref = model.decision_function(Xte)
    ref_first = model.decision_function(Xte[:first_rows])

    tmp = None
    if artifact_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro_membench_")
        artifact_dir = tmp.name
    try:
        paths = {
            "memmap": save_ensemble(
                model, os.path.join(artifact_dir, "ens_arena.repro"), arenas=True
            ),
            "inline": save_ensemble(
                model, os.path.join(artifact_dir, "ens_inline.repro"), arenas=False
            ),
        }
        rows_path = os.path.join(artifact_dir, "probe_rows.npy")
        save_rows(Xte, rows_path)
        header = read_ensemble_header(paths["memmap"])

        # -- parity gates (parent process) -----------------------------
        served = load_ensemble(paths["memmap"])
        memmap_bitwise = bool(np.array_equal(served.decision_function(Xte), ref))
        set_serving_dtype(served, "float32")
        f32_diff = float(np.abs(served.decision_function(Xte) - ref).max())
        set_serving_dtype(served, "float64")
        restore_bitwise = bool(np.array_equal(served.decision_function(Xte), ref))
        # Budget far below the probe matrix: the ring must stream.
        budget = max(4096, int(Xte.nbytes) // 8)
        ooc = score_out_of_core(
            served, open_rows(rows_path), memory_budget_bytes=budget
        )
        ooc_bitwise = bool(np.array_equal(ooc, ref))

        # -- cold-start measurement (spawn children) -------------------
        ctx = get_context("spawn")
        rows_out = []
        for mode, path in paths.items():
            load_best = score_best = float("inf")
            rss_samples: list[int] = []
            delta_samples: list[int] = []
            identical = True
            for _ in range(repeats):
                round_res = _cold_start_round(
                    ctx, path, rows_path, first_rows, workers
                )
                for res in round_res:
                    load_best = min(load_best, res["load_s"])
                    score_best = min(score_best, res["first_score_s"])
                    rss_samples.append(res["peak_rss_bytes"])
                    delta_samples.append(res["serving_rss_delta_bytes"])
                    identical = identical and np.array_equal(
                        res["scores"], ref_first
                    )
            rows_out.append(
                {
                    "mode": mode,
                    "workers": workers,
                    "load_s": load_best,
                    "first_score_s": score_best,
                    "cold_total_s": load_best + score_best,
                    "peak_rss_bytes": int(np.mean(rss_samples)),
                    "serving_rss_delta_bytes": int(np.mean(delta_samples)),
                    "artifact_bytes": os.path.getsize(path),
                    "identical": identical,
                }
            )
    finally:
        if tmp is not None:
            tmp.cleanup()

    by_mode = {r["mode"]: r for r in rows_out}
    workers_bitwise = all(r["identical"] for r in rows_out)
    parity_ok = (
        memmap_bitwise
        and f32_diff <= FLOAT32_SCORE_ATOL
        and restore_bitwise
        and ooc_bitwise
        and workers_bitwise
    )
    meta = {
        "config": cfg.describe(),
        "benchmark": "memory_plane",
        "n_train": n_train,
        "n_test": n_test,
        "n_features": n_features,
        "n_forests": n_forests,
        "n_trees": n_trees,
        "forest_subsample": forest_subsample,
        "workers": workers,
        "first_rows": first_rows,
        "repeats": repeats,
        "seed": seed,
        "schema_version": header["schema_version"],
        "arena_count": len(header["arenas"]),
        "arena_bytes": int(sum(s["nbytes"] for s in header["arenas"])),
        "artifact_bytes": {m: r["artifact_bytes"] for m, r in by_mode.items()},
        "probe_matrix_bytes": int(Xte.nbytes),
        "out_of_core_budget_bytes": budget,
        "cold_start_speedup": (
            by_mode["inline"]["cold_total_s"] / by_mode["memmap"]["cold_total_s"]
        ),
        "peak_rss_ratio": (
            by_mode["inline"]["peak_rss_bytes"] / by_mode["memmap"]["peak_rss_bytes"]
        ),
        "serving_rss_delta_ratio": (
            by_mode["inline"]["serving_rss_delta_bytes"]
            / max(1, by_mode["memmap"]["serving_rss_delta_bytes"])
        ),
        "memmap_bitwise": memmap_bitwise,
        "float32_max_abs_diff": f32_diff,
        "float32_tolerance": FLOAT32_SCORE_ATOL,
        "float32_within_tolerance": bool(f32_diff <= FLOAT32_SCORE_ATOL),
        "float32_restore_bitwise": restore_bitwise,
        "out_of_core_bitwise": ooc_bitwise,
        "workers_bitwise": workers_bitwise,
        "parity_ok": bool(parity_ok),
        "host": _host_meta(),
    }
    return rows_out, meta


# ---------------------------------------------------------------------------
# Serving plane — micro-batched scoring service vs per-request
# ---------------------------------------------------------------------------
class _ServeProcess:
    """One ``python -m repro serve`` child, booted from a saved artifact.

    The READY line is parsed off stdout to learn the OS-assigned port; a
    reader thread keeps draining stdout so the child never blocks on a
    full pipe, and the captured lines let :meth:`shutdown` verify the
    DRAINED line that proves a clean SIGTERM drain.
    """

    READY_RE = r"^REPRO-SERVE READY .*port=(\d+)"

    def __init__(self, artifact: str, extra_args: list[str], *, timeout: float = 60.0):
        import os
        import subprocess
        import sys
        import threading
        from pathlib import Path

        import repro

        env = dict(os.environ)
        src_root = str(Path(repro.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_root, env.get("PYTHONPATH")) if p
        )
        self.timeout = timeout
        self.lines: list[str] = []
        self._ready = threading.Event()
        self._port: int | None = None
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve"]
            + ["--artifact", artifact, *extra_args],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        self._reader = threading.Thread(target=self._drain_stdout, daemon=True)
        self._reader.start()

    def _drain_stdout(self) -> None:
        import re

        for line in self.proc.stdout:
            self.lines.append(line.rstrip("\n"))
            match = re.match(self.READY_RE, line)
            if match:
                self._port = int(match.group(1))
                self._ready.set()
        self._ready.set()  # EOF: wake a waiter even if READY never came

    @property
    def port(self) -> int:
        if not self._ready.wait(self.timeout):
            self.proc.kill()
            raise RuntimeError("serve process never printed its READY line")
        if self._port is None:
            raise RuntimeError(
                "serve process exited before READY:\n" + "\n".join(self.lines)
            )
        return self._port

    def shutdown(self) -> bool:
        """SIGTERM, wait, and report whether the drain was clean."""
        import signal
        import subprocess

        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=self.timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return False
        self._reader.join(timeout=self.timeout)
        drained = any(line.startswith("REPRO-SERVE DRAINED") for line in self.lines)
        return code == 0 and drained

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


class _ClientWorker:
    """One benchmark client: a connection driving its share of requests.

    Thread target is the bound :meth:`run`; results land on the instance
    (each worker owns its own lists), and the driver reads them only
    after ``join()``.
    """

    def __init__(self, host, port, X, slices, refs, *, tenant="bench", timeout=60.0):
        self.host = host
        self.port = port
        self.X = X
        self.slices = slices
        self.refs = refs
        self.tenant = tenant
        self.timeout = timeout
        self.latencies_s: list[float] = []
        self.rejected: list[int] = []
        self.mismatched: list[int] = []
        self.error: str | None = None

    def run(self) -> None:
        from repro.serving import ScoringClient

        try:
            with ScoringClient(
                self.host, self.port, tenant=self.tenant, timeout=self.timeout
            ) as client:
                for idx, (start, stop) in self.slices:
                    t0 = time.perf_counter()
                    reply = client.score(self.X[start:stop])
                    self.latencies_s.append(time.perf_counter() - t0)
                    if not reply.ok:
                        self.rejected.append(reply.code)
                    elif not np.array_equal(reply.scores, self.refs[idx]):
                        self.mismatched.append(idx)
        except Exception as exc:  # surfaced by the driver, not swallowed
            self.error = f"{type(exc).__name__}: {exc}"


def _drive_service_mode(
    host, port, X, request_slices, refs, clients, hot_requests, rows_per_request
):
    """Run the measured workload plus the over-limit tenant burst."""
    import threading

    workers = [
        _ClientWorker(
            host,
            port,
            X,
            [(i, s) for i, s in enumerate(request_slices) if i % clients == w],
            refs,
            tenant=f"bench-{w}",
        )
        for w in range(clients)
    ]
    threads = [threading.Thread(target=w.run) for w in workers]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall_s = time.perf_counter() - t0
    errors = [w.error for w in workers if w.error]
    if errors:
        raise RuntimeError(f"benchmark client failed: {errors[0]}")

    # Over-limit tenant: a post-measurement burst against a 1 req/s
    # bucket — everything past the first token must see a 429.
    hot = _ClientWorker(
        host,
        port,
        X,
        [(0, (0, rows_per_request))] * hot_requests,
        refs,
        tenant="hot",
    )
    hot.run()
    if hot.error:
        raise RuntimeError(f"over-limit tenant client failed: {hot.error}")

    latencies = np.array(
        [lat for w in workers for lat in w.latencies_s], dtype=np.float64
    )
    n_ok = int(latencies.size) - sum(len(w.rejected) for w in workers)
    return {
        "wall_s": wall_s,
        "n_ok": n_ok,
        "measured_rejections": sum(len(w.rejected) for w in workers),
        "mismatched": sum(len(w.mismatched) for w in workers),
        "p50_ms": float(np.percentile(latencies, 50) * 1e3),
        "p99_ms": float(np.percentile(latencies, 99) * 1e3),
        "hot_rejections": len(hot.rejected),
        "hot_rejection_codes": sorted(set(hot.rejected)),
        "hot_mismatched": len(hot.mismatched),
    }


def run_service_benchmark(
    cfg: BenchConfig,
    *,
    n_train: int = 2000,
    n_features: int = 12,
    n_models: int = 6,
    n_trees: int = 100,
    forest_subsample: int | str = 2048,
    requests: int = 960,
    rows_per_request: int = 1,
    clients: int = 16,
    hot_requests: int = 8,
    batch_wait_ms: float = 6.0,
    seed: int = 0,
    artifact_dir: str | None = None,
):
    """Serving-plane benchmark: micro-batched service vs per-request.

    Fits one SUOD pool, saves it as a v2 artifact, and boots **real**
    ``python -m repro serve`` processes from it twice: once with
    micro-batching live (cost-model-sized batches, ``batch_wait_ms``
    coalescing window) and
    once degraded to per-request execution (``--batch-max-rows 1
    --batch-wait-ms 0`` — every batch is exactly one request, the
    classic request-per-call baseline). Each mode serves the same
    workload: ``clients`` concurrent connections round-robin
    ``requests`` scoring requests of ``rows_per_request`` rows, then an
    over-limit tenant (token bucket pinned to 1 req/s via
    ``--tenant-limit hot=1:1``) fires a burst that must be 429'd.

    The gates the CI service-smoke job enforces ride in the meta:

    - ``parity_ok`` — every served score vector in **both** modes is
      bitwise-identical to an offline ``decision_function`` call on the
      same rows (micro-batching changes the execution grain, never the
      bytes);
    - ``rate_limit_ok`` — the over-limit tenant saw at least one 429
      and the measured tenants saw none;
    - ``clean_shutdown`` — both servers exited 0 on SIGTERM after
      printing their DRAINED line (every accepted request answered).

    ``throughput_speedup`` (micro-batch requests/s over per-request) is
    the headline number but is *not* gated — wall-clock on shared CI
    hosts is informational; BENCH_pr8.json records it from a quiet
    host.
    """
    import os
    import tempfile

    from repro.detectors import IsolationForest
    from repro.utils.persistence import load_ensemble, save_ensemble

    if requests < clients or clients < 1:
        raise ValueError("need requests >= clients >= 1")
    if rows_per_request < 1:
        raise ValueError("rows_per_request must be >= 1")

    Xtr, _ = make_outlier_dataset(
        n_train, n_features, contamination=0.1, random_state=seed
    )
    X, _ = make_outlier_dataset(
        requests * rows_per_request,
        n_features,
        contamination=0.1,
        random_state=seed + 1,
    )
    pool = [
        IsolationForest(
            n_estimators=n_trees,
            max_samples=forest_subsample,
            random_state=seed + i,
        )
        for i in range(max(1, n_models - 2))
    ]
    pool += [
        KNN(n_neighbors=_safe_k(n_train, 10)),
        LOF(n_neighbors=_safe_k(n_train, 15)),
    ]
    model = SUOD(
        pool,
        approx_flag_global=False,
        random_state=seed,
    ).fit(Xtr)

    tmp = None
    if artifact_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro_servicebench_")
        artifact_dir = tmp.name
    modes = {
        "micro-batch": ["--batch-wait-ms", str(batch_wait_ms)],
        "per-request": ["--batch-max-rows", "1", "--batch-wait-ms", "0"],
    }
    common_args = [
        "--port",
        "0",
        "--rate",
        "100000",
        "--burst",
        "100000",
        "--tenant-limit",
        "hot=1:1",
    ]
    rows_out = []
    results = {}
    clean = {}
    try:
        path = save_ensemble(model, os.path.join(artifact_dir, "ens_service.repro"))
        artifact_bytes = os.path.getsize(path)

        # Per-request offline baseline: the bytes each request would get
        # from its own decision_function call (served from the same
        # artifact the server loads).
        offline = load_ensemble(path)
        request_slices = [
            (i * rows_per_request, (i + 1) * rows_per_request)
            for i in range(requests)
        ]
        refs = [
            offline.decision_function(X[start:stop])
            for start, stop in request_slices
        ]

        for mode, mode_args in modes.items():
            server = _ServeProcess(path, common_args + mode_args)
            try:
                port = server.port
                res = _drive_service_mode(
                    "127.0.0.1",
                    port,
                    X,
                    request_slices,
                    refs,
                    clients,
                    hot_requests,
                    rows_per_request,
                )
                from repro.serving import ScoringClient

                with ScoringClient("127.0.0.1", port, tenant="stats") as sc:
                    res["server_stats"] = sc.stats()
            except BaseException:
                server.kill()
                raise
            clean[mode] = server.shutdown()
            results[mode] = res
            batcher = res["server_stats"].get("batcher", {})
            rows_out.append(
                {
                    "mode": mode,
                    "requests_ok": res["n_ok"],
                    "rejected": res["measured_rejections"],
                    "wall_s": res["wall_s"],
                    "requests_per_s": res["n_ok"] / res["wall_s"],
                    "p50_ms": res["p50_ms"],
                    "p99_ms": res["p99_ms"],
                    "batches": batcher.get("batches", 0),
                    "batch_rows_mean": round(batcher.get("batch_rows_mean", 0.0), 1),
                    "identical": res["mismatched"] == 0 and res["hot_mismatched"] == 0,
                }
            )
    finally:
        if tmp is not None:
            tmp.cleanup()

    by_mode = {r["mode"]: r for r in rows_out}
    parity_ok = all(r["identical"] for r in rows_out)
    limited_rejections = sum(  # repro: allow[unordered-accumulation] -- int counts
        r["hot_rejections"] for r in results.values()
    )
    measured_rejections = sum(  # repro: allow[unordered-accumulation] -- int counts
        r["measured_rejections"] for r in results.values()
    )
    rate_limit_ok = limited_rejections >= 1 and measured_rejections == 0
    clean_shutdown = all(clean.values())
    throughput_speedup = (
        by_mode["micro-batch"]["requests_per_s"]
        / by_mode["per-request"]["requests_per_s"]
    )
    meta = {
        "config": cfg.describe(),
        "benchmark": "service",
        "n_train": n_train,
        "n_features": n_features,
        "n_models": n_models,
        "n_trees": n_trees,
        "forest_subsample": forest_subsample,
        "requests": requests,
        "rows_per_request": rows_per_request,
        "clients": clients,
        "hot_requests": hot_requests,
        "batch_wait_ms": batch_wait_ms,
        "seed": seed,
        "artifact_bytes": artifact_bytes,
        "server_args": {m: common_args + a for m, a in modes.items()},
        "throughput_speedup": throughput_speedup,
        "batch_rows_mean": by_mode["micro-batch"]["batch_rows_mean"],
        "limited_tenant_rejections": limited_rejections,
        "limited_tenant_codes": sorted(
            {c for r in results.values() for c in r["hot_rejection_codes"]}
        ),
        "measured_tenant_rejections": measured_rejections,
        "parity_ok": bool(parity_ok),
        "rate_limit_ok": bool(rate_limit_ok),
        "clean_shutdown": bool(clean_shutdown),
        "gates_ok": bool(parity_ok and rate_limit_ok and clean_shutdown),
        "host": _host_meta(),
    }
    return rows_out, meta
