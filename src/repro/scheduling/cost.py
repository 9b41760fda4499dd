"""Model cost forecasting for balanced scheduling (§3.5).

The paper trains a random-forest regressor mapping ``{dataset
meta-features, model embedding} -> execution time`` and relies on the
*rank* of the forecasts (hardware-transferable) rather than absolute
seconds. This module provides:

- :func:`dataset_meta_features` — descriptive features of (n, d, X);
- :func:`model_embedding` — fixed-length encoding of a detector (family
  one-hot + normalised hyperparameters);
- :class:`CostModel` — the protocol every forecaster satisfies
  (``forecast(models, X) -> (m,) costs``);
- :class:`AnalyticCostModel` — zero-shot fallback from textbook time
  complexities (kNN/LOF ~ n^2 d, HBOS ~ n d, ...). Unknown families get
  the maximum forecast, matching the paper's conservative rule;
- :class:`CostPredictor` — the trainable forest regressor (fit on timing
  data from :func:`train_cost_predictor`, which replaces the authors'
  47-dataset offline corpus with a locally generated one);
- :class:`TelemetryRefinedCostModel` — the adaptive scheduler's
  feedback loop: folds *measured* per-task durations
  (``ExecutionResult.task_times``) back into cost arrays, so repeated
  batches are scheduled on observed costs instead of static guesses.
"""

from __future__ import annotations

import time
from collections.abc import Hashable, Sequence
from typing import Protocol, runtime_checkable

import numpy as np

from repro.detectors.base import BaseDetector
from repro.detectors.registry import FAMILIES, family_of
from repro.kernels.neighbors import (
    SWEEP_ROW_COST,
    choose_block_engine,
    expected_scanned,
)
from repro.supervised import RandomForestRegressor
from repro.supervised.tree import _resolve_max_features
from repro.utils.random import check_random_state
from repro.utils.validation import check_array, check_is_fitted

__all__ = [
    "dataset_meta_features",
    "model_embedding",
    "CostModel",
    "AnalyticCostModel",
    "CostPredictor",
    "TelemetryRefinedCostModel",
    "forecast_approximator_fit",
    "forecast_shared_query",
    "train_cost_predictor",
]

_FAMILY_ORDER = sorted(FAMILIES) + ["unknown"]
N_META_FEATURES = 8

# Timings below one microsecond are floored before the log: a zero-length
# timing stays finite, and no real fit is that fast.
_MIN_SECONDS = 1e-6


@runtime_checkable
class CostModel(Protocol):
    """Anything that forecasts per-model execution costs on a dataset.

    Implementations return an ``(m,)`` float array of non-negative
    costs; only the relative magnitudes matter to the schedulers.
    :class:`AnalyticCostModel` (what ``SUOD`` forecasts with) and
    :class:`CostPredictor` satisfy this protocol.
    """

    def forecast(self, models: Sequence[BaseDetector], X) -> np.ndarray: ...


def dataset_meta_features(X) -> np.ndarray:
    """Descriptive features of a dataset used by the cost predictor.

    Scale features (n, d, nd and logs) dominate runtime; cheap moment
    statistics capture shape effects (e.g. k-means iterations on clumpy
    data). Returns a fixed-length float vector.
    """
    X = check_array(X, name="X")
    n, d = X.shape
    stds = X.std(axis=0)
    sd = stds + 1e-12
    mu = X.mean(axis=0)
    skew = np.abs(((X - mu) ** 3).mean(axis=0) / sd**3).mean()
    kurt = (((X - mu) ** 4).mean(axis=0) / sd**4).mean()
    return np.array(
        [
            float(n),
            float(d),
            float(n) * float(d),
            np.log1p(n),
            np.log1p(d),
            float(stds.mean()),
            float(skew),
            float(kurt),
        ]
    )


def _hyper_features(model: BaseDetector) -> np.ndarray:
    """Normalised hyperparameters affecting cost (0 when absent)."""
    g = model.get_params()
    return np.array(
        [
            float(g.get("n_neighbors", 0)),
            float(g.get("n_estimators", 0)),
            float(g.get("n_clusters", 0)),
            float(g.get("n_bins", 0)),
            float(g.get("nu", 0.0)),
            float(g.get("max_features", 0.0))
            if isinstance(g.get("max_features", 0.0), (int, float))
            else 0.0,
        ]
    )


def model_embedding(model: BaseDetector) -> np.ndarray:
    """Family one-hot + cost-relevant hyperparameters."""
    onehot = np.zeros(len(_FAMILY_ORDER))
    onehot[_FAMILY_ORDER.index(family_of(model))] = 1.0
    return np.concatenate([onehot, _hyper_features(model)])


class AnalyticCostModel:
    """Zero-shot cost forecasts from textbook complexity formulas.

    Output units are arbitrary "cost units" — only the *relative order*
    matters for BPS (the paper: "the rank is more useful ... with the
    transferability to other hardware"). Unknown families receive the
    maximum forecast across the pool (the paper's rule for unseen models).
    """

    def forecast(self, models: Sequence[BaseDetector], X) -> np.ndarray:
        X = check_array(X, name="X")
        n, d = X.shape
        costs = np.empty(len(models))
        unknown: list[int] = []
        for i, m in enumerate(models):
            fam = family_of(m)
            if fam == "unknown":
                unknown.append(i)
                costs[i] = 0.0
            else:
                costs[i] = self._family_cost(fam, m, n, d)
        if unknown:
            mx = costs.max() if len(unknown) < len(models) else 1.0
            for i in unknown:
                costs[i] = mx * 1.01  # strictly above everything known
        return costs

    @staticmethod
    def _family_cost(fam: str, m: BaseDetector, n: int, d: int) -> float:
        g = m.get_params()
        k = float(g.get("n_neighbors", 10))
        if fam in ("KNN", "AvgKNN", "MedKNN"):
            return n * n * d + n * k
        if fam == "LOF":
            return n * n * d + 3 * n * k
        if fam == "LoOP":
            return n * n * d + 4 * n * k
        if fam == "ABOD":
            return n * n * d + n * k * k * d
        if fam == "CBLOF":
            c = float(g.get("n_clusters", 8))
            return 3 * 100 * n * c * d  # n_init * max_iter bounded Lloyd
        if fam == "OCSVM":
            n_eff = min(n, float(g.get("max_train_samples", 4000)))
            return n_eff * n_eff * d + 2e4 * n_eff
        if fam == "FeatureBagging":
            t = float(g.get("n_estimators", 10))
            return t * (n * n * (d / 2.0) + 3 * n * 20)
        if fam == "HBOS":
            b = float(g.get("n_bins", 10))
            return n * d + b * d
        if fam == "IsolationForest":
            t = float(g.get("n_estimators", 100))
            sub = min(256.0, n)
            log_sub = np.log2(max(sub, 2.0))
            return t * sub * log_sub * 40 + t * n * log_sub
        if fam == "PCAD":
            return n * d * d + d**3
        if fam == "LODA":
            p = float(g.get("n_projections", 100))
            return p * n + p * float(g.get("n_bins", 10))
        if fam == "COPOD":
            return n * np.log2(max(n, 2.0)) * d
        raise KeyError(fam)


def forecast_shared_query(
    n_index: int, n_query: int, n_features: int, width: int
) -> float:
    """Analytic cost of one shared-producer task (same units as
    :class:`AnalyticCostModel`).

    A producer builds one KD-tree over the group's space and answers one
    fused batched query at the shared width: ``n log n · d`` for the
    build, then ``q · rows · d`` for the query, where ``rows`` is what
    the engine the kernel will run
    (:func:`repro.kernels.neighbors.choose_block_engine`) touches per
    query — all ``n`` for the filter–refine scan,
    :func:`repro.kernels.neighbors.expected_scanned` for the pruned
    sweep, each worth ``SWEEP_ROW_COST`` scan rows (elementwise
    distances and merges against one GEMM; unweighted, low-``d``
    producers on large ``n`` rank far too cheap) — plus ``q · K``
    candidate maintenance. Sharing the helpers keeps the ranking
    BPS sees tied to what the kernel does. The sharing plane schedules
    producers as first-class tasks with these forecasts, so BPS
    arbitrates build-vs-score placement instead of treating shared work
    as free.
    """
    n, q, d, k = (
        float(n_index),
        float(n_query),
        float(n_features),
        float(width),
    )
    log_n = np.log2(max(n, 2.0))
    if choose_block_engine(n_query, n_index, n_features, width) == "scan":
        rows = n
    else:
        rows = SWEEP_ROW_COST * expected_scanned(n_index, n_features, width)
    return n * log_n * d + q * rows * d + q * k


def forecast_approximator_fit(
    n: int, d: int, n_estimators: int, max_depth, max_features
) -> float:
    """Analytic cost of fitting ``n_estimators`` approximator trees on an
    ``(n, d)`` space (same units as :class:`AnalyticCostModel`).

    The rank-space builder (:mod:`repro.kernels.splits`) makes one linear
    pass — flat gather, 16-bit radix sort, cumsum, proxy — over ``m_try``
    candidate features of every node's rows: ``n · m_try`` cells per
    level, for ``min(max_depth, log2 n)`` levels; there is no comparison
    sort and so no ``log n`` factor. The node count (at most ``2n``, at
    most ``2^(depth+1)``) carries a fixed per-node interpreter overhead
    worth 128 cells — the least-squares fit, in log time, over measured
    fits at n 60–3000 × d 4–100 × depth 4/12 (the bound overstates real
    node counts roughly fourfold, which the constant absorbs). The
    once-per-task rank table (~4 % of a 25-tree block at 1500 × 80) is
    left out so that a block's cost stays linear in its tree count. The
    PSA wave schedules its (model × tree-block) tasks on these forecasts.
    """
    n, d = max(float(n), 2.0), max(int(d), 1)
    m_try = float(_resolve_max_features(max_features, d))
    log_n = np.log2(n)
    depth = log_n if max_depth is None else min(float(max_depth), log_n)
    nodes = min(2.0 * n, 2.0 ** (depth + 1.0))
    return float(n_estimators) * (n * m_try * depth + 128.0 * nodes)


class CostPredictor:
    """Trainable execution-time forecaster (random forest on log-time).

    Mirrors the paper's predictor: features are dataset meta-features
    concatenated with a model embedding; the target is measured execution
    time (the paper uses the sum of 10 trials; the trainer below records
    the fastest of a configurable number of timed fits). Forecasts for
    unknown families are clamped to the pool maximum.

    Use :func:`train_cost_predictor` to build one from local timings, or
    call :meth:`fit` with your own ``(features, seconds)`` design matrix.
    """

    def __init__(self, *, n_estimators: int = 100, random_state=None):
        self.n_estimators = n_estimators
        self.random_state = random_state

    def fit(self, features: np.ndarray, seconds: np.ndarray) -> "CostPredictor":
        features = check_array(features, name="features")
        seconds = np.asarray(seconds, dtype=np.float64)
        if seconds.ndim != 1 or seconds.shape[0] != features.shape[0]:
            raise ValueError("seconds must be 1-D and aligned with features")
        if (seconds < 0).any():
            raise ValueError("seconds must be non-negative")
        self._rf = RandomForestRegressor(
            n_estimators=self.n_estimators,
            max_depth=None,
            random_state=self.random_state,
        )
        # log(seconds), not log1p(seconds): log1p is near-linear below a
        # second, so the millisecond-scale fits would all read as ~0 and
        # the forest could not rank them against each other.
        self._rf.fit(features, np.log(np.maximum(seconds, _MIN_SECONDS)))
        self.n_features_in_ = features.shape[1]
        return self

    @staticmethod
    def build_features(models: Sequence[BaseDetector], X) -> np.ndarray:
        meta = dataset_meta_features(X)
        return np.stack([np.concatenate([meta, model_embedding(m)]) for m in models])

    def forecast(self, models: Sequence[BaseDetector], X) -> np.ndarray:
        """Forecast per-model execution time (seconds) on dataset X."""
        check_is_fitted(self, "_rf")
        feats = self.build_features(models, X)
        pred = np.exp(self._rf.predict(feats))
        unknown = np.array([family_of(m) == "unknown" for m in models])
        if unknown.any():
            mx = pred[~unknown].max() if (~unknown).any() else 1.0
            pred[unknown] = mx * 1.01
        return np.maximum(pred, 0.0)


class TelemetryRefinedCostModel:
    """Forecasts refined by *observed* per-task durations (the feedback loop).

    Static forecasters guess; this model measures. Every executed batch
    reports per-task wall-clock durations (``ExecutionResult.task_times``),
    keyed by a stable task identity and an optional *weight* (the task's
    work units, so differently-sized batches observe the same per-unit
    rate). Durations fold into an exponential moving average per key; at
    scheduling time :meth:`refine` replaces the base forecast of every
    observed task with its measured cost and *calibrates* unobserved
    forecasts onto the measured scale, so mixed pools stay comparable.
    :class:`~repro.scheduling.AdaptiveScheduler` owns one; the model is
    backend-agnostic, so virtual-clock replays
    (:class:`~repro.parallel.SimulatedClusterBackend` with
    ``known_costs``) feed it deterministic durations.

    Parameters
    ----------
    smoothing : float in (0, 1], default 0.5
        EMA weight of the newest observation. 1.0 keeps only the latest
        measurement; smaller values damp noisy clocks.
    """

    def __init__(self, *, smoothing: float = 0.5):
        if not 0.0 < smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        self.smoothing = smoothing
        self._ema: dict[Hashable, float] = {}

    @property
    def n_observed(self) -> int:
        """Number of distinct task keys with at least one observation."""
        return len(self._ema)

    def has_observations(self, keys) -> bool:
        """Whether any of ``keys`` has at least one folded observation.

        Schedulers use this as the cold-start test for a *specific*
        batch: globally non-empty telemetry (say, fit-keyed) does not
        help a batch whose keys were never observed.
        """
        return any(key in self._ema for key in keys)

    def observe(self, durations, keys=None, weights=None) -> int:
        """Fold measured task durations into the per-key EMAs.

        Parameters
        ----------
        durations : (k,) array-like
            Measured wall-clock (or virtual-clock) seconds per task.
        keys : sequence of hashable or None
            Stable identity of each task across batches; defaults to the
            task's position index.
        weights : (k,) array-like or None
            Work units per task (e.g. rows scored); the EMA stores
            duration *per unit*, so observations transfer across batch
            sizes. Defaults to 1 per task.

        Returns the number of observations folded in (non-finite or
        negative durations and non-positive weights are skipped).
        """
        durations = np.asarray(durations, dtype=np.float64)
        if durations.ndim != 1:
            raise ValueError("durations must be 1-D")
        k = durations.size
        if keys is None:
            keys = range(k)
        keys = list(keys)
        if len(keys) != k:
            raise ValueError("keys must align with durations")
        if weights is None:
            w = np.ones(k)
        else:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape != (k,):
                raise ValueError("weights must align with durations")
        folded = 0
        s = self.smoothing
        for key, dur, wt in zip(keys, durations, w):
            if not np.isfinite(dur) or dur < 0.0 or not wt > 0.0:
                continue
            rate = dur / wt
            prev = self._ema.get(key)
            self._ema[key] = rate if prev is None else (1.0 - s) * prev + s * rate
            folded += 1
        return folded

    def refine(self, base_costs, keys=None, weights=None) -> np.ndarray:
        """Blend a base forecast with the measured EMAs.

        Observed tasks get ``ema[key] * weight`` (their measured cost at
        this batch's size); unobserved tasks keep ``base * scale``,
        where ``scale`` is the median measured/forecast ratio over
        observed tasks — calibrating guessed costs onto the measured
        scale so one weight vector stays internally consistent. With no
        observations the base forecast is returned unchanged.
        """
        base = np.asarray(base_costs, dtype=np.float64)
        if base.ndim != 1:
            raise ValueError("base_costs must be 1-D")
        k = base.size
        if keys is None:
            keys = range(k)
        keys = list(keys)
        if len(keys) != k:
            raise ValueError("keys must align with base_costs")
        if weights is None:
            w = np.ones(k)
        else:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape != (k,):
                raise ValueError("weights must align with base_costs")
        measured = np.array(
            [self._ema.get(key, np.nan) for key in keys], dtype=np.float64
        )
        observed = np.isfinite(measured)
        if not observed.any():
            return base.copy()
        refined = np.where(observed, np.nan_to_num(measured) * w, 0.0)
        if not observed.all():
            valid = observed & (base > 0.0)
            scale = (
                float(np.median(refined[valid] / base[valid])) if valid.any() else 1.0
            )
            refined[~observed] = base[~observed] * scale
        return np.maximum(refined, 0.0)

    def __repr__(self) -> str:
        return (
            f"TelemetryRefinedCostModel(smoothing={self.smoothing}, "
            f"n_observed={self.n_observed})"
        )


def train_cost_predictor(
    *,
    families: Sequence[str] | None = None,
    n_grid: Sequence[int] = (200, 500, 1000),
    d_grid: Sequence[int] = (5, 20, 50),
    models_per_family: int = 2,
    n_trials: int = 2,
    random_state=None,
) -> tuple[CostPredictor, dict]:
    """Fit a :class:`CostPredictor` on locally measured timings.

    Replaces the authors' offline corpus (11 families x 47 datasets x 10
    trials) with a locally generated grid: synthetic Gaussian datasets of
    sizes ``n_grid x d_grid``, ``models_per_family`` random configurations
    per family (drawn from the Table B.1 grid where available). Each cell
    is fitted once untimed, then ``n_trials`` (at least 2) timed times,
    and records the fastest, so a fit slowed by other work on the host
    does not count.

    Returns ``(predictor, report)`` where ``report`` holds the raw timing
    table for validation (e.g. the Spearman check of experiment A2).
    """
    from repro.detectors.registry import TABLE_B1_GRID, sample_model_pool

    if n_trials < 2:
        raise ValueError(f"n_trials must be >= 2, got {n_trials}")
    rng = check_random_state(random_state)
    fams = list(families) if families is not None else sorted(TABLE_B1_GRID)

    # Warm up interpreter/BLAS caches so the first timed fit is not
    # systematically inflated.
    from repro.detectors import KNN as _WarmKNN

    _WarmKNN(n_neighbors=3).fit(rng.standard_normal((60, 5)))

    rows, times, records = [], [], []
    for n in n_grid:
        for d in d_grid:
            X = rng.standard_normal((n, d))
            meta = dataset_meta_features(X)
            pool = []
            for fam in fams:
                pool.extend(
                    sample_model_pool(
                        models_per_family,
                        families=[fam],
                        max_n_neighbors=max(2, min(100, n // 4)),
                        random_state=rng,
                    )
                )
            for model in pool:
                model.fit(X)  # untimed warm-up: lazy imports, first touch
                elapsed = float("inf")
                for _ in range(n_trials):
                    t0 = time.perf_counter()
                    model.fit(X)
                    elapsed = min(elapsed, time.perf_counter() - t0)
                rows.append(np.concatenate([meta, model_embedding(model)]))
                times.append(elapsed)
                records.append(
                    {"family": family_of(model), "n": n, "d": d, "seconds": elapsed}
                )

    predictor = CostPredictor(random_state=rng).fit(np.stack(rows), np.array(times))
    report = {
        "n_observations": len(times),
        "records": records,
        "features": np.stack(rows),
        "seconds": np.array(times),
    }
    return predictor, report
