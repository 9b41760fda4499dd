"""The SUOD meta-estimator: RP + PSA + BPS behind one API (Codeblock 1).

Composes the three independent acceleration modules over a heterogeneous
pool of base detectors:

- **RP** (``rp_flag_global``): each eligible base model trains in its own
  JL random subspace (diversity + compression). Subspace-style detectors
  (iForest, HBOS, ...) are exempt per §3.3's caution, as are datasets too
  small/narrow for the JL bound to be meaningful.
- **BPS** (``bps_flag``): model costs are forecast and models assigned to
  workers by balanced rank sums instead of contiguous equal counts. The
  policy behind the flag is pluggable (``scheduler=``): any registered
  :class:`repro.scheduling.Scheduler`, including the ``adaptive`` one
  that reschedules consecutive batches on *measured* task durations.
- **PSA** (``approx_flag_global``): after fitting, costly detectors get a
  supervised stand-in for fast prediction on new samples.

Every flag can be toggled independently, so the baseline of Table 5
(``rp=False, approx=False, bps=False``) runs on identical machinery.

Architecturally, :class:`SUOD` is a thin façade over
:mod:`repro.pipeline`: ``fit`` and ``decision_function`` each *compile*
an :class:`~repro.pipeline.ExecutionPlan` of stages —

    project -> forecast -> share -> schedule -> execute -> approximate
    -> combine

— and hand it to a :class:`~repro.pipeline.PlanRunner`, the single
execution path shared by every backend. The ``share`` stage (between
``forecast`` and ``schedule``) is the plan-level CSE pass: it folds
redundant neighbor structures into shared producer tasks whose fused
query results every consuming detector prefix-slices — the execute
stage then runs a two-wave dependency DAG (producers, then consumers)
with bitwise-identical scores (:mod:`repro.pipeline.sharing`). The fit
plan's ``approximate`` stage is a third scheduled wave: PSA trains its
approximator forests as (model × tree-block) tasks on the same warm
backend, bitwise-identical to the serial loop
(:class:`repro.core.approximation.ApproximatorWave`).
``build_fit_plan`` /
``build_predict_plan`` expose the plans directly (the ``repro plan``
CLI renders them; partial runs preview forecast costs and the chosen
assignment without fitting anything). Stage-level telemetry lands in
``fit_plan_`` / ``predict_plan_``; plans and the ``fit_result_`` /
``approx_result_`` / ``predict_result_`` execution results are ephemeral
run artefacts and are deliberately excluded from pickles (see
:mod:`repro.utils.persistence` for ensemble round-tripping).
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

import numpy as np

from repro.combination import (
    ecdf_standardise,
    mean_over_models,
    moa,
    zscore_standardise,
)
from repro.core.approximation import Approximator, ApproximatorWave
from repro.detectors.base import BaseDetector
from repro.detectors.registry import family_of, is_costly
from repro.parallel import (
    ExecutionResult,
    chunk_slices,
    get_backend,
    get_backend_class,
    resolve_array,
    scatter_chunk_results,
)
from repro.pipeline import ExecutionPlan, PlanContext, PlanRunner, Stage
from repro.pipeline.sharing import (
    derive_fit_sharing,
    derive_predict_sharing,
    fit_one_shared,
    produce_fit_query,
    produce_predict_query,
    score_one_shared,
    score_slice_shared,
)
from repro.projection import JLProjector, NoProjection, jl_target_dim
from repro.scheduling import (
    AnalyticCostModel,
    Scheduler,
    forecast_shared_query,
    get_scheduler_class,
)
from repro.utils.random import check_random_state, spawn_seeds
from repro.utils.validation import check_array, check_is_fitted

__all__ = ["SUOD", "RP_NG_FAMILIES"]

# Families where projection "may not be helpful or even detrimental"
# (§3.3): subspace / histogram / per-feature methods.
RP_NG_FAMILIES = frozenset({"IsolationForest", "HBOS", "LODA", "COPOD", "PCAD"})

_COMBINERS = ("average", "maximization", "moa")


def _fit_one(estimator: BaseDetector, X) -> BaseDetector:
    """Module-level fit task (must be picklable for the process backends).

    ``X`` is either an ndarray (in-memory backends) or a
    :class:`~repro.parallel.SharedArrayHandle` the worker resolves to a
    read-only view of the shared segment (shm process backend).
    """
    return estimator.fit(resolve_array(X))


def _score_one(scorer, X) -> np.ndarray:
    """Module-level predict task (ndarray or shared-array handle)."""
    return scorer.decision_function(resolve_array(X))


def _score_slice(scorer, X, sl: slice) -> np.ndarray:
    """Chunked predict task: score ``X[sl]`` worker-side.

    With a shared-array handle the row block is sliced off the attached
    view, so a (model × chunk) task ships only (handle, slice) — no row
    data crosses the process boundary in either direction except the
    chunk's scores.
    """
    return scorer.decision_function(resolve_array(X)[sl])


class SUOD:
    """Scalable framework for heterogeneous unsupervised outlier detection.

    Parameters
    ----------
    base_estimators : sequence of BaseDetector
        The heterogeneous model pool M (unfitted instances).
    contamination : float in (0, 0.5], default 0.1
        Outlier fraction for thresholding combined scores.
    rp_flag_global : bool, default True
        Master switch of the random-projection module.
    rp_method : {'basic', 'discrete', 'circulant', 'toeplitz'}, default 'toeplitz'
        JL family (toeplitz = the paper's default choice after Table 1).
    rp_target_fraction : float in (0, 1], default 2/3
        Target dimension as a fraction of d (Table 1 uses 2/3).
    rp_min_features : int, default 4
        Skip projection below this dimensionality (nothing to compress).
    rp_min_samples : int, default 30
        Skip projection for tiny datasets where the Eq. 1 bound is void.
    approx_flag_global : bool, default True
        Master switch of pseudo-supervised approximation.
    approx_clf : regressor prototype or None
        Supervised approximator (cloned per model). Default: the
        library's RandomForestRegressor.
    share_flag : bool, default True
        Master switch of the shared-computation plane. When on, the
        ``share`` plan stage folds neighbor-based detectors that query
        the same (sub)space with a KD-tree engine into one shared build
        plus one fused batched query at ``max(k_i)`` (+1 slack at fit);
        each consumer slices its own ``k_i`` prefix. Scores are
        bitwise-identical either way (the canonical tie-order contract,
        pinned by the parity tests); the flag exists to measure the
        redundant baseline and to disable the rewrite wholesale.
    bps_flag : bool, default True
        Master switch of balanced parallel scheduling (vs generic split).
        Legacy toggle: with ``scheduler=None`` it selects between the
        ``'bps-lpt'`` and ``'generic'`` policies, exactly as before.
    scheduler : str, Scheduler or None, default None
        Scheduling policy. A registry name (``'generic'``, ``'shuffle'``,
        ``'bps-lpt'``, ``'bps-kk'``, ``'adaptive'`` — see
        :func:`repro.scheduling.list_schedulers`; legacy spellings like
        ``'bps'`` still resolve with a DeprecationWarning), a
        :class:`repro.scheduling.Scheduler` instance (e.g. a pre-warmed
        :class:`~repro.scheduling.AdaptiveScheduler`), or None to derive
        the policy from ``bps_flag``. ``'adaptive'`` closes the feedback
        loop: every executed batch's measured per-task durations refine
        the cost model, so consecutive ``predict`` batches are
        rescheduled on observed — not guessed — costs.
    cost_predictor : object satisfying the CostModel protocol, or None
        Defaults to :class:`repro.scheduling.AnalyticCostModel`; pass a
        trained :class:`repro.scheduling.CostPredictor` for learned
        costs, or a :class:`repro.scheduling.TelemetryRefinedCostModel`
        for externally managed feedback.
    n_jobs : int, default 1
        Worker count t.
    backend : {'sequential', 'threads', 'processes', 'shm_processes', \
'simulated', 'work_stealing'}
        Execution backend (see :mod:`repro.parallel`). With ``n_jobs=1``
        the sequential backend is always used. ``'work_stealing'`` keeps
        the BPS/generic assignment as a locality hint but lets idle
        workers steal queued tasks at runtime, which recovers from bad
        cost forecasts. ``'shm_processes'`` runs processes over a
        shared-memory data plane: the plan runner materialises ``X``'s
        projected spaces into shared segments once, task payloads carry
        handles instead of array copies, and a persistent worker pool
        is reused across fit/predict and repeated scoring batches.
    batch_size : int or None, default None
        Row-chunk size for scoring. When set, ``decision_function`` /
        ``predict`` split ``X`` into blocks of at most ``batch_size``
        rows and schedule (model × chunk) tasks instead of one task per
        model — a finer grain that packs workers tighter and bounds
        per-task memory. Chunked scores are bitwise identical to
        unchunked ones (per-row scorers are row-separable), under every
        backend. Fitting keeps the per-model grain: detector training
        couples all rows, so a train-time row split would change the
        models themselves. Chunking pairs naturally with
        ``threads``/``work_stealing`` and with ``shm_processes``, where
        a chunk task ships only (handle, slice) and each worker slices
        rows off its attached view; under plain ``processes`` each
        chunk task pickles its row block, so the finer grain multiplies
        copies.
    combination : {'average', 'maximization', 'moa'}, default 'average'
        Combiner for the final score (the paper reports Avg and MOA).
    standardisation : {'ecdf', 'zscore'}, default 'ecdf'
        Per-model score unification applied before combination. The
        paper's experiments z-score; 'ecdf' (quantile against each
        model's training scores) is the robust default here because some
        detectors (notably ABOD) emit score distributions whose tails are
        orders of magnitude wider than their standard deviation and would
        dominate an averaged z-score — see DESIGN.md.
    random_state : seed or Generator.
    verbose : bool, default False

    Attributes
    ----------
    base_estimators_ : list of fitted detectors
    projectors_ : list of fitted projectors (NoProjection when RP is off)
    approximators_ : list of Approximator (empty if PSA globally off)
    rp_flags_ : (m,) bool array — RP actually applied per model
    approx_flags_ : (m,) bool array — PSA actually applied per model
    fit_assignment_ : (m,) int array — worker of each model during fit
    fit_result_ : repro.parallel.ExecutionResult of the detector-fit wave
    approx_assignment_ : worker of each PSA (model × tree-block) task
    approx_result_ : ExecutionResult of the PSA wave (None without one)
    fit_plan_ : repro.pipeline.ExecutionPlan of the last fit pass
    predict_result_ : ExecutionResult of the last scoring pass
    predict_plan_ : ExecutionPlan of the last scoring pass
    train_score_matrix_ : (m, n) raw train scores per model
    decision_scores_, threshold_, labels_ : combined train outputs
    """

    def __init__(
        self,
        base_estimators: Sequence[BaseDetector],
        *,
        contamination: float = 0.1,
        rp_flag_global: bool = True,
        rp_method: str = "toeplitz",
        rp_target_fraction: float = 2.0 / 3.0,
        rp_min_features: int = 4,
        rp_min_samples: int = 30,
        approx_flag_global: bool = True,
        approx_clf=None,
        share_flag: bool = True,
        bps_flag: bool = True,
        scheduler=None,
        cost_predictor=None,
        n_jobs: int = 1,
        backend: str = "sequential",
        batch_size: int | None = None,
        combination: str = "average",
        standardisation: str = "ecdf",
        random_state=None,
        verbose: bool = False,
    ):
        if not base_estimators:
            raise ValueError("base_estimators must be a non-empty sequence")
        for est in base_estimators:
            if not isinstance(est, BaseDetector):
                raise TypeError(
                    f"base estimators must subclass BaseDetector, got {type(est)}"
                )
        if not 0.0 < contamination <= 0.5:
            raise ValueError("contamination must be in (0, 0.5]")
        if combination not in _COMBINERS:
            raise ValueError(f"combination must be one of {_COMBINERS}")
        if standardisation not in ("ecdf", "zscore"):
            raise ValueError("standardisation must be 'ecdf' or 'zscore'")
        if n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be None or >= 1")
        if isinstance(scheduler, str):
            get_scheduler_class(scheduler)  # fail fast on unknown names
        elif scheduler is not None and not isinstance(scheduler, Scheduler):
            raise TypeError(
                "scheduler must be a registered policy name, a "
                f"repro.scheduling.Scheduler instance or None, got {type(scheduler)}"
            )
        self.base_estimators = list(base_estimators)
        self.contamination = contamination
        self.rp_flag_global = rp_flag_global
        self.rp_method = rp_method
        self.rp_target_fraction = rp_target_fraction
        self.rp_min_features = rp_min_features
        self.rp_min_samples = rp_min_samples
        self.approx_flag_global = approx_flag_global
        self.approx_clf = approx_clf
        self.share_flag = share_flag
        self.bps_flag = bps_flag
        self.scheduler = scheduler
        self.cost_predictor = cost_predictor
        self.n_jobs = n_jobs
        self.backend = backend
        self.batch_size = batch_size
        self.combination = combination
        self.standardisation = standardisation
        self.random_state = random_state
        self.verbose = verbose

    # ------------------------------------------------------------------
    @property
    def n_models(self) -> int:
        return len(self.base_estimators)

    def _log(self, msg: str) -> None:
        if self.verbose:
            print(f"[SUOD] {msg}")

    def _make_backend(self):
        """The active backend instance, cached across plan stages.

        Caching matters for pool-holding backends (``shm_processes``):
        the fit execute, predict execute, and every subsequent scoring
        batch reuse one warm worker pool instead of spawning processes
        per stage. The cache is invalidated when ``backend``/``n_jobs``
        change, dropped from pickles, and closed via :meth:`close`.
        """
        key = (self._effective_backend, self.n_jobs)
        if getattr(self, "_backend_key_", None) == key:
            return self._backend_instance_
        self.close()
        if self.n_jobs == 1:
            backend = get_backend("sequential")
        else:
            backend = get_backend(self.backend, n_workers=self.n_jobs)
        self._backend_instance_ = backend
        self._backend_key_ = key
        return backend

    def close(self) -> None:
        """Shut down the cached backend's worker pool, if it holds one.

        Safe to call at any time (idempotent); the next fit/predict
        simply builds a fresh backend. Long-lived services should call
        this when retiring an estimator so pooled worker processes do
        not linger until garbage collection.
        """
        backend = getattr(self, "_backend_instance_", None)
        if backend is not None and hasattr(backend, "shutdown"):
            backend.shutdown()
        self._backend_instance_ = None
        self._backend_key_ = None

    @property
    def _effective_backend(self) -> str:
        return "sequential" if self.n_jobs == 1 else self.backend

    @property
    def _uses_shm(self) -> bool:
        """Whether the active backend wants plan data in shared memory."""
        return bool(
            getattr(
                get_backend_class(self._effective_backend),
                "uses_shared_memory",
                False,
            )
        )

    def _cost_predictor(self):
        """The single selection point for the active cost predictor."""
        return self.cost_predictor or AnalyticCostModel()

    def _make_scheduler(self) -> Scheduler:
        """The active Scheduler instance, cached across plans/batches.

        Caching matters for the adaptive policy: its telemetry-refined
        cost model accumulates observations across consecutive predict
        batches, so the instance must survive plan boundaries. Instances
        passed directly are used as-is (their state is the caller's);
        names and the ``bps_flag`` default resolve through the registry
        once and are invalidated when the parameters change.
        """
        spec = self.scheduler
        if isinstance(spec, Scheduler):
            return spec
        if spec is None:
            key = ("default", bool(self.bps_flag))
            name = "bps-lpt" if self.bps_flag else "generic"
        else:
            key = ("named", spec)
            name = spec
        if getattr(self, "_scheduler_key_", None) == key:
            return self._scheduler_instance_
        cls = get_scheduler_class(name)
        try:
            instance = cls(random_state=self.random_state)
        except TypeError:
            # Deterministic policies take no seed.
            instance = cls()
        self._scheduler_instance_ = instance
        self._scheduler_key_ = key
        return instance

    @staticmethod
    def _task_identities(ctx: PlanContext) -> tuple[list, np.ndarray]:
        """Stable per-task keys + work weights for the feedback loop.

        Keys are ``(plan kind, model index)`` so fit and predict costs
        never mix and chunked tasks of one model share an identity;
        weights are row counts, so observed durations normalise to a
        per-row rate that transfers across batch sizes.
        """
        kind = ctx.kind
        if ctx.owners is not None:
            keys = [(kind, i) for i, _sl in ctx.owners]
            weights = np.array([float(sl.stop - sl.start) for _, sl in ctx.owners])
        else:
            n_rows = float(ctx.X.shape[0])
            keys = [(kind, i) for i in range(ctx.n_tasks)]
            weights = np.full(ctx.n_tasks, max(n_rows, 1.0))
        return keys, weights

    def _observe_execution(self, ctx: PlanContext, result: ExecutionResult) -> int:
        """Pipe execute-stage telemetry into the scheduler's feedback loop."""
        keys = ctx.get("task_keys")
        weights = ctx.get("task_weights")
        if keys is None or result.task_times.size != len(keys):
            keys, weights = self._task_identities(ctx)
        return self._observe_wave(result, keys, weights)

    def _observe_wave(self, result: ExecutionResult, keys, weights) -> int:
        """Feed one wave's task times (detector fits, scoring tasks, share
        producers, PSA blocks) to the adaptive scheduler under its keys."""
        if self.n_jobs == 1 or keys is None or result.task_times.size != len(keys):
            return 0
        scheduler = self._make_scheduler()
        if not scheduler.adaptive:
            return 0
        return scheduler.observe(result.task_times, task_keys=keys, weights=weights)

    # ------------------------------------------------------------------
    # Plan compilation — the façade's whole job. Stages communicate via
    # the PlanContext; fitted state lands on ``self`` exactly as the
    # monolithic fit/predict bodies used to leave it.
    # ------------------------------------------------------------------
    def _plan_meta(self, *, grain: str, n_tasks: int) -> dict:
        return {
            "backend": self._effective_backend,
            "n_jobs": self.n_jobs,
            "n_models": self.n_models,
            "grain": grain,
            "n_tasks": n_tasks,
            "sharing": self.share_flag,
            "bps": self.bps_flag,
            "scheduler": "single-worker"
            if self.n_jobs == 1
            else self._make_scheduler().name,
            "batch_size": self.batch_size,
            "shm": self._uses_shm,
        }

    def build_fit_plan(self, X) -> ExecutionPlan:
        """Compile the training pass into an inspectable ExecutionPlan.

        Running the returned plan (via :class:`PlanRunner`) *is* fitting
        this estimator: stages write fitted attributes onto ``self``.
        A partial run (``until='schedule'``) computes only forecast
        costs and the worker assignment — nothing is trained.
        """
        X = check_array(X, name="X")
        ctx = PlanContext(
            X=X,
            models=self.base_estimators,
            rng=check_random_state(self.random_state),
            owners=None,
            n_tasks=self.n_models,
            kind="fit",
        )
        stages = [
            Stage(
                "project",
                self._fit_stage_project,
                "fit per-model JL projectors; transform X into model spaces",
            ),
            Stage(
                "forecast",
                self._stage_forecast,
                "forecast per-task costs (analytic or learned predictor)",
            ),
            Stage(
                "share",
                self._fit_stage_share,
                "fold redundant neighbor structures into shared producers",
            ),
            Stage(
                "schedule",
                self._stage_schedule,
                "map tasks to workers (BPS rank balancing or generic split)",
            ),
            Stage(
                "execute",
                self._fit_stage_execute,
                "fit all detectors through the parallel backend",
            ),
            Stage(
                "approximate",
                self._fit_stage_approximate,
                "train pseudo-supervised approximators for costly models",
            ),
            Stage(
                "combine",
                self._fit_stage_combine,
                "standardise + combine train scores; set threshold/labels",
            ),
        ]
        plan = ExecutionPlan(
            kind="fit",
            stages=stages,
            context=ctx,
            meta=self._plan_meta(grain="model", n_tasks=self.n_models),
            shm_keys=("spaces",) if self._uses_shm else (),
        )
        self.fit_plan_ = plan
        return plan

    def build_predict_plan(self, X) -> ExecutionPlan:
        """Compile a scoring pass over ``X`` into an ExecutionPlan.

        Requires a fitted estimator. With ``batch_size`` set and more
        rows than the batch, the task grain becomes (model × row-chunk);
        forecast costs are scaled by each chunk's row fraction so BPS
        ranks stay meaningful at the finer grain.
        """
        check_is_fitted(self, "base_estimators_")
        X = check_array(X, name="X")
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, expected {self.n_features_in_}"
            )
        n = X.shape[0]
        chunked = self.batch_size is not None and n > self.batch_size
        if chunked:
            slices = chunk_slices(n, self.batch_size)
            owners = [(i, sl) for i in range(self.n_models) for sl in slices]
        else:
            slices, owners = None, None
        n_tasks = len(owners) if chunked else self.n_models
        ctx = PlanContext(
            X=X,
            models=self.base_estimators_,
            owners=owners,
            slices=slices,
            n_tasks=n_tasks,
            kind="predict",
        )
        stages = [
            Stage(
                "project",
                self._predict_stage_project,
                "transform X through the fitted projectors",
            ),
            Stage(
                "forecast",
                self._stage_forecast,
                "forecast per-task costs (analytic or learned predictor)",
            ),
            Stage(
                "share",
                self._predict_stage_share,
                "fold redundant neighbor queries into shared producers",
            ),
            Stage(
                "schedule",
                self._stage_schedule,
                "map tasks to workers (BPS rank balancing or generic split)",
            ),
            Stage(
                "execute",
                self._predict_stage_execute,
                "score every task through the parallel backend; gather matrix",
            ),
            Stage(
                "combine",
                self._predict_stage_combine,
                "standardise against train scores; combine into one score",
            ),
        ]
        plan = ExecutionPlan(
            kind="predict",
            stages=stages,
            context=ctx,
            meta=self._plan_meta(
                grain="model x chunk" if chunked else "model", n_tasks=n_tasks
            ),
            shm_keys=("spaces",) if self._uses_shm else (),
        )
        self.predict_plan_ = plan
        return plan

    # -- shared stages --------------------------------------------------
    def _stage_forecast(self, ctx: PlanContext) -> dict:
        """Per-task cost forecasts (skipped exactly when scheduling
        cannot use them, so an untrained CostPredictor with n_jobs=1
        keeps working as before)."""
        if self.n_jobs == 1 or not self._make_scheduler().uses_costs:
            ctx.model_costs = None
            ctx.costs = None
            reason = (
                "n_jobs == 1"
                if self.n_jobs == 1
                else f"scheduler {self._make_scheduler().name!r} ignores costs"
            )
            return {"forecast": "skipped", "reason": reason}
        predictor = self._cost_predictor()
        model_costs = np.asarray(
            predictor.forecast(ctx.models, ctx.X), dtype=np.float64
        )
        ctx.model_costs = model_costs
        if ctx.owners is not None:
            n = ctx.X.shape[0]
            ctx.costs = np.array(
                [model_costs[i] * (sl.stop - sl.start) / n for i, sl in ctx.owners]
            )
        else:
            ctx.costs = model_costs
        return {
            "predictor": type(predictor).__name__,
            "total_cost": float(ctx.costs.sum()),
            "max_cost": float(ctx.costs.max(initial=0.0)),
        }

    def _stage_schedule(self, ctx: PlanContext) -> dict:
        if self.n_jobs == 1:
            ctx.assignment = np.zeros(ctx.n_tasks, dtype=np.int64)
            info = {"policy": "single-worker"}
        else:
            scheduler = self._make_scheduler()
            keys, weights = self._task_identities(ctx)
            ctx.task_keys = keys
            ctx.task_weights = weights
            ctx.assignment = scheduler.assign(
                ctx.n_tasks,
                self.n_jobs,
                ctx.costs,
                task_keys=keys,
                weights=weights,
            )
            info = {"policy": scheduler.name}
            if scheduler.adaptive:
                # How much measured telemetry backed this assignment.
                info["n_observed"] = int(scheduler.n_observed)
        counts = np.bincount(ctx.assignment, minlength=self.n_jobs)
        info["n_tasks"] = int(ctx.n_tasks)
        info["tasks_per_worker"] = counts.tolist()
        self._schedule_producers(ctx, info)
        return info

    def _schedule_producers(self, ctx: PlanContext, info: dict) -> None:
        """Assign the sharing plan's producer wave (first-class tasks).

        Producers get their own assignment, cost forecasts
        (``ctx.producer_costs``, from the share stage) and stable task
        keys ``('<kind>-share', qid)``, so the adaptive scheduler
        arbitrates shared builds against ordinary fit/score tasks on
        measured durations.
        """
        sharing = ctx.get("sharing")
        if sharing is None or not sharing.active:
            return
        n_producers = len(sharing.queries)
        if self.n_jobs == 1:
            ctx.producer_assignment = np.zeros(n_producers, dtype=np.int64)
        else:
            scheduler = self._make_scheduler()
            keys = [(f"{ctx.kind}-share", qid) for qid in range(n_producers)]
            weights = np.array([float(q.n_query) for q in sharing.queries])
            ctx.producer_task_keys = keys
            ctx.producer_task_weights = weights
            ctx.producer_assignment = scheduler.assign(
                n_producers,
                self.n_jobs,
                ctx.get("producer_costs"),
                task_keys=keys,
                weights=weights,
            )
        info["producer_tasks"] = n_producers

    # -- sharing stages --------------------------------------------------
    def _stage_share(self, ctx: PlanContext, sharing) -> dict:
        """Common tail of the fit/predict share stages: record the
        derived plan, forecast producer costs, report the dedup ledger."""
        ctx.sharing = sharing
        info = sharing.summary()
        if sharing.active and self.n_jobs > 1 and self._make_scheduler().uses_costs:
            ctx.producer_costs = np.array(
                [
                    forecast_shared_query(q.n_index, q.n_query, q.n_features, q.width)
                    for q in sharing.queries
                ]
            )
        else:
            ctx.producer_costs = None
        if sharing.active:
            self._log(
                f"sharing: {info['queries_fused']} neighbor tasks folded into "
                f"{info['structures_built']} shared structure(s)"
            )
        return info

    def _fit_stage_share(self, ctx: PlanContext) -> dict:
        if not self.share_flag:
            ctx.sharing = None
            info = {"sharing": "disabled"}
        else:
            info = self._stage_share(
                ctx, derive_fit_sharing(self.base_estimators, ctx.spaces)
            )
        self.sharing_fit_info_ = info
        return info

    def _predict_stage_share(self, ctx: PlanContext) -> dict:
        if not self.share_flag:
            ctx.sharing = None
            info = {"sharing": "disabled"}
        else:
            info = self._stage_share(
                ctx,
                derive_predict_sharing(self.approximators_, ctx.spaces, ctx.n_tasks),
            )
        self.sharing_predict_info_ = info
        return info

    def _run_producer_wave(self, ctx: PlanContext, backend) -> dict | None:
        """Wave 0 of the execute DAG: run shared producers, publish results.

        Executes the sharing plan's producer tasks through the same
        backend/assignment machinery as ordinary tasks, feeds their
        measured durations to the adaptive scheduler under the producer
        task keys, and publishes each fused ``(distance, index)`` pair
        for the consumer wave — into the plan's shm arena as read-only
        handles when the data plane is active, as in-memory arrays
        otherwise. Fit-plan producers also return the group's fitted
        index, kept on the query for post-fit injection.
        """
        sharing = ctx.get("sharing")
        if sharing is None or not sharing.active:
            return None
        data = ctx.get("shared_spaces") or ctx.spaces
        if ctx.kind == "fit":
            tasks = [
                functools.partial(
                    produce_fit_query, data[q.space_index], tuple(q.ks), q.metric
                )
                for q in sharing.queries
            ]
        else:
            tasks = [
                functools.partial(
                    produce_predict_query, q.index, data[q.space_index], tuple(q.ks)
                )
                for q in sharing.queries
            ]
        result = backend.execute(tasks, ctx.producer_assignment)
        result.raise_first_error()
        self._observe_wave(
            result, ctx.get("producer_task_keys"), ctx.get("producer_task_weights")
        )
        arena = ctx.get("arena")
        published = []
        bytes_published = 0
        for query, out in zip(sharing.queries, result.results):
            if ctx.kind == "fit":
                query.index, dist, idx = out
            else:
                dist, idx = out
            if arena is not None:
                pair = (
                    arena.share(dist, category="neighbors"),
                    arena.share(idx, category="neighbors"),
                )
            else:
                pair = (dist, idx)
            bytes_published += dist.nbytes + idx.nbytes
            published.append(pair)
        # The fused arrays now live in the arena / on the context; keep
        # the stage report light (reports survive release_data).
        result.results = [None] * len(result.results)
        ctx.shared_neighbors = published
        ctx.producer_result = result
        self._log(
            f"sharing: {len(sharing.queries)} producer(s) in "
            f"{result.wall_time:.3f}s, {bytes_published} bytes published"
        )
        return {
            "producers": len(sharing.queries),
            "producer_wall_s": result.wall_time,
            "bytes_published": bytes_published,
        }

    # -- fit stages ------------------------------------------------------
    def _fit_stage_project(self, ctx: PlanContext) -> dict:
        """RP: per-model feature spaces (Algorithm 1 lines 1-8)."""
        X = ctx.X
        n, d = X.shape
        m = self.n_models
        # Seeds are drawn once per plan and cached on the context, so a
        # reset() + re-run replays the exact same projectors and
        # estimator seeds instead of advancing the stateful Generator.
        if "rng_seeds" not in ctx:
            ctx.rng_seeds = spawn_seeds(ctx.rng, 2 * m)
        seeds = ctx.rng_seeds
        k = jl_target_dim(d, self.rp_target_fraction)
        rp_flags = np.zeros(m, dtype=bool)
        projectors = []
        for i, est in enumerate(self.base_estimators):
            use_rp = (
                self.rp_flag_global
                and family_of(est) not in RP_NG_FAMILIES
                and d >= self.rp_min_features
                and n >= self.rp_min_samples
                and k < d
            )
            rp_flags[i] = use_rp
            proj = (
                JLProjector(k, family=self.rp_method, random_state=seeds[i])
                if use_rp
                else NoProjection()
            )
            projectors.append(proj.fit(X))
        ctx.spaces = [proj.transform(X) for proj in projectors]
        self._log(
            f"RP: {int(rp_flags.sum())}/{m} models projected to k={k} "
            f"({self.rp_method})"
        )

        # Seed stochastic estimators deterministically.
        for i, est in enumerate(self.base_estimators):
            if hasattr(est, "random_state") and est.random_state is None:
                est.random_state = seeds[m + i]

        self.projectors_ = projectors
        self.rp_flags_ = rp_flags
        self.n_features_in_ = d
        return {
            "k": int(k),
            "n_projected": int(rp_flags.sum()),
            "rp_method": self.rp_method,
        }

    def _fit_stage_execute(self, ctx: PlanContext) -> dict:
        """BPS + execution (Algorithm 1 lines 9-13), as a two-wave DAG.

        Wave 0 (:meth:`_run_producer_wave`) runs the share stage's
        producers and publishes fused neighbor results; wave 1 runs one
        task per model, consumers binding their group's published pair.
        """
        # With the shm data plane, tasks bind tiny segment handles (the
        # runner materialised ctx.spaces into the arena); otherwise they
        # bind the arrays themselves.
        data = ctx.get("shared_spaces") or ctx.spaces
        backend = self._make_backend()
        producer_info = self._run_producer_wave(ctx, backend)
        sharing = ctx.get("sharing")
        consumer_of = sharing.consumer_of if sharing is not None else {}
        tasks = []
        for i, est in enumerate(self.base_estimators):
            qid = consumer_of.get(i)
            if qid is not None:
                dh, ih = ctx.shared_neighbors[qid]
                tasks.append(functools.partial(fit_one_shared, est, data[i], dh, ih))
            else:
                tasks.append(functools.partial(_fit_one, est, data[i]))
        result = backend.execute(tasks, ctx.assignment)
        result.raise_first_error()
        observed = self._observe_execution(ctx, result)
        self.base_estimators_ = list(result.results)
        # Consumers fitted from the fused result skipped their private
        # index build; hand every group its single shared index so
        # standalone re-scoring (and predict-time sharing) work as if
        # each had built its own.
        for i, qid in consumer_of.items():
            self.base_estimators_[i]._nn = sharing.queries[qid].index
        self.shared_index_ = (
            [q.index for q in sharing.queries] if sharing is not None else []
        )
        self.fit_assignment_ = ctx.assignment
        self.fit_result_ = result
        ctx.result = result
        self._log(f"fit wall time: {result.wall_time:.3f}s")
        merged = result
        if ctx.get("producer_result") is not None:
            merged = ExecutionResult.merge([ctx.producer_result, result])
        info = {"backend": self._effective_backend, "execution": merged}
        if producer_info is not None:
            info["sharing"] = producer_info
        if observed:
            info["telemetry_observed"] = observed
        return info

    def _fit_stage_approximate(self, ctx: PlanContext) -> dict:
        """PSA (Algorithm 1 lines 15-22): wave 2 of the parallel plane."""
        m = self.n_models
        self.approx_result_ = None
        self.approx_assignment_ = np.zeros(0, dtype=np.int64)
        if not self.approx_flag_global:
            self.approximators_ = [
                Approximator(est, enabled=False) for est in self.base_estimators_
            ]
            self.approx_flags_ = np.zeros(m, dtype=bool)
            return {"n_approximated": 0}
        regressor = self.approx_clf
        if regressor is None:
            from repro.supervised import RandomForestRegressor

            # Seed the default approximator so the whole pipeline is
            # reproducible under a fixed random_state; cached on the
            # context so reset() + re-run replays identically.
            if "approx_seed" not in ctx:
                ctx.approx_seed = spawn_seeds(ctx.rng, 1)[0]
            regressor = RandomForestRegressor(random_state=ctx.approx_seed)
        approximators = [
            Approximator(est, regressor, enabled=is_costly(est))
            for est in self.base_estimators_
        ]
        backend, n_workers = self._make_backend(), self.n_jobs
        if getattr(backend, "shares_gil", False):
            # Tree fitting is interpreter-bound: thread workers would only
            # add GIL hand-offs (measured 1.3-2.6x slower than one worker),
            # so on those backends the wave is a single worker's queue.
            backend, n_workers = get_backend("sequential"), 1
        wave = ApproximatorWave(approximators, ctx.spaces, n_workers)
        info = (
            self._run_approximator_wave(ctx, wave, backend, n_workers)
            if wave.n_tasks
            else {}
        )
        self.approximators_ = approximators
        self.approx_flags_ = np.array([a.approximated for a in approximators])
        self._log(f"PSA: {int(self.approx_flags_.sum())}/{m} models approximated")
        return {"n_approximated": int(self.approx_flags_.sum()), **info}

    def _run_approximator_wave(
        self, ctx: PlanContext, wave: ApproximatorWave, backend, n_workers: int
    ) -> dict:
        """Schedule, execute and re-assemble the (model × tree-block) wave.

        First-class like the share producers: analytic forecasts
        (:func:`~repro.scheduling.forecast_approximator_fit`), its own
        assignment from the active scheduler under the stable keys
        ``('fit-approx', model)``, measured durations fed back through
        ``scheduler.observe``. On the shm plane the tasks bind the space
        *handles* of the still-live plan arena; a single worker runs the
        same tasks through the sequential backend.
        """
        n_tasks = wave.n_tasks
        keys = [("fit-approx", i) for i, _lo, _hi in wave.owners]
        weights = wave.task_weights()
        if n_workers == 1:
            assignment = np.zeros(n_tasks, dtype=np.int64)
        else:
            scheduler = self._make_scheduler()
            assignment = scheduler.assign(
                n_tasks,
                n_workers,
                wave.costs() if scheduler.uses_costs else None,
                task_keys=keys,
                weights=weights,
            )
        data = ctx.get("shared_spaces") or ctx.spaces
        result = backend.execute(wave.tasks(data), assignment)
        result.raise_first_error()
        wave.assemble(result.results)
        # The trees now live on the approximators; the telemetry must
        # not keep a second reference to every fitted forest.
        result.results = [None] * n_tasks
        observed = self._observe_wave(result, keys, weights)
        self.approx_assignment_ = assignment
        self.approx_result_ = result
        self._log(f"PSA wave: {n_tasks} task(s) in {result.wall_time:.3f}s")
        info = {
            "tasks": n_tasks,
            "blocks_per_model": wave.blocks_per_model,
            "tasks_per_worker": np.bincount(assignment, minlength=n_workers).tolist(),
            "wave_wall_s": result.wall_time,
            "execution": result,
        }
        if observed:
            info["telemetry_observed"] = observed
        return info

    def _fit_stage_combine(self, ctx: PlanContext) -> dict:
        self.train_score_matrix_ = np.stack(
            [est.decision_scores_ for est in self.base_estimators_]
        )
        std_train = self._standardise(self.train_score_matrix_)
        self.decision_scores_ = self._combine_pre(std_train)
        self.threshold_ = float(
            np.quantile(self.decision_scores_, 1.0 - self.contamination)
        )
        self.labels_ = (self.decision_scores_ > self.threshold_).astype(np.int64)
        return {
            "combination": self.combination,
            "standardisation": self.standardisation,
            "threshold": self.threshold_,
        }

    # -- predict stages --------------------------------------------------
    def _predict_stage_project(self, ctx: PlanContext) -> dict:
        ctx.spaces = [proj.transform(ctx.X) for proj in self.projectors_]
        return {"n_projected": int(self.rp_flags_.sum())}

    def _predict_stage_execute(self, ctx: PlanContext) -> dict:
        shared = ctx.get("shared_spaces")
        backend = self._make_backend()
        producer_info = self._run_producer_wave(ctx, backend)
        sharing = ctx.get("sharing")
        consumer_of = sharing.consumer_of if sharing is not None else {}

        def _pair(i):
            qid = consumer_of.get(i)
            if qid is None:
                return None
            return ctx.shared_neighbors[qid]

        if ctx.owners is not None:
            if shared is not None:
                # (model × chunk) through processes: ship (handle, slice)
                # and cut the row block off the attached view worker-side.
                tasks = []
                for i, sl in ctx.owners:
                    approx = self.approximators_[i]
                    pair = _pair(i)
                    if pair is not None:
                        tasks.append(
                            functools.partial(
                                score_slice_shared,
                                approx,
                                approx.detector,
                                shared[i],
                                sl,
                                *pair,
                            )
                        )
                    else:
                        tasks.append(
                            functools.partial(_score_slice, approx, shared[i], sl)
                        )
            else:
                tasks = []
                for i, sl in ctx.owners:
                    approx = self.approximators_[i]
                    pair = _pair(i)
                    if pair is not None:
                        # In-memory pairs are plain arrays: slice the row
                        # block parent-side, same as the space itself.
                        dist, idx = pair
                        tasks.append(
                            functools.partial(
                                score_one_shared,
                                approx,
                                approx.detector,
                                ctx.spaces[i][sl],
                                dist[sl],
                                idx[sl],
                            )
                        )
                    else:
                        tasks.append(
                            functools.partial(_score_one, approx, ctx.spaces[i][sl])
                        )
        else:
            data = shared if shared is not None else ctx.spaces
            tasks = []
            for i, approx in enumerate(self.approximators_):
                pair = _pair(i)
                if pair is not None:
                    tasks.append(
                        functools.partial(
                            score_one_shared, approx, approx.detector, data[i], *pair
                        )
                    )
                else:
                    tasks.append(functools.partial(_score_one, approx, data[i]))
        result = backend.execute(tasks, ctx.assignment)
        result.raise_first_error()
        observed = self._observe_execution(ctx, result)
        self.predict_result_ = result
        ctx.result = result
        n = ctx.X.shape[0]
        if ctx.owners is not None:
            ctx.matrix = scatter_chunk_results(
                result.results, ctx.owners, self.n_models, n
            )
            self._log(
                f"chunked scoring: {self.n_models} models x "
                f"{len(ctx.slices)} chunks (batch_size={self.batch_size}), "
                f"wall {result.wall_time:.3f}s"
            )
        else:
            ctx.matrix = np.stack(result.results)
        merged = result
        if ctx.get("producer_result") is not None:
            merged = ExecutionResult.merge([ctx.producer_result, result])
        info = {"backend": self._effective_backend, "execution": merged}
        if producer_info is not None:
            info["sharing"] = producer_info
        if observed:
            info["telemetry_observed"] = observed
        return info

    def _predict_stage_combine(self, ctx: PlanContext) -> dict:
        std = self._standardise(ctx.matrix, ref=self.train_score_matrix_)
        ctx.scores = self._combine_pre(std)
        return {
            "combination": self.combination,
            "standardisation": self.standardisation,
        }

    # ------------------------------------------------------------------
    def fit(self, X, y=None) -> "SUOD":
        """Fit the heterogeneous pool (Algorithm 1, training phase)."""
        plan = self.build_fit_plan(X)
        try:
            PlanRunner(verbose=False).run(plan)
        finally:
            # The plan stays inspectable on fit_plan_, but its copies of
            # X and the projected spaces are dropped — also when a stage
            # raises — so a long-lived estimator never pins the training
            # set in memory.
            plan.release_data()
        return self

    # ------------------------------------------------------------------
    def _standardise(self, matrix: np.ndarray, ref: np.ndarray | None = None):
        if self.standardisation == "zscore":
            return zscore_standardise(matrix, ref=ref)
        return ecdf_standardise(matrix, ref=ref)

    def _combine_pre(self, standardised_matrix: np.ndarray) -> np.ndarray:
        """Combine an already-standardised (m, l) score matrix."""
        if self.combination == "average":
            return mean_over_models(standardised_matrix)
        if self.combination == "maximization":
            return standardised_matrix.max(axis=0)
        n_buckets = min(5, standardised_matrix.shape[0])
        return moa(
            standardised_matrix,
            n_buckets=n_buckets,
            standardise=False,
            random_state=0,
        )

    def decision_function_matrix(self, X) -> np.ndarray:
        """Raw (m, l) score matrix on new samples (one row per model).

        With ``batch_size`` set and more rows than the batch, the work is
        split into (model × row-chunk) tasks; otherwise each model scores
        all rows in one task. Either way, the returned matrix is
        identical — chunking changes the execution grain only.
        """
        plan = self.build_predict_plan(X)
        try:
            PlanRunner(verbose=False).run(plan, until="execute")
            return plan.context.matrix
        finally:
            plan.release_data()

    def decision_function(self, X) -> np.ndarray:
        """Combined outlyingness of new samples (larger = more outlying).

        Per-model scores are unified against each model's *training*
        distribution before combination, so heterogeneous scales stay
        comparable between train and test.
        """
        plan = self.build_predict_plan(X)
        try:
            PlanRunner(verbose=False).run(plan)
            return plan.context.scores
        finally:
            plan.release_data()

    def predict(self, X) -> np.ndarray:
        """Binary labels on new samples (1 = outlier).

        Test scores live on the same (train-referenced) scale as
        ``decision_scores_``, so the fit-time threshold applies directly.
        """
        return (self.decision_function(X) > self.threshold_).astype(np.int64)

    def fit_predict(self, X, y=None) -> np.ndarray:
        """Fit and return training labels."""
        return self.fit(X).labels_

    # ------------------------------------------------------------------
    def merged_telemetry(self) -> ExecutionResult:
        """One combined wall-time/steal/idle summary over every wave the
        last fit and predict plans pushed through the backend: share
        producers, detector fits, PSA blocks, scoring tasks (see
        :meth:`ExecutionResult.merge`)."""
        plans = (getattr(self, "fit_plan_", None), getattr(self, "predict_plan_", None))
        return ExecutionResult.merge(
            [plan.merged_execution() for plan in plans if plan is not None]
        )

    def __getstate__(self):
        # Plans and ExecutionResults are run telemetry, not model state:
        # predict_result_.results holds the per-task score arrays of the
        # last scored batch, so keeping it would make pickles scale with
        # whatever X was scored last. Pickles must not drag data along.
        state = self.__dict__.copy()
        for key in (
            "fit_plan_",
            "predict_plan_",
            "fit_result_",
            "approx_result_",
            "predict_result_",
            # Backend instances may hold live worker pools — never pickle.
            "_backend_instance_",
            "_backend_key_",
        ):
            state.pop(key, None)
        return state

    def __repr__(self) -> str:
        sched = self.scheduler
        sched_name = sched.name if isinstance(sched, Scheduler) else sched
        return (
            f"SUOD(m={self.n_models}, rp={self.rp_flag_global}, "
            f"approx={self.approx_flag_global}, bps={self.bps_flag}, "
            f"scheduler={sched_name!r}, n_jobs={self.n_jobs}, "
            f"backend={self.backend!r}, batch_size={self.batch_size})"
        )
