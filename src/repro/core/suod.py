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
execution path shared by every backend. What this module owns is plan
compilation and the fitted state the stages leave on the estimator;
the parallel loop itself — forecast costs, assign tasks to workers,
execute, feed measured durations back, assemble results — exists once,
in :mod:`repro.pipeline.wave`, and the stages only say *which* wave
passes through it: the ``share`` stage's producers
(:class:`~repro.pipeline.sharing.ProducerWave`: one KD-tree build and
one fused neighbor query per shared space), the detector fit/score
tasks (:class:`~repro.pipeline.detector_wave.DetectorWave`, consumers
binding their producer's published result), and PSA's (model ×
tree-block) forest fits
(:class:`~repro.core.approximation.ApproximatorWave`) — each
bitwise-identical to its serial, unshared counterpart.
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
from repro.parallel import ExecutionResult, get_backend, get_backend_class
from repro.pipeline import ExecutionPlan, PlanContext, PlanRunner, Stage
from repro.pipeline.detector_wave import DetectorWave
from repro.pipeline.sharing import (
    ProducerWave,
    derive_fit_sharing,
    derive_predict_sharing,
)
from repro.pipeline.wave import WaveRun, n_workers_for
from repro.projection import JLProjector, NoProjection, jl_target_dim
from repro.scheduling import AnalyticCostModel, Scheduler, get_scheduler_class
from repro.utils.random import check_random_state, spawn_seeds
from repro.utils.validation import check_array, check_is_fitted

__all__ = ["SUOD", "RP_NG_FAMILIES"]

# Families where projection "may not be helpful or even detrimental"
# (§3.3): subspace / histogram / per-feature methods.
RP_NG_FAMILIES = frozenset({"IsolationForest", "HBOS", "LODA", "COPOD", "PCAD"})

_COMBINERS = ("average", "maximization", "moa")


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
    bps_flag : bool, default True
        Master switch of balanced parallel scheduling (vs generic split).
        Legacy toggle: with ``scheduler=None`` it selects between the
        ``'bps-lpt'`` and ``'generic'`` policies, exactly as before.
    scheduler : str, Scheduler or None, default None
        Scheduling policy. A registry name (``'generic'``, ``'shuffle'``,
        ``'bps-lpt'``, ``'bps-kk'``, ``'adaptive'`` — see
        :func:`repro.scheduling.list_schedulers`), a
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
    backend : {'sequential', 'threads', 'shm_processes', 'simulated'}
        Execution backend (see :mod:`repro.parallel`). With ``n_jobs=1``
        the sequential backend is always used. ``'threads'`` overlaps
        tasks inside GIL-releasing NumPy/BLAS calls; interpreter-bound
        waves (the PSA tree fits) run on one of its workers.
        ``'shm_processes'`` runs processes over a
        shared-memory data plane: the plan runner materialises ``X``'s
        projected spaces into shared segments once, task payloads carry
        handles instead of array copies, and a persistent worker pool
        is reused across fit/predict and repeated scoring batches.
        Every backend runs one task per model, in fit and in scoring;
        to bound the rows one scoring call holds, stream them through
        :func:`repro.memory.outofcore.score_out_of_core`.
    combination : {'average', 'maximization', 'moa'}, default 'average'
        Combiner for the final score (the paper reports Avg and MOA).
    standardisation : {'ecdf', 'zscore'}, default 'ecdf'
        Per-model score unification applied before combination. The
        paper's experiments z-score; 'ecdf' (quantile against each
        model's training scores) is the robust default here because some
        detectors (notably ABOD) emit score distributions whose tails are
        orders of magnitude wider than their standard deviation and would
        dominate an averaged z-score — see docs/architecture.md.
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
        bps_flag: bool = True,
        scheduler=None,
        cost_predictor=None,
        n_jobs: int = 1,
        backend: str = "sequential",
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
        get_backend_class(backend)  # fail fast on unknown names
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
        self.bps_flag = bps_flag
        self.scheduler = scheduler
        self.cost_predictor = cost_predictor
        self.n_jobs = n_jobs
        self.backend = backend
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
        backend = get_backend(self._effective_backend, n_workers=self.n_jobs)
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
        return bool(getattr(self._make_backend(), "uses_shared_memory", False))

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

    # ------------------------------------------------------------------
    # Plan compilation — the façade's whole job. Stages communicate via
    # the PlanContext; fitted state lands on ``self`` exactly as the
    # monolithic fit/predict bodies used to leave it.
    # ------------------------------------------------------------------
    def _plan_meta(self) -> dict:
        return {
            "backend": self._effective_backend,
            "n_jobs": self.n_jobs,
            "n_models": self.n_models,
            "n_tasks": self.n_models,
            "bps": self.bps_flag,
            "scheduler": "single-worker"
            if self._make_backend().n_workers == 1
            else self._make_scheduler().name,
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
            scorers=self.base_estimators,
            rng=check_random_state(self.random_state),
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
                self._stage_share,
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
            meta=self._plan_meta(),
            shm_keys=("spaces",) if self._uses_shm else (),
        )
        self.fit_plan_ = plan
        return plan

    def build_predict_plan(self, X) -> ExecutionPlan:
        """Compile a scoring pass over ``X`` into an ExecutionPlan.

        Requires a fitted estimator.
        """
        check_is_fitted(self, "base_estimators_")
        X = check_array(X, name="X")
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, expected {self.n_features_in_}"
            )
        ctx = PlanContext(
            X=X,
            models=self.base_estimators_,
            scorers=self.approximators_,
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
                self._stage_share,
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
            meta=self._plan_meta(),
            shm_keys=("spaces",) if self._uses_shm else (),
        )
        self.predict_plan_ = plan
        return plan

    # -- shared stages --------------------------------------------------
    # Each builds a wave or steps its run through the one wave runner
    # (repro.pipeline.wave); the runs stay on the context between stages.
    def _stage_forecast(self, ctx: PlanContext) -> dict:
        """Describe the detector wave and forecast its task costs —
        skipped exactly when the assignment cannot use them, so an
        untrained CostPredictor on one worker keeps working."""
        predictor = self._cost_predictor()
        wave = DetectorWave(ctx.kind, ctx.models, ctx.X, predictor, ctx.scorers)
        run = WaveRun(wave, self._make_backend(), self._make_scheduler())
        ctx.detectors = run
        ctx.costs = run.forecast()
        if ctx.costs is None:
            reason = (
                "one worker"
                if run.n_workers == 1
                else f"scheduler {run.scheduler.name!r} ignores costs"
            )
            return {"forecast": "skipped", "reason": reason}
        return {
            "predictor": type(predictor).__name__,
            "total_cost": float(ctx.costs.sum()),
            "max_cost": float(ctx.costs.max(initial=0.0)),
        }

    def _stage_share(self, ctx: PlanContext) -> dict:
        """Derive the sharing plan; its producers become a wave of their
        own, forecast here and scheduled/executed beside the detectors."""
        if ctx.kind == "fit":
            sharing = derive_fit_sharing(self.base_estimators, ctx.spaces)
        else:
            sharing = derive_predict_sharing(self.approximators_, ctx.spaces)
        ctx.sharing, ctx.producers = sharing, None
        info = sharing.summary()
        if sharing.active:
            ctx.producers = WaveRun(
                ProducerWave(sharing), self._make_backend(), self._make_scheduler()
            )
            ctx.producers.forecast()
            self._log(
                f"sharing: {info['queries_fused']} neighbor tasks folded into "
                f"{info['structures_built']} shared structure(s)"
            )
        setattr(self, f"sharing_{ctx.kind}_info_", info)
        return info

    def _stage_schedule(self, ctx: PlanContext) -> dict:
        run = ctx.detectors
        ctx.assignment = run.schedule()
        info = {"policy": run.policy}
        if run.n_workers > 1 and run.scheduler.adaptive:
            # How much measured telemetry backed this assignment.
            info["n_observed"] = int(run.scheduler.n_observed)
        info["n_tasks"] = run.wave.n_tasks
        info["tasks_per_worker"] = run.tasks_per_worker()
        if ctx.producers is not None:
            ctx.producers.schedule()
            info["producer_tasks"] = ctx.producers.wave.n_tasks
        return info

    def _stage_execute(self, ctx: PlanContext) -> dict:
        """The execute stage as a two-wave DAG: the share stage's
        producers publish their fused neighbor results, then one task
        per model runs, consumers binding their group's published pair.
        Returns the stage info; the detector wave's products are on
        ``ctx.detectors.wave``."""
        # With the shm data plane, tasks bind tiny segment handles (the
        # runner materialised ctx.spaces into the arena); otherwise they
        # bind the arrays themselves.
        data = ctx.get("shared_spaces") or ctx.spaces
        info = {"backend": self._effective_backend}
        producers, detectors = ctx.producers, ctx.detectors
        runs = [detectors]
        if producers is not None:
            runs = [producers, detectors]
            producers.wave.arena = ctx.get("arena")
            ledger = producers.run(data)
            detectors.wave.pairs = producers.wave.consumer_pairs()
            info["sharing"] = {
                "producers": ledger["tasks"],
                "producer_wall_s": ledger["wave_wall_s"],
                "bytes_published": ledger["bytes_published"],
            }
            self._log(
                f"sharing: {ledger['tasks']} producer(s) in "
                f"{ledger['wave_wall_s']:.3f}s, "
                f"{ledger['bytes_published']} bytes published"
            )
        detectors.run(data)
        results = [run.result for run in runs]
        # Wall times add: the waves ran one after the other.
        info["execution"] = (
            results[0] if len(results) == 1 else ExecutionResult.merge(results)
        )
        observed = sum(run.observed for run in runs)
        if observed:
            info["telemetry_observed"] = observed
        return info

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
        """BPS + execution (Algorithm 1 lines 9-13)."""
        info = self._stage_execute(ctx)
        run, queries = ctx.detectors, ctx.sharing.queries
        self.base_estimators_ = run.wave.fitted
        # Consumers fitted from the fused result skipped their private
        # index build; hand every group its single shared index so
        # standalone re-scoring (and predict-time sharing) work as if
        # each had built its own.
        for query in queries:
            for i in query.consumers:
                self.base_estimators_[i]._nn = query.index
        self.shared_index_ = [query.index for query in queries]
        self.fit_assignment_ = ctx.assignment
        self.fit_result_ = run.result
        self._log(f"fit wall time: {run.result.wall_time:.3f}s")
        return info

    def _fit_stage_approximate(self, ctx: PlanContext) -> dict:
        """PSA (Algorithm 1 lines 15-22): the fit plan's third wave.

        (model × tree-block) forest fits on the same backend and
        scheduler as the detectors, under the keys ``('fit-approx',
        model)``; on the shm plane the tasks bind the space *handles*
        of the still-live plan arena.
        """
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
        backend = self._make_backend()
        wave = ApproximatorWave(
            approximators, ctx.spaces, n_workers_for(ApproximatorWave, backend)
        )
        ledger = {}
        if wave.n_tasks:
            run = WaveRun(wave, backend, self._make_scheduler())
            run.forecast()
            self.approx_assignment_ = run.schedule()
            ledger = run.run(ctx.get("shared_spaces") or ctx.spaces)
            self.approx_result_ = run.result
            self._log(
                f"PSA wave: {wave.n_tasks} task(s) in {run.result.wall_time:.3f}s"
            )
        self.approximators_ = approximators
        self.approx_flags_ = np.array([a.approximated for a in approximators])
        self._log(f"PSA: {int(self.approx_flags_.sum())}/{m} models approximated")
        return {"n_approximated": int(self.approx_flags_.sum()), **ledger}

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
        info = self._stage_execute(ctx)
        run = ctx.detectors
        self.predict_result_ = run.result
        ctx.matrix = run.wave.matrix
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
        """Raw (m, l) score matrix on new samples (one row per model)."""
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
        """One combined wall-time/worker-load summary over every wave the
        last fit and predict plans pushed through the backend: share
        producers, detector fits, PSA blocks, scoring tasks (see
        :meth:`ExecutionResult.merge`)."""
        plans = (getattr(self, "fit_plan_", None), getattr(self, "predict_plan_", None))
        return ExecutionResult.merge(
            [plan.merged_execution() for plan in plans if plan is not None]
        )

    def __getstate__(self):
        # Plans and ExecutionResults are run telemetry, not model state;
        # a plan not yet released still holds the data it ran on.
        # Pickles must not drag either along.
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
            f"backend={self.backend!r})"
        )
