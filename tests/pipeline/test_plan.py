"""Planner/executor layer: plan mechanics + SUOD façade regression.

The heart of this file is ``TestScoreRegression``: the planned pipeline
must reproduce, bitwise, the scores of the pre-refactor monolithic
implementation (re-derived here as straight-line reference code) across
sequential, thread, and work-stealing backends.
"""

import functools
import json

import numpy as np
import pytest

from repro import SUOD
from repro.data import make_outlier_dataset
from repro.detectors import HBOS, KNN, LOF, AvgKNN, IsolationForest
from repro.parallel import ExecutionResult, get_backend
from repro.pipeline import ExecutionPlan, PlanContext, PlanRunner, Stage
from repro.pipeline.wave import Wave, WaveRun, n_workers_for
from repro.scheduling import Scheduler


def make_pool():
    return [
        KNN(n_neighbors=8),
        AvgKNN(n_neighbors=10),
        LOF(n_neighbors=15),
        HBOS(n_bins=15),
        IsolationForest(n_estimators=20),
    ]


@pytest.fixture(scope="module")
def data():
    Xtr, _ = make_outlier_dataset(
        n_samples=220, n_features=8, contamination=0.1, random_state=3
    )
    Xte, _ = make_outlier_dataset(
        n_samples=90, n_features=8, contamination=0.1, random_state=4
    )
    return Xtr, Xte


# ---------------------------------------------------------------------------
# Plan/runner mechanics on synthetic stages
# ---------------------------------------------------------------------------
def _toy_plan(trace):
    def stage(name):
        def run(ctx):
            trace.append(name)
            return {"step": name}

        return Stage(name, run, f"toy stage {name}")

    return ExecutionPlan(
        kind="fit",
        stages=[stage(n) for n in ("a", "b", "c")],
        context=PlanContext(),
    )


class TestPlanRunner:
    def test_runs_stages_in_order_with_reports(self):
        trace = []
        plan = _toy_plan(trace)
        PlanRunner().run(plan)
        assert trace == ["a", "b", "c"]
        assert plan.completed == ["a", "b", "c"]
        assert plan.is_complete
        assert all(r.wall_time >= 0 for r in plan.reports)
        assert plan.report_for("b").info == {"step": "b"}

    def test_until_stops_after_named_stage(self):
        trace = []
        plan = _toy_plan(trace)
        PlanRunner().run(plan, until="b")
        assert trace == ["a", "b"]
        assert plan.completed == ["a", "b"]
        assert not plan.is_complete

    def test_resume_skips_completed_stages(self):
        trace = []
        plan = _toy_plan(trace)
        PlanRunner().run(plan, until="b")
        PlanRunner().run(plan)  # resumes: only "c" runs
        assert trace == ["a", "b", "c"]
        assert plan.is_complete

    def test_reset_allows_replay(self):
        trace = []
        plan = _toy_plan(trace)
        PlanRunner().run(plan)
        plan.reset()
        PlanRunner().run(plan)
        assert trace == ["a", "b", "c", "a", "b", "c"]

    def test_unknown_until_raises(self):
        plan = _toy_plan([])
        with pytest.raises(ValueError, match="unknown stage"):
            PlanRunner().run(plan, until="nope")

    def test_duplicate_stage_names_rejected(self):
        s = Stage("dup", lambda ctx: None)
        with pytest.raises(ValueError, match="unique"):
            ExecutionPlan(kind="fit", stages=[s, s], context=PlanContext())

    def test_non_dict_stage_return_rejected(self):
        plan = ExecutionPlan(
            kind="fit",
            stages=[Stage("bad", lambda ctx: 42)],
            context=PlanContext(),
        )
        with pytest.raises(TypeError, match="dict or None"):
            PlanRunner().run(plan)


# ---------------------------------------------------------------------------
# The wave runner on a fake wave: forecast -> assign -> execute ->
# observe -> assemble, with nothing of SUOD around it
# ---------------------------------------------------------------------------
class FakeWave(Wave):
    """Six tasks returning their own index; records what it was asked."""

    name = "fake"
    n_tasks = 6

    def __init__(self, interpreter_bound=False):
        self.interpreter_bound = interpreter_bound
        self.forecasts = 0
        self.assembled = None

    def task_keys(self):
        return [("fake", i % 3) for i in range(6)]

    def task_weights(self):
        return np.arange(1.0, 7.0)

    def costs(self):
        self.forecasts += 1
        return [6, 5, 4, 3, 2, 1]

    def tasks(self, data):
        return [functools.partial(int, data[i]) for i in range(6)]

    def assemble(self, results):
        self.assembled = list(results)
        return {"checksum": sum(results)}


class RecordingScheduler(Scheduler):
    """Deals tasks round-robin from the last worker down."""

    name = "recording"
    adaptive = True

    def __init__(self, uses_costs):
        self.uses_costs = uses_costs
        self.assign_calls, self.observe_calls = [], []

    def assign(self, n_tasks, n_workers, costs=None, *, task_keys=None, weights=None):
        self.assign_calls.append((n_tasks, n_workers, costs, task_keys, weights))
        return (n_workers - 1) - np.arange(n_tasks) % n_workers

    def observe(self, durations, *, task_keys=None, weights=None):
        self.observe_calls.append((durations, task_keys, weights))
        return len(durations)


class TestWaveRun:
    DATA = ["10", "11", "12", "13", "14", "15"]

    def test_assignment_respected_results_stripped_and_observed(self):
        wave, scheduler = FakeWave(), RecordingScheduler(uses_costs=True)
        run = WaveRun(wave, get_backend("simulated", n_workers=3), scheduler)
        assert (run.n_workers, run.policy) == (3, "recording")
        np.testing.assert_array_equal(run.forecast(), [6.0, 5, 4, 3, 2, 1])
        np.testing.assert_array_equal(run.schedule(), [2, 1, 0, 2, 1, 0])
        [(n_tasks, n_workers, costs, keys, weights)] = scheduler.assign_calls
        assert (n_tasks, n_workers, keys) == (6, 3, wave.task_keys())
        assert costs is run.costs and wave.forecasts == 1
        np.testing.assert_array_equal(weights, wave.task_weights())

        ledger = run.run(self.DATA)
        assert wave.assembled == [10, 11, 12, 13, 14, 15]
        assert run.result.results == [None] * 6  # stripped once assembled
        # The simulated backend's virtual workers follow the assignment.
        times = run.result.task_times
        np.testing.assert_allclose(
            run.result.worker_times,
            [times[2] + times[5], times[1] + times[4], times[0] + times[3]],
        )
        [(durations, keys, weights)] = scheduler.observe_calls
        assert durations is times and keys == wave.task_keys()
        assert ledger == {
            "tasks": 6,
            "checksum": 75,
            "tasks_per_worker": [2, 2, 2],
            "wave_wall_s": run.result.wall_time,
            "execution": run.result,
            "telemetry_observed": 6,
        }

    def test_cost_blind_scheduler_gets_no_costs(self):
        wave, scheduler = FakeWave(), RecordingScheduler(uses_costs=False)
        run = WaveRun(wave, get_backend("simulated", n_workers=2), scheduler)
        assert run.forecast() is None
        run.schedule()
        assert scheduler.assign_calls[0][2] is None
        assert wave.forecasts == 0

    @pytest.mark.parametrize(
        "backend,interpreter_bound,n_workers",
        [
            ("threads", True, 1),  # GIL-bound tasks on GIL-sharing workers
            ("threads", False, 3),
            ("simulated", True, 3),
            ("sequential", False, 1),
        ],
    )
    def test_single_worker_rule(self, backend, interpreter_bound, n_workers):
        wave, scheduler = FakeWave(interpreter_bound), RecordingScheduler(True)
        pool = get_backend(backend, n_workers=1 if backend == "sequential" else 3)
        run = WaveRun(wave, pool, scheduler)
        assert run.n_workers == n_workers_for(wave, pool) == n_workers
        run.forecast()
        run.schedule()
        ledger = run.run(self.DATA)
        assert wave.assembled == [10, 11, 12, 13, 14, 15]
        assert len(ledger["tasks_per_worker"]) == n_workers
        assert run.result.worker_times.shape == (n_workers,)
        if n_workers == 1:
            # Nothing forecast, nothing asked of the scheduler.
            assert run.policy == "single-worker" and run.costs is None
            assert wave.forecasts == 0 and scheduler.assign_calls == []
            assert not run.assignment.any()
        # Measured durations still feed a multi-worker backend's scheduler.
        assert len(scheduler.observe_calls) == (pool.n_workers > 1)


# ---------------------------------------------------------------------------
# SUOD plans: structure, partial runs, telemetry
# ---------------------------------------------------------------------------
class TestSuodPlans:
    def test_fit_plan_stage_sequence(self, data):
        Xtr, _ = data
        plan = SUOD(make_pool(), random_state=0).build_fit_plan(Xtr)
        assert plan.kind == "fit"
        assert plan.stage_names == [
            "project",
            "forecast",
            "share",
            "schedule",
            "execute",
            "approximate",
            "combine",
        ]
        assert plan.meta["grain"] == "model"
        assert plan.completed == []

    def test_partial_fit_plan_previews_assignment_without_fitting(self, data):
        Xtr, _ = data
        clf = SUOD(make_pool(), n_jobs=3, backend="threads", random_state=0)
        plan = clf.build_fit_plan(Xtr)
        PlanRunner().run(plan, until="schedule")
        assert plan.completed == ["project", "forecast", "share", "schedule"]
        assert not hasattr(clf, "base_estimators_")  # nothing trained
        a = plan.context.assignment
        assert a.shape == (clf.n_models,)
        assert plan.context.costs.shape == (clf.n_models,)
        rows = plan.assignment_rows()
        assert len(rows) == clf.n_models
        assert {"task", "worker", "forecast_cost"} <= set(rows[0])
        assert len(plan.worker_rows()) == 3
        # Resuming the same plan completes the fit.
        PlanRunner().run(plan)
        assert hasattr(clf, "base_estimators_")
        assert plan.is_complete

    def test_fit_records_plan_and_execution_telemetry(self, data):
        Xtr, _ = data
        clf = SUOD(
            make_pool(), n_jobs=2, backend="work_stealing", random_state=0
        ).fit(Xtr)
        plan = clf.fit_plan_
        assert plan.is_complete
        execute = plan.report_for("execute")
        assert execute.execution is clf.fit_result_
        assert execute.worker_times.shape == (2,)
        assert plan.total_wall_time >= execute.wall_time
        # The PSA wave is the plan's second backend-run stage.
        assert plan.report_for("approximate").execution is clf.approx_result_
        merged = plan.merged_execution()
        assert merged.wall_time == pytest.approx(
            clf.fit_result_.wall_time + clf.approx_result_.wall_time
        )

    def test_predict_plan_chunked_grain(self, data):
        Xtr, Xte = data
        clf = SUOD(
            make_pool(),
            n_jobs=2,
            backend="threads",
            batch_size=32,
            random_state=0,
        ).fit(Xtr)
        plan = clf.build_predict_plan(Xte)
        assert plan.meta["grain"] == "model x chunk"
        assert plan.meta["n_tasks"] == clf.n_models * 3  # ceil(90/32)
        PlanRunner().run(plan)
        assert plan.context.matrix.shape == (clf.n_models, Xte.shape[0])
        assert plan.context.scores.shape == (Xte.shape[0],)

    def test_plan_to_dict_is_json_serialisable(self, data):
        Xtr, _ = data
        clf = SUOD(make_pool(), n_jobs=2, backend="threads", random_state=0)
        plan = clf.build_fit_plan(Xtr)
        PlanRunner().run(plan, until="schedule")
        payload = json.loads(json.dumps(plan.to_dict()))
        assert payload["kind"] == "fit"
        assert [s["name"] for s in payload["stages"]] == plan.stage_names
        assert payload["stages"][4]["status"] == "pending"
        assert len(payload["assignment"]) == clf.n_models
        assert len(payload["forecast_costs"]) == clf.n_models

    def test_describe_marks_pending_stages(self, data):
        Xtr, _ = data
        plan = SUOD(make_pool(), random_state=0).build_fit_plan(Xtr)
        rows = plan.describe()
        assert all(r["status"] == "pending" for r in rows)
        PlanRunner().run(plan, until="project")
        rows = plan.describe()
        assert rows[0]["status"] == "done" and rows[1]["status"] == "pending"

    def test_merged_telemetry_over_fit_and_predict(self, data):
        Xtr, Xte = data
        clf = SUOD(
            make_pool(), n_jobs=2, backend="work_stealing", random_state=0
        ).fit(Xtr)
        clf.decision_function(Xte)
        merged = clf.merged_telemetry()
        assert isinstance(merged, ExecutionResult)
        assert merged.wall_time == pytest.approx(
            clf.fit_result_.wall_time
            + clf.approx_result_.wall_time
            + clf.predict_result_.wall_time
        )
        assert merged.worker_times.shape == (2,)
        assert merged.steal_counts.shape == (2,)
        assert merged.idle_times.shape == (2,)
        assert merged.total_steals == (
            clf.fit_result_.total_steals + clf.predict_result_.total_steals
        )
        n_approx_tasks = len(clf.approx_result_.results)
        assert n_approx_tasks == int(clf.approx_flags_.sum())
        assert len(merged.results) == 2 * clf.n_models + n_approx_tasks

    def test_replayed_fit_plan_reproduces_scores_bitwise(self, data):
        Xtr, _ = data
        clf = SUOD(make_pool(), random_state=0)
        plan = clf.build_fit_plan(Xtr)
        PlanRunner().run(plan)
        first = clf.decision_scores_.copy()
        plan.reset()
        PlanRunner().run(plan)
        # Seed draws are cached on the context, so the replay rebuilds
        # identical projectors/approximators instead of advancing the rng.
        np.testing.assert_array_equal(clf.decision_scores_, first)

    def test_facade_releases_plan_data_but_keeps_telemetry(self, data):
        Xtr, Xte = data
        clf = SUOD(make_pool(), n_jobs=2, backend="threads", random_state=0).fit(Xtr)
        clf.decision_function(Xte)
        for plan in (clf.fit_plan_, clf.predict_plan_):
            assert plan.report_for("execute") is not None
            assert "X" not in plan.context
            assert "spaces" not in plan.context
            assert "matrix" not in plan.context
            assert "scores" not in plan.context
            # Scheduling telemetry survives for inspection.
            assert plan.context.get("assignment") is not None
            assert plan.assignment_rows()
        # A released plan cannot be replayed or resumed.
        with pytest.raises(RuntimeError, match="released"):
            clf.fit_plan_.reset()
        clf.decision_function_matrix(Xte)  # partial (until execute) + released
        with pytest.raises(RuntimeError, match="released"):
            PlanRunner().run(clf.predict_plan_)

    def test_verbose_runner_prints_stages(self, data, capsys):
        Xtr, _ = data
        plan = SUOD(make_pool(), random_state=0).build_fit_plan(Xtr)
        PlanRunner(verbose=True).run(plan, until="schedule")
        out = capsys.readouterr().out
        assert "[plan:fit] project" in out
        assert "[plan:fit] schedule" in out


# ---------------------------------------------------------------------------
# The regression pin: planned pipeline == pre-refactor monolith, bitwise
# ---------------------------------------------------------------------------
def _reference_scores(pool, Xtr, Xte, random_state=0):
    """The pre-refactor fit/predict orchestration, as straight-line code.

    Mirrors the monolithic ``SUOD.fit``/``decision_function`` bodies
    before the plan refactor (sequential execution; scores never
    depended on the backend): RP per model, fit, PSA, ECDF standardise
    against train, average-combine.
    """
    from repro.core.approximation import fit_approximators
    from repro.core.suod import RP_NG_FAMILIES
    from repro.combination import ecdf_standardise
    from repro.detectors.registry import family_of, is_costly
    from repro.projection import JLProjector, NoProjection, jl_target_dim
    from repro.supervised import RandomForestRegressor
    from repro.utils.random import check_random_state, spawn_seeds

    X = np.asarray(Xtr, dtype=np.float64)
    n, d = X.shape
    rng = check_random_state(random_state)
    m = len(pool)
    seeds = spawn_seeds(rng, 2 * m)
    k = jl_target_dim(d, 2.0 / 3.0)
    projectors = []
    for i, est in enumerate(pool):
        use_rp = (family_of(est) not in RP_NG_FAMILIES and d >= 4 and n >= 30 and k < d)
        proj = (
            JLProjector(k, family="toeplitz", random_state=seeds[i])
            if use_rp
            else NoProjection()
        )
        projectors.append(proj.fit(X))
    spaces = [proj.transform(X) for proj in projectors]
    for i, est in enumerate(pool):
        if hasattr(est, "random_state") and est.random_state is None:
            est.random_state = seeds[m + i]
    fitted = [est.fit(spaces[i]) for i, est in enumerate(pool)]
    regressor = RandomForestRegressor(random_state=spawn_seeds(rng, 1)[0])
    approximators = fit_approximators(
        fitted,
        spaces,
        regressor=regressor,
        approx_flags=[is_costly(est) for est in fitted],
    )
    train_matrix = np.stack([est.decision_scores_ for est in fitted])

    Xte = np.asarray(Xte, dtype=np.float64)
    te_spaces = [proj.transform(Xte) for proj in projectors]
    te_matrix = np.stack(
        [a.decision_function(te_spaces[i]) for i, a in enumerate(approximators)]
    )
    unified = ecdf_standardise(te_matrix, ref=train_matrix)
    return unified.mean(axis=0)


class TestScoreRegression:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_jobs=1, backend="sequential"),
            dict(n_jobs=3, backend="threads"),
            dict(n_jobs=3, backend="work_stealing"),
            dict(n_jobs=3, backend="work_stealing", batch_size=32),
        ],
        ids=["sequential", "threads", "work_stealing", "ws_chunked"],
    )
    def test_planned_pipeline_matches_monolith_bitwise(self, data, kwargs):
        Xtr, Xte = data
        expected = _reference_scores(make_pool(), Xtr, Xte, random_state=0)
        clf = SUOD(make_pool(), random_state=0, **kwargs).fit(Xtr)
        np.testing.assert_array_equal(clf.decision_function(Xte), expected)

    def test_backends_agree_bitwise_on_train_scores(self, data):
        Xtr, _ = data
        score_sets = [
            SUOD(make_pool(), random_state=0, **kw).fit(Xtr).decision_scores_
            for kw in (
                dict(n_jobs=1),
                dict(n_jobs=3, backend="threads"),
                dict(n_jobs=3, backend="work_stealing"),
            )
        ]
        np.testing.assert_array_equal(score_sets[0], score_sets[1])
        np.testing.assert_array_equal(score_sets[0], score_sets[2])


class TestStageTaskTimes:
    """Per-task durations fold from ExecutionResult into stage reports."""

    def test_execute_report_exposes_task_times(self, data):
        Xtr, _ = data
        clf = SUOD(make_pool(), n_jobs=2, backend="threads", random_state=0).fit(Xtr)
        report = clf.fit_plan_.report_for("execute")
        assert report.task_times.shape == (clf.n_models,)
        assert np.all(report.task_times > 0.0)
        assert report.total_task_time == pytest.approx(report.task_times.sum())
        payload = report.to_dict()
        assert len(payload["execution"]["task_times"]) == clf.n_models

    def test_non_execution_report_has_empty_task_times(self, data):
        Xtr, _ = data
        clf = SUOD(make_pool(), n_jobs=2, backend="threads", random_state=0).fit(Xtr)
        report = clf.fit_plan_.report_for("schedule")
        assert report.task_times.size == 0
        assert report.total_task_time == 0.0
        assert "execution" not in report.to_dict()

    def test_merged_execution_concatenates_task_times(self, data):
        Xtr, Xte = data
        clf = SUOD(make_pool(), n_jobs=2, backend="threads", random_state=0).fit(Xtr)
        clf.decision_function(Xte)
        merged = clf.merged_telemetry()
        n_approx_tasks = clf.approx_result_.task_times.size
        assert merged.task_times.shape == (2 * clf.n_models + n_approx_tasks,)
