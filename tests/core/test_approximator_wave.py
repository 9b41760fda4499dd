"""PSA on the parallel plane: the (model × tree-block) approximator wave.

The contract under test: however the ``approximate`` stage cuts the
forests into blocks, schedules them and collects them, the fitted
approximators are bitwise the ones the serial
:func:`~repro.core.approximation.fit_approximators` loop trains — every
tree array, ``feature_importances_`` and every prediction.
"""

import os
import pickle
import time

import numpy as np
import pytest

from repro import SUOD
from repro.core.approximation import (
    Approximator,
    ApproximatorWave,
    fit_approximators,
    tree_blocks_per_model,
)
from repro.data import make_outlier_dataset
from repro.detectors import HBOS, KNN, LOF, AvgKNN
from repro.detectors.registry import is_costly
from repro.metrics import spearmanr
from repro.parallel import get_backend
from repro.pipeline import PlanRunner
from repro.neighbors import build_shared_index, fused_neighbor_query
from repro.scheduling import forecast_approximator_fit, forecast_shared_query
from repro.supervised import RandomForestRegressor, Ridge

SHM_DIR = "/dev/shm"
needs_shm_fs = pytest.mark.skipif(
    not os.path.isdir(SHM_DIR), reason="no /dev/shm on this platform"
)
TREE_ARRAYS = ("feature_", "threshold_", "children_left_", "children_right_", "value_")

BACKENDS = ("sequential", "threads", "work_stealing", "processes", "shm_processes")
#: Backends whose workers are separate interpreters: the wave spreads
#: over all of them. Thread backends run it as one worker's queue.
SPREADING = ("processes", "shm_processes")


def shm_segments() -> set:
    return {f for f in os.listdir(SHM_DIR) if f.startswith("repro_shm_")}


def make_pool():
    return [KNN(n_neighbors=6), LOF(n_neighbors=9), AvgKNN(n_neighbors=7), HBOS()]


def small_forest(**kwargs):
    return RandomForestRegressor(n_estimators=9, random_state=11, **kwargs)


@pytest.fixture(scope="module")
def data():
    Xtr, _ = make_outlier_dataset(160, 8, contamination=0.1, random_state=5)
    Xte, _ = make_outlier_dataset(70, 8, contamination=0.1, random_state=6)
    return Xtr, Xte


def oracle_for(clf, Xtr, regressor):
    """``fit_approximators`` on the estimator's own detectors and spaces."""
    spaces = [proj.transform(Xtr) for proj in clf.projectors_]
    return fit_approximators(
        clf.base_estimators_,
        spaces,
        regressor=regressor,
        approx_flags=[is_costly(est) for est in clf.base_estimators_],
    )


def assert_same_approximators(got, expected, spaces_te):
    assert len(got) == len(expected)
    for a, b, X in zip(got, expected, spaces_te):
        assert a.approximated == b.approximated
        if not a.approximated:
            continue
        if hasattr(b.regressor_, "estimators_"):
            assert len(a.regressor_.estimators_) == len(b.regressor_.estimators_)
            for t, u in zip(a.regressor_.estimators_, b.regressor_.estimators_):
                for name in TREE_ARRAYS:
                    # equal_nan: leaves carry a NaN threshold.
                    assert np.array_equal(
                        getattr(t, name), getattr(u, name), equal_nan=True
                    ), name
            assert np.array_equal(
                a.regressor_.feature_importances_, b.regressor_.feature_importances_
            )
        assert np.array_equal(a.decision_function(X), b.decision_function(X))


# ---------------------------------------------------------------------------
# The parity matrix: backends × n_jobs (block counts derive from both)
# ---------------------------------------------------------------------------
class TestParityMatrix:
    @pytest.mark.parametrize(
        "backend,n_jobs",
        # 'sequential' is single-worker by definition.
        [(b, j) for b in BACKENDS for j in (1, 2, 3) if b != "sequential" or j == 1],
    )
    def test_wave_matches_serial_oracle(self, data, backend, n_jobs):
        Xtr, Xte = data
        clf = SUOD(
            make_pool(),
            n_jobs=n_jobs,
            backend=backend,
            approx_clf=small_forest(),
            random_state=2,
        )
        try:
            clf.fit(Xtr)
        finally:
            clf.close()
        info = clf.fit_plan_.report_for("approximate").info
        spreads = n_jobs > 1 and backend in SPREADING
        blocks = tree_blocks_per_model(3, n_jobs) if spreads else 1
        assert info["n_approximated"] == 3
        assert info["blocks_per_model"] == blocks
        assert info["tasks"] == 3 * blocks
        assert len(info["tasks_per_worker"]) == (n_jobs if spreads else 1)
        assert sum(info["tasks_per_worker"]) == info["tasks"]

        expected = oracle_for(clf, Xtr, small_forest())
        spaces_te = [proj.transform(Xte) for proj in clf.projectors_]
        assert_same_approximators(clf.approximators_, expected, spaces_te)

    def test_default_seeded_forest_matches_oracle(self, data):
        Xtr, Xte = data
        clf = SUOD(make_pool(), n_jobs=2, backend="processes", random_state=2)
        clf.fit(Xtr)
        seed = clf.fit_plan_.context.approx_seed
        expected = oracle_for(clf, Xtr, RandomForestRegressor(random_state=seed))
        spaces_te = [proj.transform(Xte) for proj in clf.projectors_]
        assert_same_approximators(clf.approximators_, expected, spaces_te)

    def test_fit_outputs_equal_across_worker_counts(self, data):
        Xtr, Xte = data
        outs = []
        for n_jobs in (1, 2, 3):
            clf = SUOD(
                make_pool(), n_jobs=n_jobs, backend="shm_processes", random_state=4
            )
            try:
                clf.fit(Xtr)
                outs.append(
                    (clf.decision_scores_, clf.threshold_, clf.decision_function(Xte))
                )
            finally:
                clf.close()
        for scores, threshold, test_scores in outs[1:]:
            assert np.array_equal(scores, outs[0][0])
            assert threshold == outs[0][1]
            assert np.array_equal(test_scores, outs[0][2])


# ---------------------------------------------------------------------------
# The wave object itself: any worker count, any assignment, any backend
# ---------------------------------------------------------------------------
class TestApproximatorWave:
    @pytest.fixture(scope="class")
    def fitted(self, data):
        Xtr, _ = data
        return [
            KNN(n_neighbors=6).fit(Xtr),
            LOF(n_neighbors=9).fit(Xtr),
            HBOS().fit(Xtr),
        ]

    def _wave(self, fitted, Xtr, regressor, n_workers):
        approximators = [
            Approximator(det, regressor, enabled=is_costly(det)) for det in fitted
        ]
        return approximators, ApproximatorWave(approximators, [Xtr] * 3, n_workers)

    @pytest.mark.parametrize("n_workers", [1, 2, 3, 4, 5, 7, 16])
    @pytest.mark.parametrize("backend", ["sequential", "threads", "work_stealing"])
    def test_any_block_count_and_assignment(self, data, fitted, backend, n_workers):
        Xtr, Xte = data
        approximators, wave = self._wave(fitted, Xtr, small_forest(), n_workers)
        blocks = min(tree_blocks_per_model(2, n_workers), 9)  # 9 trees at most
        assert wave.n_tasks == 2 * blocks
        assert [hi - lo for _i, lo, hi in wave.owners if _i == 0] == [
            9 * (j + 1) // blocks - 9 * j // blocks for j in range(blocks)
        ]
        # A scrambled assignment: completion order must not matter.
        rng = np.random.default_rng(n_workers)
        if backend == "sequential":
            pool, assignment = get_backend("sequential"), None
        else:
            pool = get_backend(backend, n_workers=n_workers)
            assignment = rng.integers(0, n_workers, size=wave.n_tasks)
        result = pool.execute(wave.tasks([Xtr] * 3), assignment)
        result.raise_first_error()
        wave.assemble(result.results)
        expected = fit_approximators(fitted, Xtr, regressor=small_forest())
        assert_same_approximators(approximators, expected, [Xte] * 3)

    def test_block_count_rule(self):
        # One worker, or a model count the workers divide: whole forests.
        assert [tree_blocks_per_model(m, 1) for m in (1, 5, 9)] == [1, 1, 1]
        assert tree_blocks_per_model(8, 2) == 1
        assert tree_blocks_per_model(9, 3) == 1
        # Otherwise the smallest count that lets equal forests split evenly.
        assert tree_blocks_per_model(9, 2) == 2
        assert tree_blocks_per_model(1, 4) == 4
        assert tree_blocks_per_model(6, 4) == 2
        assert tree_blocks_per_model(0, 4) == 1

    def test_costs_and_weights_follow_block_sizes(self, data, fitted):
        Xtr, _ = data
        _, wave = self._wave(fitted, Xtr, small_forest(), 4)
        costs, weights = wave.costs(), wave.task_weights()
        sizes = np.array([hi - lo for _i, lo, hi in wave.owners], dtype=float)
        assert costs.shape == weights.shape == (wave.n_tasks,)
        assert np.allclose(costs / costs[0], sizes / sizes[0])
        assert np.array_equal(weights, sizes * Xtr.shape[0])

    def test_misaligned_space_is_rejected_up_front(self, data, fitted):
        Xtr, _ = data
        approximators = [Approximator(det, small_forest()) for det in fitted[:1]]
        with pytest.raises(ValueError, match="not aligned"):
            ApproximatorWave(approximators, [Xtr[:-3]], 2)


# ---------------------------------------------------------------------------
# Fallback paths
# ---------------------------------------------------------------------------
class TestFallbacks:
    @pytest.mark.parametrize("backend,n_jobs", [("sequential", 1), ("processes", 2)])
    def test_regressor_without_block_support_gets_one_task_per_model(
        self, data, backend, n_jobs
    ):
        Xtr, Xte = data
        clf = SUOD(
            make_pool(),
            n_jobs=n_jobs,
            backend=backend,
            approx_clf=Ridge(alpha=0.5),
            random_state=2,
        ).fit(Xtr)
        info = clf.fit_plan_.report_for("approximate").info
        assert info["tasks"] == 3 and info["blocks_per_model"] == 1
        expected = oracle_for(clf, Xtr, Ridge(alpha=0.5))
        spaces_te = [proj.transform(Xte) for proj in clf.projectors_]
        assert_same_approximators(clf.approximators_, expected, spaces_te)
        for a, b in zip(clf.approximators_, expected):
            if a.approximated:
                assert np.array_equal(a.regressor_.coef_, b.regressor_.coef_)

    def test_oob_forest_is_fitted_whole(self, data):
        Xtr, Xte = data
        proto = RandomForestRegressor(n_estimators=12, oob_score=True, random_state=3)
        clf = SUOD(
            make_pool(), n_jobs=2, backend="processes", approx_clf=proto, random_state=2
        ).fit(Xtr)
        info = clf.fit_plan_.report_for("approximate").info
        # Not 6 tasks: out-of-bag scoring couples the trees.
        assert info["tasks"] == 3 and info["blocks_per_model"] == 1
        expected = oracle_for(clf, Xtr, proto)
        spaces_te = [proj.transform(Xte) for proj in clf.projectors_]
        assert_same_approximators(clf.approximators_, expected, spaces_te)
        for a, b in zip(clf.approximators_, expected):
            if a.approximated:
                assert a.regressor_.oob_score_ == b.regressor_.oob_score_

    def test_psa_off_runs_no_wave(self, data):
        Xtr, _ = data
        clf = SUOD(
            make_pool(),
            n_jobs=2,
            backend="threads",
            approx_flag_global=False,
            random_state=2,
        ).fit(Xtr)
        report = clf.fit_plan_.report_for("approximate")
        assert report.info == {"n_approximated": 0}
        assert report.execution is None
        assert clf.approx_result_ is None
        assert not clf.approx_flags_.any()

    def test_pool_without_costly_models_runs_no_wave(self, data):
        Xtr, _ = data
        clf = SUOD([HBOS(), HBOS(n_bins=20)], n_jobs=2, backend="threads").fit(Xtr)
        assert clf.fit_plan_.report_for("approximate").execution is None
        assert clf.approx_result_ is None


# ---------------------------------------------------------------------------
# Resumption (a failing PSA block: tests/pipeline/test_sharing.py, with
# every other wave's failure path)
# ---------------------------------------------------------------------------
class TestFailureAndResume:
    @needs_shm_fs
    @pytest.mark.parametrize(
        "backend,n_jobs", [("sequential", 1), ("shm_processes", 2)]
    )
    def test_stop_after_approximate_then_resume(self, data, backend, n_jobs):
        Xtr, Xte = data
        before = shm_segments()
        kwargs = dict(n_jobs=n_jobs, backend=backend, random_state=4)
        straight = SUOD(make_pool(), **kwargs)
        staged = SUOD(make_pool(), **kwargs)
        try:
            straight.fit(Xtr)
            plan = staged.build_fit_plan(Xtr)
            runner = PlanRunner()
            runner.run(plan, until="execute")
            assert not hasattr(staged, "approximators_")
            runner.run(plan, until="approximate")
            assert plan.completed[-1] == "approximate"
            assert staged.approx_flags_.sum() == 3
            assert not hasattr(staged, "decision_scores_")
            if backend == "shm_processes":
                # The arena outlives the stage until the plan completes.
                assert plan.context.get("arena") is not None
            runner.run(plan)
            assert plan.is_complete
            plan.release_data()
            assert np.array_equal(staged.decision_scores_, straight.decision_scores_)
            assert np.array_equal(
                staged.decision_function(Xte), straight.decision_function(Xte)
            )
        finally:
            straight.close()
            staged.close()
        assert shm_segments() == before

    def test_replayed_plan_reproduces_the_wave(self, data):
        Xtr, _ = data
        clf = SUOD(make_pool(), n_jobs=2, backend="processes", random_state=4)
        plan = clf.build_fit_plan(Xtr)
        PlanRunner().run(plan)
        first = [
            t.value_.copy()
            for a in clf.approximators_
            if a.approximated
            for t in a.regressor_.estimators_
        ]
        plan.reset()
        PlanRunner().run(plan)
        again = [
            t.value_
            for a in clf.approximators_
            if a.approximated
            for t in a.regressor_.estimators_
        ]
        assert len(first) == len(again)
        assert all(np.array_equal(a, b) for a, b in zip(first, again))


# ---------------------------------------------------------------------------
# Scheduling, telemetry and pickle hygiene
# ---------------------------------------------------------------------------
class TestTelemetry:
    def test_wave_result_and_fit_result_stay_separate(self, data):
        Xtr, _ = data
        clf = SUOD(make_pool(), n_jobs=2, backend="processes", random_state=2).fit(Xtr)
        assert clf.fit_result_.task_times.shape == (clf.n_models,)
        report = clf.fit_plan_.report_for("approximate")
        assert report.execution is clf.approx_result_
        assert clf.approx_result_.task_times.shape == (report.info["tasks"],)
        assert clf.approx_result_.worker_times.shape == (2,)
        assert clf.approx_assignment_.shape == (report.info["tasks"],)
        assert report.info["wave_wall_s"] == clf.approx_result_.wall_time
        # Results hold whole tree lists: nulled once assembled.
        assert clf.approx_result_.results == [None] * report.info["tasks"]
        assert report.to_dict()["execution"]["n_tasks"] == report.info["tasks"]

    def test_adaptive_scheduler_observes_the_wave_under_its_own_keys(self, data):
        Xtr, _ = data
        clf = SUOD(
            make_pool(),
            n_jobs=2,
            backend="processes",
            scheduler="adaptive",
            random_state=2,
        ).fit(Xtr)
        model = clf._make_scheduler().cost_model
        costly = [i for i, flag in enumerate(clf.approx_flags_) if flag]
        assert model.has_observations([("fit-approx", i) for i in costly])
        assert not model.has_observations([("fit-approx", 3)])  # HBOS
        info = clf.fit_plan_.report_for("approximate").info
        assert info["telemetry_observed"] == info["tasks"]

    def test_cost_blind_scheduler_still_assigns_the_wave(self, data):
        Xtr, _ = data
        clf = SUOD(
            make_pool(), n_jobs=2, backend="processes", bps_flag=False, random_state=2
        ).fit(Xtr)
        info = clf.fit_plan_.report_for("approximate").info
        assert info["tasks_per_worker"] == [3, 3]

    def test_merged_telemetry_covers_every_wave(self):
        # One shared unprojected space: the share stage adds a producer
        # wave to both plans, PSA adds the approximator wave to the fit.
        X, _ = make_outlier_dataset(300, 6, contamination=0.1, random_state=1)
        pool = [KNN(n_neighbors=5), LOF(n_neighbors=8), AvgKNN(n_neighbors=6)]
        clf = SUOD(
            pool, n_jobs=2, backend="threads", rp_flag_global=False, random_state=0
        ).fit(X)
        clf.decision_function(X[:40])
        fit_info = clf.fit_plan_.report_for("execute").info
        assert fit_info["sharing"]["producers"] == 1
        merged = clf.merged_telemetry()
        n_approx = clf.approx_result_.task_times.size
        # fit: 1 producer + 3 detectors + PSA tasks; predict: 3 scorers
        # (approximators answer, so no neighbor query is left to share).
        predict = clf.predict_plan_.report_for("execute").execution
        assert merged.task_times.size == 1 + 3 + n_approx + predict.task_times.size
        assert merged.wall_time == pytest.approx(
            clf.fit_plan_.report_for("execute").execution.wall_time
            + clf.approx_result_.wall_time
            + predict.wall_time
        )
        assert merged.wall_time > (
            clf.fit_result_.wall_time + clf.approx_result_.wall_time
        )

    def test_pickle_drops_the_wave_result_and_does_not_grow(self, data):
        Xtr, _ = data
        serial = SUOD(make_pool(), n_jobs=1, random_state=2).fit(Xtr)
        wave = SUOD(make_pool(), n_jobs=3, backend="processes", random_state=2).fit(Xtr)
        state = wave.__getstate__()
        assert "approx_result_" not in state
        assert "fit_result_" not in state
        size_serial = len(pickle.dumps(serial))
        size_wave = len(pickle.dumps(wave))
        # Same forests either way; only the small assignment vectors differ.
        assert abs(size_wave - size_serial) < 0.01 * size_serial
        clone = pickle.loads(pickle.dumps(wave))
        assert np.array_equal(clone.decision_function(Xtr), wave.decision_function(Xtr))


# ---------------------------------------------------------------------------
# The analytic forecast ranks measured block times
# ---------------------------------------------------------------------------
def test_forecast_rank_correlates_with_measured_block_times():
    rng = np.random.default_rng(0)
    forecasts, measured = [], []
    for n in (60, 300, 1200):
        for d in (4, 36, 100):
            X = rng.standard_normal((n, d))
            # A distance-like pseudo target, as a proximity detector emits.
            y = np.sqrt((X[:, :3] ** 2).sum(axis=1)) + 0.1 * rng.standard_normal(n)
            for n_estimators in (2, 10):
                forest = RandomForestRegressor(
                    n_estimators=n_estimators, random_state=0
                )
                seeds = forest.tree_seeds()
                best = np.inf
                for _ in range(2):
                    t0 = time.perf_counter()
                    forest.fit_block(X, y, seeds)
                    best = min(best, time.perf_counter() - t0)
                measured.append(best)
                forecasts.append(
                    forecast_approximator_fit(
                        n, d, n_estimators, forest.max_depth, forest.max_features
                    )
                )
    assert spearmanr(forecasts, measured) >= 0.8


def test_shared_query_forecast_rank_correlates_with_measured_producer_times():
    # A fit-plan share producer is one KD-tree build plus one fused
    # self-query. The (n, d, width) grid crosses the kernel's engine
    # rule: d=2 at n=4000 runs the pruned sweep, the rest the
    # filter-refine scan.
    rng = np.random.default_rng(0)
    grid = [
        (rng.standard_normal((n, d)), ks)
        for n in (300, 1200, 4000)
        for d in (2, 6, 12)
        for ks in ((5,), (10, 40))
    ]

    def produce(X, ks):
        fused_neighbor_query(build_shared_index(X), X, ks, cover_self=True)

    # One untimed pass: a cold process's first multi-threaded GEMMs
    # stall ~15 ms each, ten times the small cells' whole run.
    for X, ks in grid:
        produce(X, ks)
    forecasts, measured = [], []
    for X, ks in grid:
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            produce(X, ks)
            best = min(best, time.perf_counter() - t0)
        measured.append(best)
        forecasts.append(forecast_shared_query(len(X), len(X), X.shape[1], max(ks) + 1))
    assert spearmanr(forecasts, measured) >= 0.8


def test_forecast_is_linear_in_trees_and_monotone_in_size():
    base = forecast_approximator_fit(1000, 40, 10, 12, "sqrt")
    doubled = forecast_approximator_fit(1000, 40, 20, 12, "sqrt")
    assert doubled == pytest.approx(2 * base)
    assert forecast_approximator_fit(2000, 40, 10, 12, "sqrt") > base
    assert forecast_approximator_fit(1000, 90, 10, 12, "sqrt") > base
    assert forecast_approximator_fit(1000, 40, 10, None, None) > base
    assert forecast_approximator_fit(1000, 40, 10, 3, "sqrt") < base
