"""SUOD × the scheduling subsystem: pluggable policies + feedback loop."""

import pickle

import numpy as np
import pytest

from repro.core.suod import SUOD
from repro.data import make_outlier_dataset
from repro.detectors import KNN, LOF, AvgKNN, sample_model_pool
from repro.scheduling import (
    AdaptiveScheduler,
    BpsScheduler,
    Scheduler,
    bps_schedule,
    generic_schedule,
)


@pytest.fixture(scope="module")
def data():
    X, _ = make_outlier_dataset(
        n_samples=220, n_features=8, contamination=0.1, random_state=0
    )
    return X


def _pool(m=6):
    return sample_model_pool(m, max_n_neighbors=10, random_state=0)


def _fit(X, **kwargs):
    params = dict(n_jobs=3, backend="threads", random_state=0)
    params.update(kwargs)
    clf = SUOD(_pool(), **params)
    return clf.fit(X)


class TestSchedulerParameter:
    def test_default_is_bps_lpt(self, data):
        clf = _fit(data)
        assert clf.fit_plan_.report_for("schedule").info["policy"] == "bps-lpt"
        assert clf.fit_plan_.meta["scheduler"] == "bps-lpt"

    def test_default_scores_bitwise_equal_to_explicit_bps_lpt(self, data):
        default = _fit(data)
        explicit = _fit(data, scheduler="bps-lpt")
        np.testing.assert_array_equal(
            default.decision_scores_, explicit.decision_scores_
        )
        np.testing.assert_array_equal(default.fit_assignment_, explicit.fit_assignment_)

    def test_bps_flag_false_is_generic(self, data):
        clf = _fit(data, bps_flag=False)
        info = clf.fit_plan_.report_for("schedule").info
        assert info["policy"] == "generic"
        np.testing.assert_array_equal(
            clf.fit_assignment_, generic_schedule(clf.n_models, 3)
        )

    def test_named_policy_controls_assignment(self, data):
        clf = _fit(data, scheduler="generic")
        np.testing.assert_array_equal(
            clf.fit_assignment_, generic_schedule(clf.n_models, 3)
        )

    def test_scheduler_instance_used_as_is(self, data):
        instance = BpsScheduler(method="kk")
        clf = _fit(data, scheduler=instance)
        assert clf._make_scheduler() is instance
        assert clf.fit_plan_.report_for("schedule").info["policy"] == "bps-kk"

    def test_all_policies_produce_identical_scores(self, data):
        # The schedule decides *where* tasks run, never *what* they
        # compute: every policy must yield bitwise-identical scores.
        reference = _fit(data).decision_scores_
        for name in ("generic", "shuffle", "bps-kk", "adaptive"):
            clf = _fit(data, scheduler=name)
            np.testing.assert_array_equal(clf.decision_scores_, reference)

    @pytest.mark.parametrize("name", ["nope", "bps"])
    def test_unknown_name_raises_at_init(self, name):
        with pytest.raises(ValueError, match="Unknown scheduler"):
            SUOD(_pool(), scheduler=name)

    def test_wrong_type_raises_at_init(self):
        with pytest.raises(TypeError, match="scheduler must be"):
            SUOD(_pool(), scheduler=42)

    def test_single_worker_skips_scheduling(self, data):
        clf = SUOD(_pool(), n_jobs=1, scheduler="adaptive", random_state=0).fit(data)
        info = clf.fit_plan_.report_for("schedule").info
        assert info["policy"] == "single-worker"
        assert clf.fit_plan_.meta["scheduler"] == "single-worker"

    def test_repr_shows_scheduler(self):
        assert "scheduler='adaptive'" in repr(SUOD(_pool(), scheduler="adaptive"))
        assert "scheduler='bps-kk'" in repr(
            SUOD(_pool(), scheduler=BpsScheduler(method="kk"))
        )

    def test_cost_blind_policy_skips_forecast(self, data):
        clf = _fit(data, scheduler="generic")
        info = clf.fit_plan_.report_for("forecast").info
        assert info["forecast"] == "skipped"
        assert "ignores costs" in info["reason"]

    def test_scheduler_cache_invalidated_on_param_change(self, data):
        clf = _fit(data)
        first = clf._make_scheduler()
        assert clf._make_scheduler() is first
        clf.scheduler = "generic"
        second = clf._make_scheduler()
        assert second is not first and second.name == "generic"


class TestSuodFeedbackLoop:
    def test_predict_batches_accumulate_observations(self, data):
        clf = _fit(data, scheduler="adaptive")
        scheduler = clf._make_scheduler()
        m = clf.n_models
        # Fit telemetry: ('fit', i) per model + ('fit-approx', i) per
        # approximated model (the PSA wave observes under its own keys).
        fit_keys = m + int(clf.approx_flags_.sum())
        assert scheduler.n_observed == fit_keys
        clf.decision_function(data)
        assert scheduler.n_observed == fit_keys + m  # + ('predict', i) keys
        info = clf.predict_plan_.report_for("execute").info
        assert info["telemetry_observed"] == m
        # Batch 2 schedules on the observed costs.
        clf.decision_function(data)
        sched_info = clf.predict_plan_.report_for("schedule").info
        assert sched_info["policy"] == "adaptive"
        assert sched_info["n_observed"] == fit_keys + m

    def test_execute_stage_counts_every_wave_it_observed(self):
        # Three neighbour detectors on one unprojected space: the share
        # stage adds a one-task producer wave to both plans, and its
        # durations are fed to the scheduler like the detectors' are.
        X, _ = make_outlier_dataset(300, 6, contamination=0.1, random_state=1)
        pool = [KNN(n_neighbors=5), LOF(n_neighbors=8), AvgKNN(n_neighbors=6)]
        clf = SUOD(
            pool,
            n_jobs=2,
            backend="threads",
            scheduler="adaptive",
            rp_flag_global=False,
            approx_flag_global=False,
            random_state=0,
        ).fit(X)
        clf.decision_function(X[:40])
        model = clf._make_scheduler().cost_model
        for plan in (clf.fit_plan_, clf.predict_plan_):
            info = plan.report_for("execute").info
            assert info["sharing"]["producers"] == 1
            assert model.has_observations([(f"{plan.kind}-share", 0)])
            assert info["telemetry_observed"] == 1 + 3

    def test_chunked_tasks_share_model_identity(self, data):
        clf = _fit(data, scheduler="adaptive", backend="work_stealing", batch_size=64)
        clf.decision_function(data)
        scheduler = clf._make_scheduler()
        # Chunk tasks fold into per-model keys, not per-chunk keys.
        assert scheduler.n_observed == 2 * clf.n_models + int(clf.approx_flags_.sum())

    def test_rescheduling_uses_measured_costs(self, data):
        clf = _fit(data, scheduler="adaptive")
        clf.decision_function(data)
        scheduler = clf._make_scheduler()
        m, n = clf.n_models, data.shape[0]
        keys = [("predict", i) for i in range(m)]
        weights = np.full(m, float(n))
        refined = scheduler.cost_model.refine(np.ones(m), keys=keys, weights=weights)
        # All models observed -> refined costs are the measured ones,
        # which actually vary across the heterogeneous pool.
        assert np.all(refined > 0.0)
        assert refined.max() > refined.min()

    def test_static_policies_do_not_observe(self, data):
        clf = _fit(data)
        clf.decision_function(data)
        assert "telemetry_observed" not in clf.predict_plan_.report_for("execute").info

    def test_adaptive_state_survives_pickle(self, data):
        clf = _fit(data, scheduler="adaptive")
        clf.decision_function(data)
        n_before = clf._make_scheduler().n_observed
        clone = pickle.loads(pickle.dumps(clf))
        assert clone._make_scheduler().n_observed == n_before
        # And the clone keeps scoring identically.
        np.testing.assert_array_equal(
            clone.decision_function(data), clf.decision_function(data)
        )

    def test_prewarmed_instance_shared_across_estimators(self, data):
        shared = AdaptiveScheduler(smoothing=1.0)
        _fit(data, scheduler=shared)
        first = shared.n_observed
        assert first > 0
        _fit(data, scheduler=shared)
        assert shared.n_observed == first  # same keys -> same count, refreshed

    def test_scheduler_protocol_subclass_accepted(self, data):
        class RoundRobin(Scheduler):
            name = "round-robin"
            uses_costs = False

            def assign(self, n_tasks, n_workers, costs=None, **kwargs):
                return np.arange(n_tasks, dtype=np.int64) % n_workers

        clf = _fit(data, scheduler=RoundRobin())
        np.testing.assert_array_equal(clf.fit_assignment_, np.arange(clf.n_models) % 3)


class TestBitwiseAcrossBackends:
    @pytest.mark.parametrize("backend", ["threads", "work_stealing"])
    def test_adaptive_rescheduling_keeps_scores_bitwise_identical(self, data, backend):
        # Rescheduling moves tasks between workers; results must not move.
        sequential = SUOD(_pool(), n_jobs=1, random_state=0).fit(data)
        ref = sequential.decision_function(data)
        clf = _fit(data, scheduler="adaptive", backend=backend)
        for _ in range(3):  # three consecutive serving batches
            np.testing.assert_array_equal(clf.decision_function(data), ref)
