"""SUOD × the scheduling subsystem: ``bps_flag`` picks the policy."""

import pickle

import numpy as np
import pytest

from repro.core.suod import SUOD
from repro.data import make_outlier_dataset
from repro.detectors import KNN, LOF, AvgKNN, sample_model_pool
from repro.scheduling import AnalyticCostModel, bps_schedule, generic_schedule


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

    def test_bps_flag_false_is_generic(self, data):
        clf = _fit(data, bps_flag=False)
        info = clf.fit_plan_.report_for("schedule").info
        assert info["policy"] == "generic"
        np.testing.assert_array_equal(
            clf.fit_assignment_, generic_schedule(clf.n_models, 3)
        )

    def test_both_policies_produce_identical_scores(self, data):
        # The schedule decides *where* tasks run, never *what* they
        # compute: BPS and the generic split yield bitwise-identical scores.
        bps, generic = _fit(data), _fit(data, bps_flag=False)
        np.testing.assert_array_equal(bps.decision_scores_, generic.decision_scores_)
        np.testing.assert_array_equal(
            bps.decision_function(data), generic.decision_function(data)
        )

    @pytest.mark.parametrize("n_jobs", [2, 4])
    @pytest.mark.parametrize("bps_flag", [True, False], ids=["bps", "generic"])
    def test_both_plans_follow_bps_flag(self, data, bps_flag, n_jobs):
        # Fit and predict plans each schedule their own wave: BPS ranks
        # that plan's analytic forecast, the generic split never makes one.
        clf = _fit(data, bps_flag=bps_flag, n_jobs=n_jobs)
        clf.decision_function(data)
        for plan in (clf.fit_plan_, clf.predict_plan_):
            costs = plan.context.get("costs")
            assignment = plan.context.get("assignment")
            if bps_flag:
                assert costs.shape == (clf.n_models,)
                expected = bps_schedule(costs, n_jobs)
            else:
                assert costs is None
                expected = generic_schedule(clf.n_models, n_jobs)
            np.testing.assert_array_equal(assignment, expected)
        np.testing.assert_array_equal(
            clf.fit_assignment_, clf.fit_plan_.context.get("assignment")
        )

    def test_single_worker_skips_scheduling(self, data):
        clf = SUOD(_pool(), n_jobs=1, random_state=0).fit(data)
        info = clf.fit_plan_.report_for("schedule").info
        assert info["policy"] == "single-worker"
        assert clf.fit_plan_.meta["scheduler"] == "single-worker"

    def test_cost_blind_policy_skips_forecast(self, data):
        clf = _fit(data, bps_flag=False)
        info = clf.fit_plan_.report_for("forecast").info
        assert info["forecast"] == "skipped"
        assert "ignores costs" in info["reason"]

    def test_schedule_report_has_no_telemetry(self, data):
        clf = _fit(data)
        clf.decision_function(data)
        for plan in (clf.fit_plan_, clf.predict_plan_):
            assert set(plan.report_for("schedule").info) == {
                "policy",
                "n_tasks",
                "tasks_per_worker",
            }
            assert "telemetry_observed" not in plan.report_for("execute").info

    def test_repr_shows_bps_not_a_scheduler(self):
        text = repr(SUOD(_pool(), bps_flag=False))
        assert "bps=False" in text and "scheduler" not in text

    @pytest.mark.parametrize(
        "option, value",
        [("scheduler", "bps-lpt"), ("cost_predictor", AnalyticCostModel())],
        ids=["scheduler", "cost_predictor"],
    )
    def test_removed_options_are_rejected(self, option, value):
        with pytest.raises(TypeError, match=option):
            SUOD(_pool(), **{option: value})


class TestSharedProducerWave:
    @pytest.mark.parametrize("bps_flag", [True, False], ids=["bps", "generic"])
    def test_share_wave_scheduled_in_both_plans(self, bps_flag):
        # Three neighbour detectors on one unprojected space: the share
        # stage adds a one-task producer wave to both plans; either
        # policy schedules it beside the detectors, and the scores match
        # a single-worker run bit for bit.
        X, _ = make_outlier_dataset(300, 6, contamination=0.1, random_state=1)

        def fit(**kwargs):
            pool = [KNN(n_neighbors=5), LOF(n_neighbors=8), AvgKNN(n_neighbors=6)]
            params = dict(rp_flag_global=False, approx_flag_global=False)
            params.update(kwargs)
            return SUOD(pool, random_state=0, **params).fit(X)

        clf = fit(n_jobs=2, backend="threads", bps_flag=bps_flag)
        ref = fit(n_jobs=1)
        np.testing.assert_array_equal(
            clf.decision_function(X[:40]), ref.decision_function(X[:40])
        )
        np.testing.assert_array_equal(clf.decision_scores_, ref.decision_scores_)
        for plan in (clf.fit_plan_, clf.predict_plan_):
            assert plan.report_for("execute").info["sharing"]["producers"] == 1
            info = plan.report_for("schedule").info
            assert info["policy"] == ("bps-lpt" if bps_flag else "generic")
            assert info["producer_tasks"] == 1


class TestPickle:
    @pytest.mark.parametrize("bps_flag", [True, False], ids=["bps", "generic"])
    def test_fitted_estimator_survives_pickle(self, data, bps_flag):
        # ``bps_flag`` is the whole scheduling state: a clone schedules
        # its next batch with the same policy and scores identically.
        clf = _fit(data, bps_flag=bps_flag)
        expected = clf.decision_function(data)
        clone = pickle.loads(pickle.dumps(clf))
        assert clone.bps_flag is bps_flag
        np.testing.assert_array_equal(clone.fit_assignment_, clf.fit_assignment_)
        np.testing.assert_array_equal(clone.decision_function(data), expected)
        np.testing.assert_array_equal(
            clone.predict_plan_.context.get("assignment"),
            clf.predict_plan_.context.get("assignment"),
        )


class TestBitwiseAcrossBackends:
    @pytest.mark.parametrize("bps_flag", [True, False], ids=["bps", "generic"])
    @pytest.mark.parametrize("backend", ["threads", "shm_processes"])
    def test_consecutive_batches_keep_scores_bitwise_identical(
        self, data, backend, bps_flag
    ):
        # Either policy moves tasks between workers; results must not move.
        sequential = SUOD(_pool(), n_jobs=1, random_state=0).fit(data)
        ref = sequential.decision_function(data)
        clf = _fit(data, backend=backend, bps_flag=bps_flag)
        try:
            np.testing.assert_array_equal(
                clf.decision_scores_, sequential.decision_scores_
            )
            for _ in range(3):  # three consecutive serving batches
                np.testing.assert_array_equal(clf.decision_function(data), ref)
        finally:
            clf.close()
