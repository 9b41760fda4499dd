"""Cross-module integration tests: full SUOD pipelines end to end."""

import numpy as np
import pytest

from repro import SUOD
from repro.scheduling import AnalyticCostModel
from repro.data import load_benchmark, make_claims_dataset, train_test_split
from repro.detectors import sample_model_pool
from repro.metrics import imbalance, roc_auc_score
from repro.supervised import Ridge


class TestBenchmarkPipeline:
    def test_cardio_replica_end_to_end(self):
        X, y = load_benchmark("Cardio", scale=0.2)
        Xtr, Xte, ytr, yte = train_test_split(X, y, random_state=0)
        pool = sample_model_pool(10, max_n_neighbors=15, random_state=0)
        clf = SUOD(pool, n_jobs=2, backend="simulated", random_state=0).fit(Xtr)
        auc = roc_auc_score(yte, clf.decision_function(Xte))
        assert auc > 0.7

    def test_suod_close_to_baseline_accuracy(self):
        # The paper's claim: acceleration with minor-to-no degradation.
        X, y = load_benchmark("Pendigits", scale=0.1)
        Xtr, Xte, ytr, yte = train_test_split(X, y, random_state=0)
        accel = SUOD(
            sample_model_pool(12, max_n_neighbors=12, random_state=3),
            random_state=0,
        ).fit(Xtr)
        base = SUOD(
            sample_model_pool(12, max_n_neighbors=12, random_state=3),
            rp_flag_global=False,
            approx_flag_global=False,
            bps_flag=False,
            random_state=0,
        ).fit(Xtr)
        auc_a = roc_auc_score(yte, accel.decision_function(Xte))
        auc_b = roc_auc_score(yte, base.decision_function(Xte))
        assert auc_a > auc_b - 0.1

    def test_high_dimensional_dataset_with_rp(self):
        X, y = load_benchmark("MNIST", scale=0.05)
        Xtr, Xte, ytr, yte = train_test_split(X, y, random_state=0)
        pool = sample_model_pool(
            6, families=["KNN", "LOF"], max_n_neighbors=10, random_state=1
        )
        clf = SUOD(pool, random_state=0).fit(Xtr)
        assert clf.rp_flags_.all()
        # projected spaces have k = 2/3 * 100
        assert clf.projectors_[0].n_components_ == 67
        assert np.isfinite(clf.decision_function(Xte)).all()


class TestSchedulingIntegration:
    def test_bps_reduces_simulated_imbalance(self):
        # Family-ordered pool (the §3.5 pathology): all costly models
        # first. BPS must spread them; generic must not.
        X, y = load_benchmark("PageBlock", scale=0.08)
        pool_sorted = sample_model_pool(
            8, families=["KNN"], max_n_neighbors=10, random_state=0
        ) + sample_model_pool(8, families=["HBOS"], random_state=0)

        costs = AnalyticCostModel().forecast(pool_sorted, X)
        from repro.scheduling import bps_schedule, generic_schedule

        gen = generic_schedule(len(pool_sorted), 4)
        bps = bps_schedule(costs, 4)
        assert imbalance(costs, bps, 4) < imbalance(costs, gen, 4)

    def test_process_backend_full_pipeline(self):
        X, y = load_benchmark("Thyroid", scale=0.08)
        Xtr, Xte, *_ = train_test_split(X, y, random_state=0)
        pool = sample_model_pool(
            4, families=["HBOS", "IsolationForest"], random_state=0
        )
        clf = SUOD(pool, n_jobs=2, backend="shm_processes", random_state=0)
        try:
            clf.fit(Xtr)
            assert np.isfinite(clf.decision_function(Xte)).all()
        finally:
            clf.close()


class TestClaimsCase:
    def test_claims_pipeline(self):
        X, y = make_claims_dataset(1500, random_state=0)
        Xtr, Xte, ytr, yte = train_test_split(X, y, random_state=0)
        pool = sample_model_pool(
            8,
            families=["HBOS", "IsolationForest", "KNN", "LOF"],
            max_n_neighbors=15,
            random_state=2,
        )
        clf = SUOD(pool, random_state=0).fit(Xtr)
        auc = roc_auc_score(yte, clf.decision_function(Xte))
        assert auc > 0.55  # fraud is subtle but detectable


class TestApproximatorChoices:
    def test_ridge_approximator_pipeline(self):
        X, y = load_benchmark("Breastw", scale=0.5)
        Xtr, Xte, *_ = train_test_split(X, y, random_state=0)
        pool = sample_model_pool(
            5, families=["KNN", "LOF"], max_n_neighbors=10, random_state=0
        )
        clf = SUOD(pool, approx_clf=Ridge(alpha=1.0), random_state=0).fit(Xtr)
        assert all(
            isinstance(a.regressor_, Ridge)
            for a in clf.approximators_
            if a.approximated
        )
        assert np.isfinite(clf.decision_function(Xte)).all()

    def test_failure_injection_crashing_detector(self):
        from repro.detectors import BaseDetector

        class Crashy(BaseDetector):
            def _fit(self, X):
                raise RuntimeError("detector crashed mid-fit")

            def _score(self, X):
                return np.zeros(X.shape[0])

        X, _ = load_benchmark("Pima", scale=0.5)
        clf = SUOD([Crashy()], random_state=0)
        with pytest.raises(RuntimeError, match="crashed"):
            clf.fit(X)
