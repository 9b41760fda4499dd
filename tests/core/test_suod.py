import numpy as np
import pytest

from repro import SUOD
from repro.core.suod import RP_NG_FAMILIES
from repro.detectors import HBOS, KNN, LOF, IsolationForest, sample_model_pool
from repro.metrics import roc_auc_score
from repro.scheduling import AnalyticCostModel, bps_schedule
from repro.supervised import Ridge


@pytest.fixture(scope="module")
def data():
    from repro.data import make_outlier_dataset, train_test_split

    X, y = make_outlier_dataset(400, 12, contamination=0.1, random_state=7)
    return train_test_split(X, y, random_state=0)


@pytest.fixture(scope="module")
def pool():
    return [
        KNN(n_neighbors=8),
        LOF(n_neighbors=10),
        HBOS(n_bins=15),
        IsolationForest(n_estimators=20, random_state=0),
    ]


def fresh_pool():
    return [
        KNN(n_neighbors=8),
        LOF(n_neighbors=10),
        HBOS(n_bins=15),
        IsolationForest(n_estimators=20, random_state=0),
    ]


class TestSUODFit:
    def test_fit_sets_state(self, data):
        Xtr, Xte, ytr, yte = data
        clf = SUOD(fresh_pool(), random_state=0).fit(Xtr)
        assert len(clf.base_estimators_) == 4
        assert clf.train_score_matrix_.shape == (4, Xtr.shape[0])
        assert clf.decision_scores_.shape == (Xtr.shape[0],)
        assert np.isfinite(clf.threshold_)

    def test_rp_respects_no_go_families(self, data):
        Xtr, *_ = data
        clf = SUOD(fresh_pool(), random_state=0).fit(Xtr)
        for flag, est in zip(clf.rp_flags_, clf.base_estimators_):
            from repro.detectors import family_of

            if family_of(est) in RP_NG_FAMILIES:
                assert not flag
            else:
                assert flag

    def test_rp_global_off(self, data):
        Xtr, *_ = data
        clf = SUOD(fresh_pool(), rp_flag_global=False, random_state=0).fit(Xtr)
        assert not clf.rp_flags_.any()
        from repro.projection import NoProjection

        assert all(isinstance(p, NoProjection) for p in clf.projectors_)

    def test_rp_skipped_for_small_data(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((20, 12))
        clf = SUOD([KNN(n_neighbors=3)], rp_min_samples=30, random_state=0).fit(X)
        assert not clf.rp_flags_.any()

    def test_rp_skipped_for_narrow_data(self, rng):
        X = rng.standard_normal((100, 3))
        clf = SUOD([KNN(n_neighbors=3)], rp_min_features=4, random_state=0).fit(X)
        assert not clf.rp_flags_.any()

    def test_psa_flags(self, data):
        Xtr, *_ = data
        clf = SUOD(fresh_pool(), random_state=0).fit(Xtr)
        # KNN + LOF costly -> approximated; HBOS + iForest not.
        assert clf.approx_flags_.tolist() == [True, True, False, False]

    def test_psa_global_off(self, data):
        Xtr, *_ = data
        clf = SUOD(fresh_pool(), approx_flag_global=False, random_state=0).fit(Xtr)
        assert not clf.approx_flags_.any()

    def test_deterministic_with_seed(self, data):
        Xtr, Xte, *_ = data
        a = SUOD(fresh_pool(), random_state=3).fit(Xtr).decision_function(Xte)
        b = SUOD(fresh_pool(), random_state=3).fit(Xtr).decision_function(Xte)
        np.testing.assert_allclose(a, b)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            SUOD([])

    def test_non_detector_rejected(self):
        with pytest.raises(TypeError):
            SUOD([Ridge()])

    def test_invalid_options(self, pool):
        with pytest.raises(ValueError):
            SUOD(pool, contamination=0.9)
        with pytest.raises(ValueError):
            SUOD(pool, combination="median")
        with pytest.raises(ValueError):
            SUOD(pool, standardisation="minmax")
        with pytest.raises(ValueError):
            SUOD(pool, n_jobs=0)


class TestSUODPredict:
    def test_detects_outliers(self, data):
        Xtr, Xte, ytr, yte = data
        clf = SUOD(fresh_pool(), random_state=0).fit(Xtr)
        auc = roc_auc_score(yte, clf.decision_function(Xte))
        assert auc > 0.8

    def test_predict_binary_and_threshold(self, data):
        Xtr, Xte, *_ = data
        clf = SUOD(fresh_pool(), random_state=0).fit(Xtr)
        pred = clf.predict(Xte)
        assert set(np.unique(pred)) <= {0, 1}
        s = clf.decision_function(Xte)
        np.testing.assert_array_equal(pred, (s > clf.threshold_).astype(int))

    def test_matrix_shape(self, data):
        Xtr, Xte, *_ = data
        clf = SUOD(fresh_pool(), random_state=0).fit(Xtr)
        M = clf.decision_function_matrix(Xte)
        assert M.shape == (4, Xte.shape[0])

    def test_feature_mismatch(self, data):
        Xtr, Xte, *_ = data
        clf = SUOD(fresh_pool(), random_state=0).fit(Xtr)
        with pytest.raises(ValueError, match="features"):
            clf.decision_function(Xte[:, :5])

    def test_fit_predict(self, data):
        Xtr, *_ = data
        clf = SUOD(fresh_pool(), random_state=0)
        labels = clf.fit_predict(Xtr)
        np.testing.assert_array_equal(labels, clf.labels_)

    def test_combination_options_run(self, data):
        Xtr, Xte, ytr, yte = data
        for comb in ("average", "maximization", "moa"):
            clf = SUOD(fresh_pool(), combination=comb, random_state=0).fit(Xtr)
            assert np.isfinite(clf.decision_function(Xte)).all()

    def test_zscore_standardisation_runs(self, data):
        Xtr, Xte, *_ = data
        clf = SUOD(fresh_pool(), standardisation="zscore", random_state=0).fit(Xtr)
        assert np.isfinite(clf.decision_function(Xte)).all()


class TestSUODModuleToggles:
    @pytest.mark.parametrize("rp", [True, False])
    @pytest.mark.parametrize("approx", [True, False])
    @pytest.mark.parametrize("bps", [True, False])
    def test_all_flag_combinations(self, data, rp, approx, bps):
        Xtr, Xte, ytr, yte = data
        clf = SUOD(
            fresh_pool(),
            rp_flag_global=rp,
            approx_flag_global=approx,
            bps_flag=bps,
            n_jobs=2,
            backend="simulated",
            random_state=0,
        ).fit(Xtr)
        s = clf.decision_function(Xte)
        assert np.isfinite(s).all()
        assert roc_auc_score(yte, s) > 0.7


class TestSUODScheduling:
    def test_bps_assignment_differs_from_generic(self, data):
        Xtr, *_ = data
        pool = sample_model_pool(16, max_n_neighbors=10, random_state=0)
        bps = SUOD(
            pool, n_jobs=4, backend="simulated", bps_flag=True, random_state=0
        ).fit(Xtr)
        pool2 = sample_model_pool(16, max_n_neighbors=10, random_state=0)
        gen = SUOD(
            pool2, n_jobs=4, backend="simulated", bps_flag=False, random_state=0
        ).fit(Xtr)
        assert bps.fit_assignment_.shape == (16,)
        assert not np.array_equal(bps.fit_assignment_, gen.fit_assignment_)

    def test_single_job_all_worker_zero(self, data):
        Xtr, *_ = data
        clf = SUOD(fresh_pool(), n_jobs=1, random_state=0).fit(Xtr)
        assert (clf.fit_assignment_ == 0).all()

    def test_thread_backend_end_to_end(self, data):
        Xtr, Xte, ytr, yte = data
        clf = SUOD(fresh_pool(), n_jobs=2, backend="threads", random_state=0).fit(Xtr)
        assert roc_auc_score(yte, clf.decision_function(Xte)) > 0.8

    def test_bps_ranks_the_analytic_forecast(self, data, monkeypatch):
        Xtr, *_ = data
        calls = []

        def spy_forecast(self, models, X):
            calls.append(len(models))
            return np.arange(len(models), dtype=float) + 1.0

        monkeypatch.setattr(AnalyticCostModel, "forecast", spy_forecast)
        clf = SUOD(
            fresh_pool(), n_jobs=2, backend="simulated", random_state=0
        ).fit(Xtr)
        assert calls and calls[0] == clf.n_models
        np.testing.assert_array_equal(
            clf.fit_assignment_, bps_schedule(np.arange(clf.n_models) + 1.0, 2)
        )


class TestRowInvariantScores:
    """Scoring a row alone returns the bits it gets inside a batch.

    The serving plane relies on this: a one-row micro-batch must answer
    exactly what the offline batch call answers. With eight or more
    models, numpy's own ``mean(axis=0)`` sums an (m, 1) matrix pairwise
    and an (m, n >= 2) one row by row — the combiner must not.
    """

    @pytest.mark.parametrize("standardisation", ["ecdf", "zscore"])
    @pytest.mark.parametrize("combination", ["average", "moa", "maximization"])
    def test_every_row_alone_and_in_a_batch(self, data, combination, standardisation):
        Xtr, Xte, _, _ = data
        # Nine per-feature models: row-separable by construction, so any
        # difference can only come from the combine step.
        pool = [HBOS(n_bins=b) for b in range(6, 15)]
        clf = SUOD(
            pool,
            combination=combination,
            standardisation=standardisation,
            random_state=0,
        ).fit(Xtr)
        batch = clf.decision_function(Xte)
        alone = np.array([clf.decision_function(Xte[i : i + 1])[0] for i in range(60)])
        assert np.array_equal(alone, batch[:60])
        pair = clf.decision_function(Xte[:2])
        assert np.array_equal(pair, batch[:2])
