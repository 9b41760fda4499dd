import numpy as np
import pytest

from repro.detectors import KNN, LOF, AvgKNN, MedKNN, LoOP


@pytest.fixture(scope="module")
def X():
    rng = np.random.default_rng(5)
    return rng.standard_normal((120, 4))


class TestKNN:
    def test_largest_is_kth_distance(self, X):
        det = KNN(n_neighbors=3, method="largest").fit(X)
        from repro.kernels.reference import brute_force_kneighbors

        d, _ = brute_force_kneighbors(X, X, 3, exclude_self=True)
        np.testing.assert_allclose(det.decision_scores_, d[:, -1])

    def test_mean_median_reductions(self, X):
        from repro.kernels.reference import brute_force_kneighbors

        d, _ = brute_force_kneighbors(X, X, 5, exclude_self=True)
        mean_det = KNN(n_neighbors=5, method="mean").fit(X)
        med_det = KNN(n_neighbors=5, method="median").fit(X)
        np.testing.assert_allclose(mean_det.decision_scores_, d.mean(axis=1))
        np.testing.assert_allclose(med_det.decision_scores_, np.median(d, axis=1))

    def test_avgknn_equals_knn_mean(self, X):
        a = AvgKNN(n_neighbors=5).fit(X).decision_scores_
        b = KNN(n_neighbors=5, method="mean").fit(X).decision_scores_
        np.testing.assert_allclose(a, b)

    def test_medknn_equals_knn_median(self, X):
        a = MedKNN(n_neighbors=5).fit(X).decision_scores_
        b = KNN(n_neighbors=5, method="median").fit(X).decision_scores_
        np.testing.assert_allclose(a, b)

    def test_invalid_method(self):
        with pytest.raises(ValueError, match="method"):
            KNN(method="max")

    def test_k_too_large(self, X):
        with pytest.raises(ValueError, match="n_neighbors"):
            KNN(n_neighbors=120).fit(X)

    def test_far_point_scores_highest(self, X):
        det = KNN(n_neighbors=5).fit(X)
        far = np.full((1, 4), 50.0)
        near = X.mean(axis=0, keepdims=True)
        assert det.decision_function(far)[0] > det.decision_function(near)[0]

    def test_test_scores_can_use_self_distance_zero(self, X):
        # Scoring a training point as "new" includes itself as neighbor.
        det = KNN(n_neighbors=1).fit(X)
        s = det.decision_function(X[:5])
        np.testing.assert_allclose(s, 0.0, atol=1e-7)


class TestLOF:
    def test_inliers_near_one(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(400, 2))  # uniform density
        det = LOF(n_neighbors=15).fit(X)
        core = det.decision_scores_
        assert np.median(core) == pytest.approx(1.0, abs=0.15)

    def test_isolated_point_high_lof(self, X):
        det = LOF(n_neighbors=10).fit(X)
        s_far = det.decision_function(np.full((1, 4), 30.0))[0]
        assert s_far > np.quantile(det.decision_scores_, 0.99)

    def test_metric_variants_run(self, X):
        for metric in ("manhattan", "euclidean", "minkowski"):
            det = LOF(n_neighbors=5, metric=metric, p=3).fit(X)
            assert np.isfinite(det.decision_scores_).all()

    def test_metric_changes_scores(self, X):
        a = LOF(n_neighbors=5, metric="euclidean").fit(X).decision_scores_
        b = LOF(n_neighbors=5, metric="manhattan").fit(X).decision_scores_
        assert not np.allclose(a, b)

    def test_scores_positive(self, X):
        det = LOF(n_neighbors=8).fit(X)
        assert (det.decision_scores_ > 0).all()


class TestLoOP:
    def test_scores_are_probabilities(self, X):
        det = LoOP(n_neighbors=10).fit(X)
        assert (det.decision_scores_ >= 0).all()
        assert (det.decision_scores_ <= 1).all()
        s = det.decision_function(X[:10])
        assert (s >= 0).all() and (s <= 1).all()

    def test_outlier_probability_near_one(self, X):
        det = LoOP(n_neighbors=10).fit(X)
        assert det.decision_function(np.full((1, 4), 40.0))[0] > 0.95

    def test_extent_validation(self, X):
        with pytest.raises(ValueError, match="extent"):
            LoOP(extent=0.0).fit(X)
