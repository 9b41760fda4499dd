"""Behavioral tests for the fast families: HBOS, IsolationForest, LODA, COPOD, PCAD."""

import numpy as np
import pytest

from repro.detectors import COPOD, HBOS, LODA, PCAD, IsolationForest


@pytest.fixture(scope="module")
def X():
    rng = np.random.default_rng(3)
    return rng.standard_normal((300, 5))


class TestHBOS:
    def test_rare_bin_scores_higher(self, X):
        det = HBOS(n_bins=10).fit(X)
        far = np.full((1, 5), 10.0)
        center = np.zeros((1, 5))
        assert det.decision_function(far)[0] > det.decision_function(center)[0]

    def test_out_of_range_penalised(self, X):
        det = HBOS(n_bins=10, tol=0.3).fit(X)
        inside = det.decision_function(np.zeros((1, 5)))[0]
        outside = det.decision_function(np.full((1, 5), 100.0))[0]
        assert outside > inside

    def test_constant_feature_handled(self, rng):
        X = rng.standard_normal((100, 3))
        X[:, 1] = 4.2
        det = HBOS().fit(X)
        assert np.isfinite(det.decision_scores_).all()

    def test_tolerance_flattens(self, X):
        sharp = HBOS(n_bins=20, tol=0.0).fit(X)
        flat = HBOS(n_bins=20, tol=1.0).fit(X)
        # Higher tolerance compresses the score spread.
        assert flat.decision_scores_.std() < sharp.decision_scores_.std()

    def test_param_validation(self):
        with pytest.raises(ValueError):
            HBOS(n_bins=1).fit(np.zeros((10, 2)) + np.arange(10)[:, None])
        with pytest.raises(ValueError):
            HBOS(tol=1.5).fit(np.random.default_rng(0).random((10, 2)))


class TestIsolationForest:
    def test_scores_in_unit_interval(self, X):
        det = IsolationForest(n_estimators=20, random_state=0).fit(X)
        assert (det.decision_scores_ > 0).all()
        assert (det.decision_scores_ < 1).all()

    def test_far_point_scores_higher(self, X):
        det = IsolationForest(n_estimators=30, random_state=0).fit(X)
        far = det.decision_function(np.full((1, 5), 15.0))[0]
        assert far > np.quantile(det.decision_scores_, 0.95)

    def test_deterministic_with_seed(self, X):
        a = IsolationForest(10, random_state=5).fit(X).decision_scores_
        b = IsolationForest(10, random_state=5).fit(X).decision_scores_
        np.testing.assert_allclose(a, b)

    def test_max_samples_subsampling(self, X):
        det = IsolationForest(5, max_samples=64, random_state=0).fit(X)
        assert det._sub == 64

    def test_max_samples_auto_caps_at_256(self, rng):
        X = rng.standard_normal((500, 3))
        det = IsolationForest(3, random_state=0).fit(X)
        assert det._sub == 256

    def test_max_features(self, X):
        det = IsolationForest(10, max_features=0.4, random_state=0).fit(X)
        flat = det.forest_
        ends = np.append(flat.roots[1:], flat.feature.size)
        for lo, hi in zip(flat.roots, ends):
            span = flat.feature[lo:hi]
            assert len(np.unique(span[span >= 0])) <= 2  # 0.4 * 5

    def test_duplicate_rows_degenerate(self):
        X = np.ones((50, 3))
        det = IsolationForest(5, random_state=0).fit(X)
        assert np.isfinite(det.decision_scores_).all()

    def test_param_validation(self, X):
        with pytest.raises(ValueError):
            IsolationForest(0).fit(X)
        with pytest.raises(ValueError):
            IsolationForest(max_features=0.0).fit(X)


class TestLODA:
    def test_detects_far_point(self, X):
        det = LODA(random_state=0).fit(X)
        far = det.decision_function(np.full((1, 5), 20.0))[0]
        assert far > np.quantile(det.decision_scores_, 0.95)

    def test_deterministic(self, X):
        a = LODA(random_state=1).fit(X).decision_scores_
        b = LODA(random_state=1).fit(X).decision_scores_
        np.testing.assert_allclose(a, b)

    def test_param_validation(self, X):
        with pytest.raises(ValueError):
            LODA(n_projections=0).fit(X)
        with pytest.raises(ValueError):
            LODA(n_bins=1).fit(X)


class TestCOPOD:
    def test_tail_points_score_higher(self, X):
        det = COPOD().fit(X)
        tail = det.decision_function(np.full((1, 5), 6.0))[0]
        center = det.decision_function(np.zeros((1, 5)))[0]
        assert tail > center

    def test_both_tails_detected(self, X):
        det = COPOD().fit(X)
        hi = det.decision_function(np.full((1, 5), 8.0))[0]
        lo = det.decision_function(np.full((1, 5), -8.0))[0]
        center = det.decision_function(np.zeros((1, 5)))[0]
        assert hi > center and lo > center

    def test_parameter_free_deterministic(self, X):
        np.testing.assert_allclose(
            COPOD().fit(X).decision_scores_, COPOD().fit(X).decision_scores_
        )


class TestPCAD:
    def test_weighted_detects_minor_axis_deviation(self, rng):
        # Data on a line y ~ x; a point off the line is anomalous even
        # though its coordinates are in range.
        t = rng.standard_normal(200)
        X = np.column_stack([t, t + 0.01 * rng.standard_normal(200)])
        det = PCAD(weighted=True).fit(X)
        off = det.decision_function(np.array([[0.0, 2.0]]))[0]
        on = det.decision_function(np.array([[2.0, 2.0]]))[0]
        assert off > on

    def test_n_components_validation(self, rng):
        with pytest.raises(ValueError):
            PCAD(n_components=5).fit(rng.random((10, 3)))

    def test_unweighted_runs(self, X):
        det = PCAD(weighted=False, n_components=3).fit(X)
        assert np.isfinite(det.decision_scores_).all()
