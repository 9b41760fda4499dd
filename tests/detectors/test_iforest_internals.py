"""Internals of the isolation forest: c(n) and path lengths."""

import numpy as np
import pytest

from repro.detectors.iforest import IsolationForest, _average_path_length
from repro.kernels import forest_apply


def _path_lengths(det, X):
    """(n_rows, n_trees) path length of every row through every tree."""
    return det.forest_.leaf_value[forest_apply(det.forest_, X)]


class TestAveragePathLength:
    def test_known_values(self):
        # c(1) = 0, c(2) = 1.
        out = _average_path_length(np.array([0, 1, 2]))
        np.testing.assert_allclose(out, [0.0, 0.0, 1.0])

    def test_formula_for_larger_n(self):
        n = 256
        expected = 2 * (np.log(n - 1) + 0.5772156649015329) - 2 * (n - 1) / n
        assert _average_path_length(np.array([n]))[0] == pytest.approx(expected)

    def test_monotone_increasing(self):
        vals = _average_path_length(np.arange(2, 1000))
        assert (np.diff(vals) > 0).all()


class TestITreePaths:
    def test_isolated_point_short_path(self, rng):
        X = rng.standard_normal((256, 2))
        X[0] = [100.0, 100.0]
        det = IsolationForest(n_estimators=50, random_state=0).fit(X)
        depths = _path_lengths(det, X).mean(axis=1)
        assert depths[0] < np.quantile(depths[1:], 0.05)

    def test_path_lengths_positive_and_bounded(self, rng):
        X = rng.standard_normal((128, 3))
        det = IsolationForest(n_estimators=10, max_samples=64, random_state=0).fit(X)
        height_limit = int(np.ceil(np.log2(64)))
        pl = _path_lengths(det, X)
        assert pl.shape == (128, 10)
        assert (pl > 0).all()
        # depth limit + c(leaf) adjustment bound
        assert (pl <= height_limit + _average_path_length(np.array([64]))[0]).all()

    def test_score_formula(self, rng):
        X = rng.standard_normal((100, 2))
        det = IsolationForest(n_estimators=5, random_state=1).fit(X)
        depths = _path_lengths(det, X).mean(axis=1)
        c = _average_path_length(np.array([det._sub]))[0]
        np.testing.assert_allclose(
            det.decision_function(X), 2.0 ** (-depths / c), rtol=1e-12
        )
