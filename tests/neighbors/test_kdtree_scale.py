"""KD-tree behaviour at larger scale (deep trees, skewed data)."""

import numpy as np

from repro.kernels.reference import brute_force_kneighbors
from repro.neighbors import KDTree


class TestKDTreeScale:
    def test_large_build_and_query(self, rng):
        X = rng.standard_normal((5000, 3))
        tree = KDTree(X, leaf_size=32)
        Q = rng.standard_normal((50, 3))
        td, _ = tree.query(Q, 10)
        bd, _ = brute_force_kneighbors(X, Q, 10)
        np.testing.assert_allclose(td, bd, rtol=1e-7, atol=1e-7)

    def test_skewed_distribution(self, rng):
        # Exponentially clumped data exercises unbalanced splits.
        X = rng.exponential(1.0, size=(2000, 2)) ** 2
        tree = KDTree(X, leaf_size=8)
        td, _ = tree.query(X[:20], 5, exclude_self=False)
        bd, _ = brute_force_kneighbors(X, X[:20], 5)
        np.testing.assert_allclose(td, bd, rtol=1e-7, atol=1e-7)

    def test_clustered_duplicates(self, rng):
        # Many exact duplicates force the degenerate-spread leaf path.
        base = rng.standard_normal((20, 2))
        X = np.repeat(base, 50, axis=0)
        tree = KDTree(X, leaf_size=16)
        d, _ = tree.query(base, 50)
        np.testing.assert_allclose(d, 0.0, atol=1e-12)

    def test_one_dimensional_data(self, rng):
        X = rng.standard_normal((1000, 1))
        tree = KDTree(X)
        td, _ = tree.query(X[:10], 3, exclude_self=True)
        bd, _ = brute_force_kneighbors(X, X[:10], 3)
        # exclude_self vs aligned-prefix query: recompute properly.
        td2, _ = KDTree(X).query(X, 3, exclude_self=True)
        bd2, _ = brute_force_kneighbors(X, X, 3, exclude_self=True)
        np.testing.assert_allclose(td2, bd2, rtol=1e-7, atol=1e-7)
