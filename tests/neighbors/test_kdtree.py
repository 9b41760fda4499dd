import numpy as np
import pytest

from repro.kernels.reference import brute_force_kneighbors
from repro.neighbors import KDTree


def _split_tree(X, leaf_size):
    """A tree that really splits: where the sweep can never win, KDTree
    builds a single leaf, so these fixtures pick shapes past that rule."""
    tree = KDTree(X, leaf_size=leaf_size)
    assert (tree._split_dim == -1).sum() > 1
    return tree


class TestKDTree:
    @pytest.mark.parametrize(
        "n,d,k,leaf", [(2000, 2, 1, 4), (400, 3, 5, 2), (6000, 8, 10, 1)]
    )
    def test_matches_brute_force(self, rng, n, d, k, leaf):
        X = rng.standard_normal((n, d))
        Q = rng.standard_normal((20, d))
        tree = _split_tree(X, leaf)
        td, ti = tree.query(Q, k)
        bd, bi = brute_force_kneighbors(X, Q, k)
        np.testing.assert_allclose(td, bd, rtol=1e-7, atol=1e-7)
        # Indices may differ on exact ties; distances must agree.

    def test_exclude_self_matches_brute(self, rng):
        X = rng.standard_normal((400, 4))
        tree = _split_tree(X, 1)
        td, ti = tree.query(X, 4, exclude_self=True)
        bd, bi = brute_force_kneighbors(X, X, 4, exclude_self=True)
        np.testing.assert_allclose(td, bd, rtol=1e-7, atol=1e-7)
        rows = np.arange(400)[:, None]
        assert not (ti == rows).any()

    def test_duplicate_points(self):
        X = np.ones((40, 3))
        tree = KDTree(X, leaf_size=8)
        d, i = tree.query(X[:5], 3)
        np.testing.assert_allclose(d, 0.0)

    def test_small_leaf_size(self, rng):
        X = rng.standard_normal((200, 2))
        tree = _split_tree(X, 1)
        d, _ = tree.query(X[:10], 2)
        bd, _ = brute_force_kneighbors(X, X[:10], 2)
        np.testing.assert_allclose(d, bd, rtol=1e-7, atol=1e-7)

    def test_query_shape_validation(self, rng):
        tree = KDTree(rng.standard_normal((30, 4)))
        with pytest.raises(ValueError, match="query must be"):
            tree.query(rng.standard_normal((5, 3)), 2)

    def test_k_bounds(self, rng):
        tree = KDTree(rng.standard_normal((10, 2)))
        with pytest.raises(ValueError):
            tree.query(rng.standard_normal((1, 2)), 11)
        with pytest.raises(ValueError):
            tree.query(rng.standard_normal((1, 2)), 0)

    def test_empty_build_rejected(self):
        with pytest.raises(ValueError):
            KDTree(np.empty((0, 3)))

    def test_single_point(self):
        tree = KDTree(np.array([[1.0, 2.0]]))
        d, i = tree.query(np.array([[1.0, 2.0]]), 1)
        assert d[0, 0] == 0.0 and i[0, 0] == 0

    def test_indices_refer_to_original_order(self, rng):
        X = rng.standard_normal((400, 3))
        tree = _split_tree(X, 2)
        assert (tree._perm != np.arange(400)).any()
        _, i = tree.query(X, 1)
        # nearest neighbor of each point (self included) is itself
        np.testing.assert_array_equal(i[:, 0], np.arange(400))

    @pytest.mark.parametrize("p", [0.0, -1.0, np.nan])
    def test_order_must_be_positive(self, rng, p):
        with pytest.raises(ValueError, match="p must be > 0"):
            KDTree(rng.standard_normal((10, 2)), p=p)
