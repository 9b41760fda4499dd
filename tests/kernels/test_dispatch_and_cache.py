"""Neighbor-index dispatch and the iForest c(n) leaf cache."""

import pickle

import numpy as np
import pytest

from repro.detectors.iforest import (
    _C_CACHE,
    _average_path_length,
    _leaf_path_adjust,
)
from repro.kernels.reference import brute_force_kneighbors, kdtree_query_best_first
from repro.neighbors import NearestNeighbors


def n_leaves(tree) -> int:
    return int((tree._split_dim == -1).sum())


class TestNeighborDispatch:
    """Every metric is a KD-tree of its Minkowski order; the kernel's rule
    sizes an order-2 tree, every other order is one leaf."""

    @pytest.mark.parametrize("n,d", [(50, 4), (400, 6), (300, 20), (1000, 80)])
    def test_euclidean_is_always_the_kd_tree(self, rng, n, d):
        X = rng.standard_normal((n, d))
        nn = NearestNeighbors(5).fit(X)
        assert nn._tree is not None
        Q = rng.standard_normal((7, d))
        got, ref = nn.kneighbors(Q), kdtree_query_best_first(nn._tree, Q, 5)
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])

    @pytest.mark.parametrize(
        "metric,order",
        [("manhattan", 1.0), ("chebyshev", np.inf), ("minkowski", 3.0)],
    )
    @pytest.mark.parametrize("n,d", [(300, 4), (20_000, 2)])
    def test_other_metrics_are_one_leaf_trees_of_their_order(
        self, rng, metric, order, n, d
    ):
        # 20000 x 2 splits under order 2; no other order ever splits.
        X = rng.standard_normal((n, d))
        nn = NearestNeighbors(4, metric=metric, p=3.0).fit(X)
        assert nn._tree.p == order
        assert n_leaves(nn._tree) == 1
        assert nn._tree._data is nn._X
        Q = rng.standard_normal((9, d))
        expected = brute_force_kneighbors(X, Q, 4, metric=metric, p=3.0)
        np.testing.assert_array_equal(nn.kneighbors(Q)[0], expected[0])
        np.testing.assert_array_equal(nn.kneighbors(Q)[1], expected[1])

    @pytest.mark.parametrize(
        "metric,p", [("sqeuclidean", 2.0), ("cosine", 2.0), ("minkowski", 0.0)]
    )
    def test_metrics_that_are_no_minkowski_order_are_rejected(self, rng, metric, p):
        with pytest.raises(ValueError, match="metric|p > 0"):
            NearestNeighbors(3, metric=metric, p=p).fit(rng.standard_normal((9, 2)))

    def test_high_d_is_one_leaf_over_the_indexed_rows(self, rng):
        # d=80: the sweep can never win, so there is nothing to build —
        # the tree is one leaf over _X itself, no reordered copy.
        nn = NearestNeighbors(5).fit(rng.standard_normal((1500, 80)))
        tree = nn._tree
        assert n_leaves(tree) == 1
        assert tree._data is nn._X
        np.testing.assert_array_equal(tree._perm, np.arange(1500))
        # One copy on disk too: the pickle memo keeps the identity.
        clone = pickle.loads(pickle.dumps(nn))
        assert clone._tree._data is clone._X

    def test_low_d_large_n_splits(self, rng):
        nn = NearestNeighbors(5).fit(rng.standard_normal((20_000, 2)))
        tree = nn._tree
        assert n_leaves(tree) > 1
        assert tree._data is not nn._X
        np.testing.assert_array_equal(tree._data, nn._X[tree._perm])


class TestLeafPathAdjustCache:
    def test_cache_matches_vectorised_formula(self):
        sizes = np.arange(_C_CACHE.size)
        np.testing.assert_array_equal(_C_CACHE, _average_path_length(sizes))

    @pytest.mark.parametrize("size", [0, 1, 2, 3, 17, 256, 1000])
    def test_scalar_path_matches_array_path(self, size):
        expected = 5 + float(_average_path_length(np.array([size]))[0])
        assert _leaf_path_adjust(5, size) == expected
