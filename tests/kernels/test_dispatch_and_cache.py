"""Neighbor-index dispatch and the iForest c(n) leaf cache."""

import pickle

import numpy as np
import pytest

from repro.detectors.iforest import (
    _C_CACHE,
    _average_path_length,
    _leaf_path_adjust,
)
from repro.kernels.reference import kdtree_query_best_first
from repro.neighbors import NearestNeighbors, brute_force_kneighbors


def n_leaves(tree) -> int:
    return int((tree._split_dim == -1).sum())


class TestNeighborDispatch:
    """The metric picks the engine; the kernel's rule sizes the tree."""

    @pytest.mark.parametrize("n,d", [(50, 4), (400, 6), (300, 20), (1000, 80)])
    def test_euclidean_is_always_the_kd_tree(self, rng, n, d):
        X = rng.standard_normal((n, d))
        nn = NearestNeighbors(5).fit(X)
        assert nn._tree is not None
        Q = rng.standard_normal((7, d))
        got, ref = nn.kneighbors(Q), kdtree_query_best_first(nn._tree, Q, 5)
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])

    @pytest.mark.parametrize("metric", ["manhattan", "chebyshev", "minkowski"])
    def test_other_metrics_run_brute_force(self, rng, metric):
        X = rng.standard_normal((300, 4))
        nn = NearestNeighbors(4, metric=metric, p=3.0).fit(X)
        assert nn._tree is None
        Q = rng.standard_normal((9, 4))
        expected = brute_force_kneighbors(X, Q, 4, metric=metric, p=3.0)
        np.testing.assert_array_equal(nn.kneighbors(Q)[0], expected[0])

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

    def test_index_without_a_tree_keeps_brute_force(self, rng):
        # An index pickled by a version that fitted it on brute force
        # carries _tree=None: it still scores on that path.
        X = rng.standard_normal((200, 20))
        nn = NearestNeighbors(6).fit(X)
        nn._tree = None
        nn = pickle.loads(pickle.dumps(nn))
        Q = rng.standard_normal((11, 20))
        d_old, i_old = nn.kneighbors(Q)
        d_ref, i_ref = brute_force_kneighbors(X, Q, 6)
        np.testing.assert_array_equal(d_old, d_ref)
        np.testing.assert_array_equal(i_old, i_ref)


class TestLeafPathAdjustCache:
    def test_cache_matches_vectorised_formula(self):
        sizes = np.arange(_C_CACHE.size)
        np.testing.assert_array_equal(_C_CACHE, _average_path_length(sizes))

    @pytest.mark.parametrize("size", [0, 1, 2, 3, 17, 256, 1000])
    def test_scalar_path_matches_array_path(self, size):
        expected = 5 + float(_average_path_length(np.array([size]))[0])
        assert _leaf_path_adjust(5, size) == expected
