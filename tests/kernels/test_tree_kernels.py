"""Flat batched forest traversal vs the per-tree reference paths, bitwise.

Every oracle here is fed per-tree arrays from a separate builder run —
an isolation-forest twin's ``_grow_trees``, a random-forest twin's
``fit_block`` or the frozen ``cart_fit_loop`` — never arrays cut back
out of the fitted ``forest_`` arena. The fixed-stride descent is pinned
against the frozen level-synchronous kernel
(``reference.forest_apply_levelsync``) run on the pre-descent arena of
those arrays: ``left`` and ``right``, ``-1`` at leaves.
"""

import dataclasses
import pickle
from types import SimpleNamespace

import numpy as np
import pytest

import repro.detectors.iforest as iforest_mod
import repro.supervised.forest as forest_mod
import repro.supervised.gbm as gbm_mod
from repro.detectors.iforest import IsolationForest
from repro.kernels import FlatForest, flatten_forest, forest_apply, forest_value_sum
from repro.kernels.reference import (
    _cart_apply,
    _tree_path_length,
    cart_fit_loop,
    forest_apply_levelsync,
    forest_predict_loop,
    gbm_predict_loop,
    iforest_score_loop,
)
from repro.supervised import (
    DecisionTreeRegressor,
    GradientBoostingRegressor,
    RandomForestRegressor,
)
from repro.utils.random import check_random_state, spawn_seeds


@pytest.fixture(scope="module")
def regression_data():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((400, 6))
    y = 2.0 * X[:, 0] + np.sin(3.0 * X[:, 1]) + 0.1 * rng.standard_normal(400)
    return X, y


def _itree_arrays(trees):
    return [(t.feature, t.threshold, t.left, t.right, t.path_adjust) for t in trees]


def _cart_arrays(trees):
    return [
        (t.feature_, t.threshold_, t.children_left_, t.children_right_, t.value_)
        for t in trees
    ]


def _gbm_oracle_stages(gbm, X, y):
    """The stage trees regrown by the frozen float-sort CART builder."""
    pred = np.full(X.shape[0], float(y.mean()))
    stages = []
    for seed in spawn_seeds(check_random_state(gbm.random_state), gbm.n_estimators):
        tree = cart_fit_loop(
            X,
            y - pred,
            max_depth=gbm.max_depth,
            min_samples_leaf=gbm.min_samples_leaf,
            random_state=np.random.default_rng(seed),
        )
        stages.append(tree)
        pred += gbm.learning_rate * tree.value_[_cart_apply(tree, X)]
    return stages


def levelsync_arena(tree_arrays):
    """The pre-descent arena of per-tree ``(feature, threshold, left,
    right, value)`` arrays: children shifted, ``-1`` leaf sentinels."""
    sizes = [len(arrays[0]) for arrays in tree_arrays]
    offsets = np.cumsum([0] + sizes[:-1]).astype(np.int64)

    def joined(i, shift):
        parts = []
        for arrays, offset in zip(tree_arrays, offsets):
            a = np.asarray(arrays[i])
            parts.append(np.where(a >= 0, a + offset, a) if shift else a)
        return np.concatenate(parts)

    return SimpleNamespace(
        feature=joined(0, False),
        threshold=joined(1, False),
        left=joined(2, True),
        right=joined(3, True),
        roots=offsets,
        n_trees=len(sizes),
    )


def assert_descent_matches_levelsync(tree_arrays, X, chunks=(None,)):
    flat = flatten_forest(tree_arrays)
    expected = forest_apply_levelsync(levelsync_arena(tree_arrays), X)
    for chunk in chunks:
        got = forest_apply(flat, X, chunk_rows=chunk)
        assert got.dtype == np.int64
        assert got.shape == (np.asarray(X).shape[0], len(tree_arrays))
        np.testing.assert_array_equal(got, expected)
    return expected


def assert_arena_invariant(flat: FlatForest):
    """Leaves point at themselves; every internal node's children are
    ``left`` and ``left + 1`` inside its own tree, and every node but a
    root is exactly one node's child."""
    ends = np.append(flat.roots[1:], flat.feature.size)
    nodes = np.arange(flat.feature.size)
    internal = flat.feature >= 0
    np.testing.assert_array_equal(flat.left[~internal], nodes[~internal])
    tree_end = ends[np.searchsorted(flat.roots, nodes, side="right") - 1]
    lefts = flat.left[internal]
    assert (lefts > nodes[internal]).all()
    assert (lefts + 1 < tree_end[internal]).all()
    children = np.sort(np.concatenate([lefts, lefts + 1]))
    np.testing.assert_array_equal(children, np.setdiff1d(nodes, flat.roots))


def assert_adjacent_siblings(feature, left, right):
    """A builder's own arrays: right child = left + 1, -1 at leaves."""
    internal = np.asarray(feature) >= 0
    np.testing.assert_array_equal(right[internal], left[internal] + 1)
    assert (left[~internal] == -1).all() and (right[~internal] == -1).all()


def assert_same_arena(a: FlatForest, b: FlatForest):
    for field in dataclasses.fields(FlatForest):
        x, y = np.asarray(getattr(a, field.name)), np.asarray(getattr(b, field.name))
        assert x.dtype == y.dtype, field.name
        # tobytes: NaN leaf thresholds and the sign of zero count too.
        assert x.tobytes() == y.tobytes(), field.name


def forbid_flatten(monkeypatch):
    """Make ``flatten_forest`` raise in every module that builds a forest
    (the GBM builds through ``forest._flat_cart_forest``)."""

    def boom(*args, **kwargs):
        raise AssertionError("flatten_forest called on a fitted forest")

    for module in (iforest_mod, forest_mod):
        monkeypatch.setattr(module, "flatten_forest", boom)


class TestFlattenForest:
    def test_roots_and_child_offsets(self, rng):
        X = rng.standard_normal((300, 4))
        det = IsolationForest(n_estimators=5, random_state=0).fit(X)
        trees = IsolationForest(n_estimators=5, random_state=0)._grow_trees(X)
        flat = det.forest_
        sizes = [t.feature.size for t in trees]
        np.testing.assert_array_equal(flat.roots, np.cumsum([0] + sizes[:-1]))
        assert flat.feature.size == sum(sizes)
        # A leaf's left points at itself (the builder's -1 sentinel is
        # not kept), and right is gone: it is left + 1.
        leaves = np.nonzero(flat.feature < 0)[0]
        np.testing.assert_array_equal(flat.left[leaves], leaves)
        assert not hasattr(flat, "right")

    def test_non_adjacent_siblings_rejected(self):
        # Root 0 splits into 2 (left) and 1 (right): a valid tree, but
        # its right child is not left + 1.
        tree = (
            np.array([0, -1, -1]),
            np.array([0.5, np.nan, np.nan]),
            np.array([2, -1, -1]),
            np.array([1, -1, -1]),
            np.array([0.0, 1.0, 2.0]),
        )
        with pytest.raises(ValueError, match="left \\+ 1"):
            flatten_forest([tree])
        ok = (tree[0], tree[1], np.array([1, -1, -1]), np.array([2, -1, -1]), tree[4])
        # The same tree with adjacent siblings, twice: leaves self-loop
        # in arena coordinates.
        np.testing.assert_array_equal(flatten_forest([ok, ok]).left, [1, 1, 2, 4, 4, 5])

    def test_empty_forest_rejected(self):
        with pytest.raises(ValueError, match="at least one tree"):
            flatten_forest(iter(()))

    def test_fitted_arena_is_the_builders_trees_flattened(self, regression_data):
        X, y = regression_data
        det = IsolationForest(n_estimators=12, max_samples=64, random_state=4).fit(X)
        twin = IsolationForest(n_estimators=12, max_samples=64, random_state=4)
        trees = twin._grow_trees(X)
        assert_same_arena(det.forest_, flatten_forest(_itree_arrays(trees)))

        forest = RandomForestRegressor(n_estimators=7, random_state=5).fit(X, y)
        proto = RandomForestRegressor(n_estimators=7, random_state=5)
        blocks = proto.fit_block(X, y, proto.tree_seeds())
        assert_same_arena(forest.forest_, flatten_forest(_cart_arrays(blocks)))

        gbm = GradientBoostingRegressor(n_estimators=9, random_state=6).fit(X, y)
        stages = _gbm_oracle_stages(gbm, X, y)
        assert_same_arena(gbm.forest_, flatten_forest(_cart_arrays(stages)))


class TestForestApply:
    def test_matches_per_tree_traversal(self, rng):
        X = rng.standard_normal((500, 5))
        det = IsolationForest(n_estimators=20, random_state=1).fit(X)
        trees = IsolationForest(n_estimators=20, random_state=1)._grow_trees(X)
        flat = det.forest_
        leaves = forest_apply(flat, X)
        for t, tree in enumerate(trees):
            # The frozen per-tree walk gathers path_adjust at the leaf
            # each row reaches.
            np.testing.assert_array_equal(
                flat.leaf_value[leaves[:, t]], _tree_path_length(tree, X)
            )

    def test_chunking_invariant(self, rng):
        X = rng.standard_normal((130, 4))
        flat = IsolationForest(n_estimators=7, random_state=2).fit(X).forest_
        ref = forest_apply(flat, X, chunk_rows=1000)
        for chunk in (1, 7, 64, 129, 130):
            np.testing.assert_array_equal(forest_apply(flat, X, chunk_rows=chunk), ref)

    def test_decision_tree_apply_matches_cart_apply(self, regression_data, rng):
        X, y = regression_data
        Q = rng.standard_normal((3000, 6))
        tree = DecisionTreeRegressor(max_depth=6, random_state=0).fit(X, y)
        # apply() flattens the tree into a one-root forest; pin it
        # against the frozen level loop, across several row chunks.
        np.testing.assert_array_equal(tree.apply(Q), _cart_apply(tree, Q))
        np.testing.assert_array_equal(
            tree.predict(X), tree.value_[_cart_apply(tree, X)]
        )


class TestArenaInvariant:
    """Every builder creates siblings together, so each arena is its own
    traversal table."""

    def test_isolation_forest(self, regression_data):
        X, _ = regression_data
        det = IsolationForest(n_estimators=15, max_samples=128, random_state=8)
        for tree in det._grow_trees(X):
            assert_adjacent_siblings(tree.feature, tree.left, tree.right)
        assert_arena_invariant(det.fit(X).forest_)

    def test_random_forest_blocks(self, regression_data):
        X, y = regression_data
        proto = RandomForestRegressor(n_estimators=6, random_state=9)
        for tree in proto.fit_block(X, y, proto.tree_seeds()):
            assert_adjacent_siblings(
                tree.feature_, tree.children_left_, tree.children_right_
            )
        forest = RandomForestRegressor(n_estimators=6, random_state=9).fit(X, y)
        assert_arena_invariant(forest.forest_)

    def test_gbm_stages(self, regression_data, monkeypatch):
        X, y = regression_data
        stages = []

        def capture(trees):
            stages.extend(trees)
            return forest_mod._flat_cart_forest(trees)

        monkeypatch.setattr(gbm_mod, "_flat_cart_forest", capture)
        gbm = GradientBoostingRegressor(n_estimators=12, random_state=10).fit(X, y)
        assert len(stages) == 12
        for tree in stages:
            assert_adjacent_siblings(
                tree.feature_, tree.children_left_, tree.children_right_
            )
        assert_arena_invariant(gbm.forest_)

    def test_decision_tree(self, regression_data):
        X, y = regression_data
        for params in ({"max_depth": None}, {"max_depth": 0}, {"min_samples_leaf": 9}):
            tree = DecisionTreeRegressor(random_state=0, **params).fit(X, y)
            assert_adjacent_siblings(
                tree.feature_, tree.children_left_, tree.children_right_
            )
            assert_arena_invariant(flatten_forest(_cart_arrays([tree])))


class TestFixedStrideDescent:
    """Edge cases of the descent, bitwise against the frozen
    level-synchronous kernel on the same builders' trees."""

    CHUNKS = (None, 1, 2, 5, 64, 1000)

    @pytest.fixture(scope="class")
    def mixed_trees(self, regression_data):
        """Deep CART trees, a root-is-leaf tree (constant target) and
        isolation trees of unequal depth, in one forest."""
        X, y = regression_data
        deep = DecisionTreeRegressor(random_state=0).fit(X, y)
        stump = DecisionTreeRegressor(max_depth=1, random_state=0).fit(X, y)
        const = DecisionTreeRegressor(random_state=0).fit(X, np.full(y.size, 2.5))
        assert const.n_nodes_ == 1
        itrees = IsolationForest(n_estimators=4, max_samples=64, random_state=3)
        return (
            _cart_arrays([deep, const, stump])
            + _itree_arrays(itrees._grow_trees(X))
            + _cart_arrays([const])
        )

    def test_mixed_depths_and_root_leaves(self, mixed_trees, rng):
        Q = rng.standard_normal((97, 6))
        leaves = assert_descent_matches_levelsync(mixed_trees, Q, self.CHUNKS)
        flat = flatten_forest(mixed_trees)
        # Both constant trees land every row on their root.
        assert (leaves[:, 1] == flat.roots[1]).all()
        assert (leaves[:, -1] == flat.roots[-1]).all()

    def test_nan_inf_and_signed_zero(self, mixed_trees, rng):
        special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324])
        Q = rng.standard_normal((300, 6))
        mask = rng.random(Q.shape) < 0.4
        Q[mask] = rng.choice(special, size=int(mask.sum()))
        assert_descent_matches_levelsync(mixed_trees, Q, self.CHUNKS)

    def test_signed_zero_against_a_zero_threshold(self):
        # Root: x0 <= 0.0 ? node 1 : node 2; node 1: x1 <= -inf ? 3 : 4.
        tree = (
            np.array([0, 1, -2, -2, -2]),
            np.array([0.0, -np.inf, np.nan, np.nan, np.nan]),
            np.array([1, 3, -1, -1, -1]),
            np.array([2, 4, -1, -1, -1]),
            np.arange(5.0),
        )
        Q = np.array(
            [
                [-0.0, 0.0],  # -0.0 <= 0.0 goes left; 0.0 > -inf goes right
                [0.0, -np.inf],  # equal goes left twice
                [np.nan, 0.0],  # NaN goes right
                [5e-324, 0.0],  # the smallest positive double goes right
                [-np.inf, np.nan],  # left, then NaN right
                [np.inf, np.inf],
            ]
        )
        leaves = assert_descent_matches_levelsync([tree], Q, self.CHUNKS)
        np.testing.assert_array_equal(leaves[:, 0], [4, 3, 2, 2, 4, 2])

    def test_x_equal_to_a_threshold(self, mixed_trees, rng):
        flat = flatten_forest(mixed_trees)
        internal = np.nonzero(flat.feature >= 0)[0]
        Q = rng.standard_normal((internal.size, 6))
        # Row i sits exactly on internal node i's threshold ...
        Q[np.arange(internal.size), flat.feature[internal]] = flat.threshold[internal]
        # ... and in these rows every column is some node's threshold.
        on_cuts = np.column_stack(
            [
                rng.choice(flat.threshold[internal[flat.feature[internal] == j]], 80)
                for j in range(6)
            ]
        )
        assert_descent_matches_levelsync(mixed_trees, Q, self.CHUNKS)
        assert_descent_matches_levelsync(mixed_trees, on_cuts, self.CHUNKS)

    def test_zero_rows(self, mixed_trees):
        leaves = assert_descent_matches_levelsync(
            mixed_trees, np.empty((0, 6)), self.CHUNKS
        )
        assert leaves.shape == (0, len(mixed_trees))

    def test_one_by_one_input_over_unequal_depths(self, rng):
        # A leaf's negative feature must not index outside a 1-element X.
        X = rng.standard_normal((200, 1))
        y = np.sin(4.0 * X[:, 0])
        carts = [
            DecisionTreeRegressor(random_state=0).fit(X, y),
            DecisionTreeRegressor(max_depth=2, random_state=0).fit(X, y),
            DecisionTreeRegressor(random_state=0).fit(X, np.zeros(200)),
        ]
        itrees = IsolationForest(n_estimators=3, random_state=1)._grow_trees(X)
        trees = _cart_arrays(carts) + _itree_arrays(itrees)
        for value in (-3.0, 0.1, 3.0, np.nan, -np.inf):
            assert_descent_matches_levelsync(trees, np.array([[value]]), self.CHUNKS)

    def test_input_narrower_than_the_splits_rejected(self, mixed_trees, rng):
        # The clipped gather would read a neighbouring row's cell instead.
        flat = flatten_forest(mixed_trees)
        assert flat.min_columns == 6
        narrow = rng.standard_normal((40, 5))
        with pytest.raises(ValueError, match="5 columns.*feature 5"):
            forest_apply(flat, narrow)
        with pytest.raises(ValueError, match="5 columns"):
            forest_value_sum(flat, narrow)
        # Columns beyond the largest split feature are never read.
        wide = rng.standard_normal((40, 9))
        np.testing.assert_array_equal(
            forest_apply(flat, wide), forest_apply(flat, wide[:, :6])
        )
        # A forest of root leaves reads no column at all.
        roots_only = flatten_forest([mixed_trees[1]])
        assert roots_only.min_columns == 0
        assert (forest_apply(roots_only, np.empty((3, 0))) == 0).all()

    def test_column_sliced_and_fortran_input(self, mixed_trees, rng):
        wide = rng.standard_normal((150, 14))
        views = (
            wide[:, 3:9],
            wide[:, ::2][:, :6],
            np.asfortranarray(wide[:, :6]),
            wide[::-3, 8:],
        )
        flat = flatten_forest(mixed_trees)
        for Q in views:
            expected = assert_descent_matches_levelsync(mixed_trees, Q, self.CHUNKS)
            np.testing.assert_array_equal(
                forest_apply(flat, np.ascontiguousarray(Q)), expected
            )


class TestIsolationForestScoring:
    def test_bitwise_vs_reference_loop(self, rng):
        X = rng.standard_normal((600, 6))
        Q = rng.standard_normal((250, 6))
        det = IsolationForest(n_estimators=40, random_state=5).fit(X)
        trees = IsolationForest(n_estimators=40, random_state=5)._grow_trees(X)
        np.testing.assert_array_equal(
            det.decision_function(Q), iforest_score_loop(trees, det._sub, Q)
        )

    def test_training_scores_bitwise(self, rng):
        X = rng.standard_normal((400, 4))
        det = IsolationForest(n_estimators=25, random_state=6).fit(X)
        trees = IsolationForest(n_estimators=25, random_state=6)._grow_trees(X)
        np.testing.assert_array_equal(
            det.decision_scores_, iforest_score_loop(trees, det._sub, X)
        )

    def test_pickle_ships_the_arena_and_never_reflattens(self, rng, monkeypatch):
        X = rng.standard_normal((300, 4))
        det = IsolationForest(n_estimators=10, random_state=7).fit(X)
        scores = det.decision_function(X)
        forbid_flatten(monkeypatch)
        clone = pickle.loads(pickle.dumps(det))
        assert not any(isinstance(v, list) for v in vars(clone).values())
        np.testing.assert_array_equal(clone.decision_function(X), scores)


class TestForestAndGBMPredict:
    def test_forest_bitwise_vs_reference_loop(self, regression_data, rng):
        X, y = regression_data
        Q = rng.standard_normal((700, 6))
        forest = RandomForestRegressor(n_estimators=30, random_state=0).fit(X, y)
        proto = RandomForestRegressor(n_estimators=30, random_state=0)
        trees = proto.fit_block(X, y, proto.tree_seeds())
        oracle = SimpleNamespace(estimators_=trees)
        np.testing.assert_array_equal(forest.predict(Q), forest_predict_loop(oracle, Q))

    def test_gbm_bitwise_vs_reference_loop(self, regression_data, rng):
        X, y = regression_data
        Q = rng.standard_normal((700, 6))
        gbm = GradientBoostingRegressor(n_estimators=60, random_state=0).fit(X, y)
        oracle = SimpleNamespace(
            estimators_=_gbm_oracle_stages(gbm, X, y),
            init_=float(y.mean()),
            learning_rate=gbm.learning_rate,
        )
        np.testing.assert_array_equal(gbm.predict(Q), gbm_predict_loop(oracle, Q))

    def test_gbm_staged_predict_consistent(self, regression_data):
        X, y = regression_data
        gbm = GradientBoostingRegressor(n_estimators=15, random_state=1).fit(X, y)
        stages = list(gbm.staged_predict(X[:80]))
        assert len(stages) == 15
        np.testing.assert_array_equal(stages[-1], gbm.predict(X[:80]))
        # Stage k is the frozen stage loop stopped after k trees.
        out = np.full(80, float(y.mean()))
        for got, tree in zip(stages, _gbm_oracle_stages(gbm, X, y)):
            out = out + gbm.learning_rate * tree.value_[_cart_apply(tree, X[:80])]
            np.testing.assert_array_equal(got, out)

    def test_pickle_roundtrip_bitwise(self, regression_data, rng, monkeypatch):
        X, y = regression_data
        Q = rng.standard_normal((90, 6))
        fitted = (
            RandomForestRegressor(n_estimators=8, random_state=2).fit(X, y),
            GradientBoostingRegressor(n_estimators=8, random_state=2).fit(X, y),
        )
        forbid_flatten(monkeypatch)
        for est in fitted:
            clone = pickle.loads(pickle.dumps(est))
            assert not any(isinstance(v, list) for v in vars(clone).values())
            np.testing.assert_array_equal(clone.predict(Q), est.predict(Q))

    def test_feature_count_validation(self, regression_data):
        X, y = regression_data
        forest = RandomForestRegressor(n_estimators=3, random_state=0).fit(X, y)
        with pytest.raises(ValueError, match="features"):
            forest.predict(X[:, :3])
