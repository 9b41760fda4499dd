"""Flat batched forest traversal vs the per-tree reference paths, bitwise.

Every oracle here is fed per-tree arrays from a separate builder run —
an isolation-forest twin's ``_grow_trees``, a random-forest twin's
``fit_block`` or the frozen ``cart_fit_loop`` — never arrays cut back
out of the fitted ``forest_`` arena.
"""

import dataclasses
import pickle
from types import SimpleNamespace

import numpy as np
import pytest

import repro.detectors.iforest as iforest_mod
import repro.supervised.forest as forest_mod
from repro.detectors.iforest import IsolationForest
from repro.kernels import FlatForest, flatten_forest, forest_apply
from repro.kernels.reference import (
    _cart_apply,
    _tree_path_length,
    cart_fit_loop,
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


def assert_same_arena(a: FlatForest, b: FlatForest):
    for field in dataclasses.fields(FlatForest):
        x, y = getattr(a, field.name), getattr(b, field.name)
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
        # Leaf sentinels survive the offset shift untouched.
        assert (flat.left[flat.feature < 0] == -1).all()
        assert (flat.right[flat.feature < 0] == -1).all()

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
        # apply() is a one-root forest over the tree's own arrays; pin it
        # against the frozen level loop, across several row chunks.
        np.testing.assert_array_equal(tree.apply(Q), _cart_apply(tree, Q))
        np.testing.assert_array_equal(
            tree.predict(X), tree.value_[_cart_apply(tree, X)]
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
