"""Rank-space CART builder vs the frozen float-sort oracle, byte for byte.

The live builder (``repro.kernels.splits`` + ``DecisionTreeRegressor``)
sorts dense integer ranks where the oracle
(``repro.kernels.reference.cart_fit_loop``) merge-sorts the float values.
Ties are the adversarial case: equal values forbid splits between them,
stable order decides which rows land left, and any deviation from the
oracle's float summation order would move a threshold. Every tree array
and the importances must be identical, not close.
"""

import dataclasses

import numpy as np
import pytest

import repro.kernels.splits as splits
from repro.kernels import FlatForest, RankedSplitSearch, flatten_forest, rank_table
from repro.kernels.reference import _cart_apply, best_split_loop, cart_fit_loop
from repro.supervised import (
    DecisionTreeRegressor,
    GradientBoostingRegressor,
    RandomForestRegressor,
)
from repro.utils.random import spawn_seeds

_TREE_ATTRS = (
    "feature_",
    "threshold_",
    "children_left_",
    "children_right_",
    "value_",
    "n_node_samples_",
    "feature_importances_",
)


def _assert_same_tree(oracle, live):
    assert oracle.n_nodes_ == live.n_nodes_
    assert oracle.max_depth_ == live.max_depth_
    for attr in _TREE_ATTRS:
        a, b = getattr(oracle, attr), getattr(live, attr)
        assert a.dtype == b.dtype, attr
        # tobytes: NaN leaf thresholds and the sign of zero count too.
        assert a.tobytes() == b.tobytes(), attr


def _assert_arena_of(trees, flat):
    """``flat`` is exactly ``trees`` concatenated in order."""
    expected = flatten_forest(
        (t.feature_, t.threshold_, t.children_left_, t.children_right_, t.value_)
        for t in trees
    )
    for field in dataclasses.fields(FlatForest):
        a, b = getattr(expected, field.name), getattr(flat, field.name)
        assert a.tobytes() == b.tobytes(), field.name


def _assert_fit_matches_oracle(X, y, **params):
    live = DecisionTreeRegressor(**params).fit(X, y)
    _assert_same_tree(cart_fit_loop(X, y, **params), live)
    return live


def _datasets(rng):
    n = 400
    yield "continuous", rng.standard_normal((n, 7)), rng.standard_normal(n)
    yield (
        "integer",
        rng.integers(0, 4, size=(n, 7)).astype(float),
        rng.standard_normal(n),
    )
    yield (
        "quantised",
        np.round(rng.standard_normal((n, 7)), 1),
        rng.standard_normal(n),
    )
    yield (
        "binary-with-constant",
        np.column_stack(
            [rng.integers(0, 2, size=(n, 5)).astype(float), np.zeros((n, 2))]
        ),
        rng.standard_normal(n),
    )
    signed_zero = rng.integers(-1, 2, size=(n, 4)).astype(float)
    signed_zero[rng.random((n, 4)) < 0.3] = -0.0
    yield "signed-zero", signed_zero, rng.standard_normal(n)
    # Duplicate rows with distinct targets: what a bootstrap produces.
    base = rng.standard_normal((n // 4, 5))
    yield "duplicate-rows", base[rng.integers(0, n // 4, n)], rng.standard_normal(n)


class TestRankTable:
    def test_dense_ranks_are_order_and_tie_isomorphic(self, rng):
        for name, X, _ in _datasets(rng):
            table = rank_table(X)
            assert table.shape == X.shape[::-1] and table.dtype == np.uint16, name
            for f in range(X.shape[1]):
                col, r = X[:, f], table[f].astype(np.int64)
                below = col[:, None] < col[None, :]
                assert (below == (r[:, None] < r[None, :])).all()
                assert r.max() == np.unique(col).size - 1  # dense, -0.0 == 0.0

    def test_width_follows_the_largest_rank(self, rng):
        wide = rng.permutation(70_000).astype(float)
        X = np.column_stack([wide, wide % 3])
        table = rank_table(X)
        assert table.dtype == np.uint32
        np.testing.assert_array_equal(table[0], wide.astype(np.uint32))
        assert rank_table(X[:65_536]).dtype == np.uint16


class TestSplitSearchParity:
    @staticmethod
    def _both(X, y, idx, feats, msl=1):
        y_node = y[idx]
        total = y_node.sum()
        oracle = best_split_loop(X, idx, feats, y_node, total, min_samples_leaf=msl)
        search = RankedSplitSearch(rank_table(X), idx.size, feats.size, msl)
        return oracle, search(idx, feats, y_node, total)

    def test_node_level_parity(self, rng):
        for name, X, y in _datasets(rng):
            idx = np.arange(X.shape[0])
            feats = np.arange(X.shape[1])
            for msl in (1, 5):
                oracle, live = self._both(X, y, idx, feats, msl)
                assert (oracle is None) == (live is None), (name, msl)
                if oracle is not None:
                    assert oracle[0] == feats[live[0]] and oracle[1] == live[1]
                    np.testing.assert_array_equal(oracle[2], live[2], err_msg=name)

    def test_repeated_rows_and_unsorted_candidates(self, rng):
        X = rng.integers(0, 3, size=(200, 9)).astype(float)
        y = rng.standard_normal(200)
        idx = rng.integers(0, 200, size=70)  # with repeats, like a bootstrap
        feats = np.array([7, 2, 5])  # unsorted candidate order matters
        oracle, live = self._both(X, y, idx, feats)
        assert oracle[0] == feats[live[0]] and oracle[1] == live[1]
        np.testing.assert_array_equal(oracle[2], live[2])

    def test_two_row_node(self):
        X = np.array([[1.0, 5.0], [1.0, 4.0]])
        y = np.array([0.0, 1.0])
        oracle, live = self._both(X, y, np.arange(2), np.arange(2))
        assert (oracle[0], oracle[1]) == (1, 0) == (live[0], live[1])
        np.testing.assert_array_equal(live[2], [1, 0])

    def test_no_valid_split(self):
        X = np.ones((10, 3))
        y = np.arange(10.0)
        oracle, live = self._both(X, y, np.arange(10), np.arange(3))
        assert oracle is None and live is None


class TestFittedTreeParity:
    @pytest.mark.parametrize("msl", [1, 3])
    @pytest.mark.parametrize("max_features", [None, "sqrt", 1])
    def test_tie_grid(self, rng, msl, max_features):
        for _, X, y in _datasets(rng):
            _assert_fit_matches_oracle(
                X, y, min_samples_leaf=msl, max_features=max_features, random_state=11
            )

    def test_stopping_rules(self, rng):
        for _, X, y in _datasets(rng):
            _assert_fit_matches_oracle(
                X, y, min_samples_leaf=4, min_samples_split=10, random_state=11
            )
            _assert_fit_matches_oracle(
                X, y, max_depth=3, min_impurity_decrease=1e-3, random_state=11
            )

    def test_two_rows(self):
        X = np.array([[0.0, 1.0], [-0.0, 2.0]])
        live = _assert_fit_matches_oracle(X, np.array([1.0, 3.0]))
        assert live.n_nodes_ == 3 and live.feature_[0] == 1

    @pytest.mark.parametrize("case", range(12))
    def test_seeded_random_sweep(self, case):
        rng = np.random.default_rng(1000 + case)
        n, d = int(rng.integers(2, 300)), int(rng.integers(1, 12))
        levels = int(rng.choice([2, 5, 50, 10**6]))  # tie level
        X = rng.integers(0, levels, size=(n, d)).astype(float) / 7.0
        y = np.round(rng.standard_normal(n), int(rng.integers(0, 4)))
        _assert_fit_matches_oracle(
            X,
            y,
            max_depth=[None, 2, 6][case % 3],
            min_samples_leaf=int(rng.integers(1, 4)),
            max_features=[None, "sqrt", 1, 0.5][case % 4],
            random_state=case,
        )

    @pytest.mark.parametrize("digit_bits", [3, 8])
    def test_multi_pass_radix_forced(self, rng, monkeypatch, digit_bits):
        # A uint16 table sorted in digits narrower than its width takes
        # the same several-pass LSD path a uint32 table takes at 16 bits.
        monkeypatch.setattr(splits, "_DIGIT_BITS", digit_bits)
        X = rng.integers(0, 300, size=(500, 6)).astype(float)
        y = rng.standard_normal(500)
        search = RankedSplitSearch(rank_table(X), 500, 6)
        assert search.passes == -(-16 // digit_bits) > 1
        for max_features in (None, "sqrt"):
            _assert_fit_matches_oracle(X, y, max_features=max_features, random_state=2)

    def test_wide_ranks_take_two_passes(self, rng):
        n = 70_000
        X = np.column_stack([rng.permutation(n), rng.integers(0, 5, n)]).astype(float)
        y = rng.standard_normal(n)
        assert RankedSplitSearch(rank_table(X), n, 2).passes == 2
        _assert_fit_matches_oracle(X, y, max_depth=3)


def _oracle_forest(forest, X, y):
    """What ``RandomForestRegressor`` grew before it shared a rank table:
    one float copy ``X[idx]`` and one float-sort tree per seed."""
    trees = []
    for seed in forest.tree_seeds():
        tree_rng = np.random.default_rng(seed)
        n = X.shape[0]
        idx = tree_rng.integers(0, n, size=n) if forest.bootstrap else np.arange(n)
        trees.append(
            cart_fit_loop(
                X[idx],
                y[idx],
                max_depth=forest.max_depth,
                min_samples_split=forest.min_samples_split,
                min_samples_leaf=forest.min_samples_leaf,
                max_features=forest.max_features,
                min_impurity_decrease=forest.min_impurity_decrease,
                random_state=tree_rng,
            )
        )
    return trees


class TestEnsemblesShareOneTable:
    @pytest.mark.parametrize("bootstrap", [True, False])
    def test_forest_trees_match_oracle(self, rng, bootstrap):
        X = rng.integers(0, 4, size=(250, 6)).astype(float)
        y = rng.standard_normal(250)
        forest = RandomForestRegressor(
            n_estimators=6, min_samples_leaf=2, bootstrap=bootstrap, random_state=3
        ).fit(X, y)
        oracles = _oracle_forest(forest, X, y)
        live = forest.fit_block(X, y, forest.tree_seeds())
        for oracle, tree in zip(oracles, live):
            _assert_same_tree(oracle, tree)
        _assert_arena_of(oracles, forest.forest_)

    def test_fit_equals_blocks_for_every_block_count(self, rng):
        X = np.round(rng.standard_normal((200, 5)), 1)
        y = rng.standard_normal(200)
        proto = RandomForestRegressor(n_estimators=6, random_state=9)
        whole = RandomForestRegressor(n_estimators=6, random_state=9).fit(X, y)
        seeds = proto.tree_seeds()
        for n_blocks in range(1, 7):
            cuts = np.linspace(0, 6, n_blocks + 1).astype(int)
            blocks = [
                proto.fit_block(X, y, seeds[lo:hi]) for lo, hi in zip(cuts, cuts[1:])
            ]
            joined = RandomForestRegressor(n_estimators=6, random_state=9)
            joined.assemble_blocks(blocks, X.shape[1])
            trees = [tree for block in blocks for tree in block]
            _assert_arena_of(trees, whole.forest_)
            _assert_arena_of(trees, joined.forest_)
            assert (
                whole.feature_importances_.tobytes()
                == joined.feature_importances_.tobytes()
            )

    def test_gbm_subsampled_stages_match_oracle(self, rng):
        X = rng.integers(0, 3, size=(200, 5)).astype(float)
        y = rng.standard_normal(200)
        gbm = GradientBoostingRegressor(
            n_estimators=8, subsample=0.6, min_samples_leaf=2, random_state=4
        ).fit(X, y)
        # The stage loop as it was: a float copy of the stage's rows.
        n, n_sub = 200, 120
        pred = np.full(n, float(y.mean()))
        oracles = []
        for seed in spawn_seeds(4, 8):
            stage_rng = np.random.default_rng(seed)
            rows = stage_rng.choice(n, size=n_sub, replace=False)
            oracle = cart_fit_loop(
                X[rows],
                (y - pred)[rows],
                max_depth=3,
                min_samples_leaf=2,
                random_state=stage_rng,
            )
            oracles.append(oracle)
            pred += 0.1 * oracle.value_[_cart_apply(oracle, X)]
        _assert_arena_of(oracles, gbm.forest_)
        np.testing.assert_array_equal(gbm.predict(X), pred)
