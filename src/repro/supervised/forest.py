"""Bagged random forest regressor on top of the CART tree.

This is the paper's default pseudo-supervised approximator (§3.4, Remark
1: "supervised tree ensembles are recommended ... scalability, robustness
to overfitting, and interpretability") and the model behind the BPS cost
predictor (§3.5). Bootstrap sampling plus per-split feature subsampling.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import flatten_forest, forest_value_sum, rank_table
from repro.supervised.tree import DecisionTreeRegressor
from repro.utils.random import check_random_state, spawn_seeds
from repro.utils.validation import check_array, check_is_fitted, column_or_1d

__all__ = ["RandomForestRegressor"]


def _flat_cart_forest(trees):
    """Concatenate fitted CART trees for batched traversal."""
    return flatten_forest(
        (t.feature_, t.threshold_, t.children_left_, t.children_right_, t.value_)
        for t in trees
    )


class RandomForestRegressor:
    """Bagging ensemble of :class:`DecisionTreeRegressor`.

    Each tree fits a bootstrap sample: n rows drawn with replacement.

    Parameters
    ----------
    n_estimators : int, default 50
        Number of trees.
    max_depth : int or None, default 12
        Per-tree depth cap. The default keeps prediction cost ``O(p * h)``
        per sample — the property PSA relies on (§3.4).
    max_features : default 'sqrt'
        Features considered per split.
    min_samples_split, min_samples_leaf, min_impurity_decrease :
        Forwarded to each tree.
    random_state : seed or Generator.

    Attributes
    ----------
    forest_ : FlatForest
        Every tree in one node arena (:mod:`repro.kernels.trees`), in
        tree order; ``predict`` traverses it in one batched pass.
    feature_importances_ : (d,) array, mean of tree importances
    """

    def __init__(
        self,
        n_estimators: int = 50,
        *,
        max_depth: int | None = 12,
        max_features="sqrt",
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        min_impurity_decrease: float = 0.0,
        random_state=None,
    ):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.max_features = max_features
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.min_impurity_decrease = min_impurity_decrease
        self.random_state = random_state

    def _check_fit(self, X, y):
        X = check_array(X, name="X")
        y = column_or_1d(np.asarray(y, dtype=np.float64), name="y")
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y have inconsistent lengths")
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        return X, y

    def tree_seeds(self) -> list[int]:
        """Every tree's seed, drawn up front exactly as :meth:`fit` does.

        Tree ``j`` depends on ``seeds[j]`` alone, which is what makes a
        forest divisible: any partition of the seed list, fitted
        anywhere in any order and re-joined in tree order, is the forest
        ``fit`` grows.
        """
        return spawn_seeds(check_random_state(self.random_state), self.n_estimators)

    def _fit_tree(self, X, y, ranks, seed: int):
        n = X.shape[0]
        tree_rng = np.random.default_rng(seed)
        idx = tree_rng.integers(0, n, size=n)
        tree = DecisionTreeRegressor(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            min_impurity_decrease=self.min_impurity_decrease,
            random_state=tree_rng,
        )
        # The bootstrap sample is an index into the shared rank table,
        # not a float copy of X.
        return tree.fit_ranked(X, y, ranks, idx)

    def fit_block(self, X, y, seeds) -> list[DecisionTreeRegressor]:
        """Fit the trees of one contiguous slice of :meth:`tree_seeds`.

        Leaves ``self`` untouched; :meth:`assemble_blocks` joins the
        blocks.
        """
        X, y = self._check_fit(X, y)
        ranks = rank_table(X)
        return [self._fit_tree(X, y, ranks, seed) for seed in seeds]

    def assemble_blocks(self, blocks, n_features: int) -> "RandomForestRegressor":
        """Become the forest whose trees are ``blocks`` joined in order.

        With ``blocks`` covering :meth:`tree_seeds` in tree order the
        result is bitwise the forest :meth:`fit` grows, including
        ``feature_importances_`` (same trees, same summation order).
        The trees are flattened into ``forest_`` and not kept.
        """
        trees = [tree for block in blocks for tree in block]
        self.forest_ = _flat_cart_forest(trees)
        self.n_features_in_ = n_features
        self.feature_importances_ = np.mean(
            [t.feature_importances_ for t in trees], axis=0
        )
        return self

    def fit(self, X, y) -> "RandomForestRegressor":
        X, y = self._check_fit(X, y)
        blocks = [self.fit_block(X, y, self.tree_seeds())]
        return self.assemble_blocks(blocks, X.shape[1])

    def predict(self, X) -> np.ndarray:
        """Mean prediction across trees (batched flat traversal)."""
        check_is_fitted(self, "forest_")
        X = check_array(X, name="X")
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, expected {self.n_features_in_}"
            )
        # One batched traversal per row chunk; leaf means accumulate
        # tree-by-tree in fit order, bitwise the same sum the per-tree
        # prediction loop produced.
        out = forest_value_sum(self.forest_, X)
        out /= self.forest_.n_trees
        return out

    def score(self, X, y) -> float:
        """Coefficient of determination R^2."""
        y = column_or_1d(np.asarray(y, dtype=np.float64))
        pred = self.predict(X)
        ss_res = float(((y - pred) ** 2).sum())
        ss_tot = float(((y - y.mean()) ** 2).sum())
        return 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
