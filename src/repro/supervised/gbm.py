"""Gradient-boosted regression trees (least-squares boosting).

Built for the XGBOD-style semi-supervised extension
(:mod:`repro.semi_supervised`) the paper names in its future work, and
available as another PSA approximator family. Classic Friedman GBM:
stage k fits a shallow CART tree to the current residuals and adds it
with a learning-rate shrinkage; optional row subsampling gives
stochastic gradient boosting.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import forest_value_sum, rank_table
from repro.supervised.forest import _flat_cart_forest
from repro.supervised.tree import DecisionTreeRegressor
from repro.utils.random import check_random_state, spawn_seeds
from repro.utils.validation import check_array, check_is_fitted, column_or_1d

__all__ = ["GradientBoostingRegressor"]


class GradientBoostingRegressor:
    """Least-squares gradient boosting.

    Parameters
    ----------
    n_estimators : int, default 100
        Boosting stages.
    learning_rate : float, default 0.1
        Shrinkage per stage.
    max_depth : int, default 3
        Depth of each stage's tree (shallow trees = weak learners).
    subsample : float in (0, 1], default 1.0
        Row fraction per stage (< 1 gives stochastic boosting).
    min_samples_leaf : int, default 1
    random_state : seed or Generator.

    Attributes
    ----------
    estimators_ : list of fitted stage trees
    init_ : float — the constant initial prediction (target mean)
    train_score_ : (n_estimators,) array of training MSE per stage
    feature_importances_ : (d,) mean impurity importances over stages
    """

    def __init__(
        self,
        n_estimators: int = 100,
        *,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        subsample: float = 1.0,
        min_samples_leaf: int = 1,
        random_state=None,
    ):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.subsample = subsample
        self.min_samples_leaf = min_samples_leaf
        self.random_state = random_state

    def fit(self, X, y) -> "GradientBoostingRegressor":
        X = check_array(X, name="X")
        y = column_or_1d(np.asarray(y, dtype=np.float64), name="y")
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y have inconsistent lengths")
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")

        n = X.shape[0]
        rng = check_random_state(self.random_state)
        seeds = spawn_seeds(rng, self.n_estimators)
        self.init_ = float(y.mean())
        pred = np.full(n, self.init_)
        self.estimators_ = []
        self.train_score_ = np.empty(self.n_estimators)
        importances = np.zeros(X.shape[1])

        n_sub = max(2, int(round(self.subsample * n)))
        ranks = rank_table(X)  # one table for every stage: X never changes
        for k, seed in enumerate(seeds):
            residual = y - pred
            stage_rng = np.random.default_rng(seed)
            rows = (
                stage_rng.choice(n, size=n_sub, replace=False)
                if n_sub < n
                else np.arange(n)
            )
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                random_state=stage_rng,
            )
            tree.fit_ranked(X, residual, ranks, rows)
            self.estimators_.append(tree)
            pred += self.learning_rate * tree.predict(X)
            self.train_score_[k] = float(((y - pred) ** 2).mean())
            importances += tree.feature_importances_

        total = importances.sum()
        self.feature_importances_ = importances / total if total > 0 else importances
        self.n_features_in_ = X.shape[1]
        self._flat_cache = None
        return self

    def _flat_forest(self):
        if getattr(self, "_flat_cache", None) is None:
            self._flat_cache = _flat_cart_forest(self.estimators_)
        return self._flat_cache

    def __getstate__(self):
        # The flat arena duplicates the trees; rebuild it lazily on load
        # instead of pickling it — except under an arena-serialising
        # ensemble save, where the flat arrays become the memmapped
        # artifact blobs workers serve from.
        from repro.memory.arena import serialize_arenas_active

        state = self.__dict__.copy()
        if not serialize_arenas_active():
            state.pop("_flat_cache", None)
        state.pop("_serving_flat64", None)
        return state

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, "estimators_")
        X = check_array(X, name="X")
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, expected {self.n_features_in_}"
            )
        # One batched traversal per row chunk; stage values accumulate in
        # boosting order with the learning-rate scaling, bitwise the same
        # sum the per-stage prediction loop produced.
        return forest_value_sum(
            self._flat_forest(), X, init=self.init_, scale=self.learning_rate
        )

    def staged_predict(self, X):
        """Yield predictions after each boosting stage (for early-stop
        diagnostics). Deliberately lazy: each consumed stage pays one
        tree traversal, so breaking out early costs only the stages
        actually inspected."""
        check_is_fitted(self, "estimators_")
        X = check_array(X, name="X")
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, expected {self.n_features_in_}"
            )
        out = np.full(X.shape[0], self.init_)
        for tree in self.estimators_:
            out = out + self.learning_rate * tree.predict(X)
            yield out.copy()

    def score(self, X, y) -> float:
        """Coefficient of determination R^2."""
        y = column_or_1d(np.asarray(y, dtype=np.float64))
        pred = self.predict(X)
        ss_res = float(((y - pred) ** 2).sum())
        ss_tot = float(((y - y.mean()) ** 2).sum())
        return 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
