"""CART regression tree grown in rank space.

The tree is stored in flat arrays (feature, threshold, children, value),
built iteratively with an explicit stack. It never sorts a float: the
training matrix is replaced once by its dense per-feature rank table
(:func:`repro.kernels.rank_table`), every node's split search
(:class:`repro.kernels.RankedSplitSearch`, variance-reduction / MSE
criterion) radix-sorts the node's gathered 16-bit ranks for all
candidate features at once, and ``X`` is read only for the two values
either side of a chosen threshold. A node carries its targets down the
stack in sorted order, so one reduction per node yields its value, the
mean its variance is taken around and the split search's total.
:meth:`DecisionTreeRegressor.fit_ranked` lets an ensemble compute the
table once and grow every tree on an index sample of it. The trees are
byte-identical to the float-sort builder frozen as
:func:`repro.kernels.reference.cart_fit_loop`.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import RankedSplitSearch, flatten_forest, forest_apply, rank_table
from repro.utils.random import check_random_state
from repro.utils.validation import check_array, check_is_fitted, column_or_1d

__all__ = ["DecisionTreeRegressor"]

_UNDEFINED = -2


def _resolve_max_features(max_features, n_features: int) -> int:
    if max_features is None:
        return n_features
    if isinstance(max_features, str):
        if max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if max_features == "log2":
            return max(1, int(np.log2(n_features)))
        raise ValueError(f"Unknown max_features string {max_features!r}")
    if isinstance(max_features, float):
        if not 0.0 < max_features <= 1.0:
            raise ValueError("float max_features must be in (0, 1]")
        return max(1, int(max_features * n_features))
    mf = int(max_features)
    if not 1 <= mf <= n_features:
        raise ValueError(f"max_features={mf} out of [1, {n_features}]")
    return mf


class DecisionTreeRegressor:
    """MSE-criterion CART regression tree.

    Parameters
    ----------
    max_depth : int or None
        Depth limit (root has depth 0). None = grow until pure/min sizes.
    min_samples_split : int, default 2
        Minimum node size eligible for splitting.
    min_samples_leaf : int, default 1
        Minimum samples in each child.
    max_features : int, float, 'sqrt', 'log2' or None
        Features sampled (without replacement) per split.
    min_impurity_decrease : float, default 0.0
        Minimum weighted impurity decrease to accept a split.
    random_state : seed or Generator
        Controls feature subsampling.

    Attributes
    ----------
    feature_importances_ : (d,) array
        Impurity-decrease importances, normalised to sum to 1.
    n_nodes_ : int
    max_depth_ : int
    """

    def __init__(
        self,
        *,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=None,
        min_impurity_decrease: float = 0.0,
        random_state=None,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.min_impurity_decrease = min_impurity_decrease
        self.random_state = random_state

    # ------------------------------------------------------------------
    def fit(self, X, y, sample_weight=None) -> "DecisionTreeRegressor":
        X = check_array(X, name="X")
        y = column_or_1d(np.asarray(y, dtype=np.float64), name="y")
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y have inconsistent lengths")
        if sample_weight is not None:
            raise NotImplementedError("sample_weight is not supported")
        return self.fit_ranked(X, y, rank_table(X))

    def fit_ranked(self, X, y, ranks, rows=None) -> "DecisionTreeRegressor":
        """Grow the tree on rows ``rows`` of ``X`` (all rows when ``None``).

        The entry ensembles use: ``ranks = rank_table(X)`` is computed
        once per training matrix and shared by every tree grown on it,
        and a bootstrap or subsample is the index array ``rows`` (repeats
        allowed) instead of a copy of ``X``. ``y`` is aligned with ``X``.
        The result is byte-for-byte ``fit(X[rows], y[rows])``. Inputs are
        trusted: validate at the public ``fit`` of the caller.
        """
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")

        d = X.shape[1]
        if rows is None:
            rows = np.arange(X.shape[0])
        n = rows.size
        rng = check_random_state(self.random_state)
        m_try = _resolve_max_features(self.max_features, d)
        max_depth = np.inf if self.max_depth is None else self.max_depth
        min_split = max(self.min_samples_split, 2 * self.min_samples_leaf)
        find_split = RankedSplitSearch(ranks, n, m_try, self.min_samples_leaf)
        all_feats = np.arange(d)
        reduce = np.add.reduce

        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        value: list[float] = []
        n_node: list[int] = []
        importances = np.zeros(d, dtype=np.float64)

        def new_node(size: int) -> int:
            node = len(feature)
            feature.append(_UNDEFINED)
            threshold.append(np.nan)
            left.append(-1)
            right.append(-1)
            value.append(np.nan)  # the mean, set when the node is popped
            n_node.append(size)
            return node

        # A node carries its rows of X and their targets down the stack;
        # both are cut from the parent's sorted order, never re-gathered.
        stack = [(rows, y[rows], 0, new_node(n))]
        depth_seen = 0

        while stack:
            idx, y_i, depth, node = stack.pop()
            depth_seen = max(depth_seen, depth)
            n_i = idx.size
            # One reduction gives the node's value, the mean its variance
            # is taken around and the split search's total.
            sum_total = reduce(y_i)
            mean = sum_total / n_i
            value[node] = float(mean)
            if depth >= max_depth or n_i < min_split:
                continue
            # Population variance, spelled as ndarray.var computes it.
            dev = y_i - mean
            dev *= dev
            node_var = reduce(dev) / n_i
            if node_var <= 1e-15:
                continue

            feats = rng.choice(d, size=m_try, replace=False) if m_try < d else all_feats
            found = find_split(idx, feats, y_i, sum_total)
            if found is None:
                continue
            j, best_pos, best_order = found
            best_f = int(feats[j])
            y_sorted = y_i[best_order]

            # Convert proxy back to true weighted impurity decrease.
            n_l = best_pos + 1
            n_r = n_i - n_l
            sum_left = reduce(y_sorted[:n_l])
            child_sse = (
                reduce(y_i * y_i)
                - sum_left**2 / n_l
                - (sum_total - sum_left) ** 2 / n_r
            )
            decrease = (n_i * node_var - child_sse) / n
            if decrease < self.min_impurity_decrease - 1e-15:
                continue

            idx_sorted = idx[best_order]
            lo = X[idx_sorted[best_pos], best_f]
            hi = X[idx_sorted[n_l], best_f]
            feature[node] = best_f
            threshold[node] = float(0.5 * (lo + hi))
            importances[best_f] += decrease
            l_node = new_node(n_l)
            r_node = new_node(n_r)
            left[node], right[node] = l_node, r_node
            stack.append((idx_sorted[:n_l], y_sorted[:n_l], depth + 1, l_node))
            stack.append((idx_sorted[n_l:], y_sorted[n_l:], depth + 1, r_node))

        self.feature_ = np.array(feature, dtype=np.int64)
        self.threshold_ = np.array(threshold, dtype=np.float64)
        self.children_left_ = np.array(left, dtype=np.int64)
        self.children_right_ = np.array(right, dtype=np.int64)
        self.value_ = np.array(value, dtype=np.float64)
        self.n_node_samples_ = np.array(n_node, dtype=np.int64)
        self.n_nodes_ = len(feature)
        self.n_features_in_ = d
        self.max_depth_ = depth_seen
        total = importances.sum()
        self.feature_importances_ = (importances / total if total > 0 else importances)
        return self

    # ------------------------------------------------------------------
    def apply(self, X) -> np.ndarray:
        """Leaf index reached by each sample (batched flat traversal)."""
        check_is_fitted(self, "feature_")
        X = check_array(X, name="X")
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, expected {self.n_features_in_}"
            )
        # A one-root forest: the same arena and traversal every forest
        # scores with.
        flat = flatten_forest(
            [
                (
                    self.feature_,
                    self.threshold_,
                    self.children_left_,
                    self.children_right_,
                    self.value_,
                )
            ]
        )
        return forest_apply(flat, X)[:, 0]

    def predict(self, X) -> np.ndarray:
        """Mean training target of the leaf each sample lands in."""
        leaves = self.apply(X)  # also performs the fitted check
        return self.value_[leaves]

    def score(self, X, y) -> float:
        """Coefficient of determination R^2."""
        y = column_or_1d(np.asarray(y, dtype=np.float64))
        pred = self.predict(X)
        ss_res = float(((y - pred) ** 2).sum())
        ss_tot = float(((y - y.mean()) ** 2).sum())
        return 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
