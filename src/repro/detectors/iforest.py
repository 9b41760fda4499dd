"""Isolation Forest (Liu, Ting & Zhou, 2008).

Outliers are few and different, so random axis-parallel splits isolate
them in short paths. Each iTree is grown on a subsample with uniformly
random (feature, threshold) splits up to the standard height limit
``ceil(log2(max_samples))``; the anomaly score is
``2 ** (-E[path length] / c(max_samples))``.

iForest is fast at prediction (O(t * log n) per sample) — like HBOS it is
*not* in the costly pool and PSA leaves it untouched (§3.4).
"""

from __future__ import annotations

import numpy as np

from repro.detectors.base import BaseDetector
from repro.kernels import flatten_forest, forest_value_sum
from repro.utils.random import check_random_state, spawn_seeds

__all__ = ["IsolationForest"]

_EULER_GAMMA = 0.5772156649015329
_LEAF = -1


def _average_path_length(n) -> np.ndarray | float:
    """Expected unsuccessful-search path length c(n) in a BST of size n."""
    n = np.asarray(n, dtype=np.float64)
    out = np.zeros_like(n)
    big = n > 2
    out[big] = 2.0 * (np.log(n[big] - 1.0) + _EULER_GAMMA) - 2.0 * (
        n[big] - 1.0
    ) / n[big]
    out[n == 2] = 1.0
    return out


# c(n) for every leaf size up to the 'auto' subsample cap, precomputed
# with the vectorised formula above so the values are bitwise the same —
# the tree build used to allocate a fresh 1-element array per leaf just
# to read one of these.
_C_CACHE_MAX = 256
_C_CACHE = _average_path_length(np.arange(_C_CACHE_MAX + 1))


def _leaf_path_adjust(depth: int, size: int) -> float:
    """Leaf annotation: depth plus the expected remaining path c(size)."""
    if size <= _C_CACHE_MAX:
        return depth + _C_CACHE[size]
    return depth + float(_average_path_length(np.array([size]))[0])


class _ITree:
    """The isolation-tree builder: one tree grown into flat arrays."""

    __slots__ = ("feature", "threshold", "left", "right", "path_adjust")

    def __init__(
        self,
        X: np.ndarray,
        height_limit: int,
        rng: np.random.Generator,
        feature_subset: np.ndarray,
    ):
        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        path_adjust: list[float] = []  # depth + c(size) at leaves, 0 internal

        stack: list[tuple[np.ndarray, int, int, int]] = []

        def new_node() -> int:
            feature.append(_LEAF)
            threshold.append(np.nan)
            left.append(-1)
            right.append(-1)
            path_adjust.append(0.0)
            return len(feature) - 1

        root = new_node()
        stack.append((np.arange(X.shape[0]), 0, root, 0))
        while stack:
            idx, depth, node, _ = stack.pop()
            size = idx.size
            if depth >= height_limit or size <= 1:
                path_adjust[node] = _leaf_path_adjust(depth, size)
                continue
            # Pick a feature with spread; give up after trying all.
            cand = rng.permutation(feature_subset)
            chosen = -1
            for f in cand:
                col = X[idx, f]
                lo, hi = col.min(), col.max()
                if hi > lo:
                    chosen = int(f)
                    break
            if chosen < 0:  # all duplicate rows
                path_adjust[node] = _leaf_path_adjust(depth, size)
                continue
            col = X[idx, chosen]
            lo, hi = col.min(), col.max()
            thr = rng.uniform(lo, hi)
            mask = col <= thr
            if mask.all() or not mask.any():  # numerical edge: force a cut
                mask = col < np.median(col)
                if not mask.any() or mask.all():
                    path_adjust[node] = _leaf_path_adjust(depth, size)
                    continue
            feature[node] = chosen
            threshold[node] = float(thr)
            l, r = new_node(), new_node()
            left[node], right[node] = l, r
            stack.append((idx[mask], depth + 1, l, 0))
            stack.append((idx[~mask], depth + 1, r, 0))

        self.feature = np.array(feature, dtype=np.int64)
        self.threshold = np.array(threshold, dtype=np.float64)
        self.left = np.array(left, dtype=np.int64)
        self.right = np.array(right, dtype=np.int64)
        self.path_adjust = np.array(path_adjust, dtype=np.float64)


class IsolationForest(BaseDetector):
    """Isolation forest detector.

    Parameters
    ----------
    n_estimators : int, default 100
    max_samples : int or 'auto', default 'auto'
        Subsample size per tree ('auto' = min(256, n)).
    max_features : float in (0, 1], default 1.0
        Fraction of features each tree may split on.
    random_state : seed or Generator.
    contamination : float, default 0.1
    """

    def __init__(
        self,
        n_estimators: int = 100,
        *,
        max_samples="auto",
        max_features: float = 1.0,
        random_state=None,
        contamination: float = 0.1,
    ):
        super().__init__(contamination=contamination)
        self.n_estimators = n_estimators
        self.max_samples = max_samples
        self.max_features = max_features
        self.random_state = random_state

    def _validate_params(self, X: np.ndarray) -> None:
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < self.max_features <= 1.0:
            raise ValueError("max_features must be in (0, 1]")
        if self.max_samples != "auto" and int(self.max_samples) < 2:
            raise ValueError("max_samples must be >= 2")

    def _grow_trees(self, X: np.ndarray) -> list[_ITree]:
        """Every isolation tree, grown from ``random_state`` in fit order.

        ``fit`` flattens them into ``forest_`` and keeps nothing else of
        them; parity tests call this on a fresh twin to get the same
        trees from a separate builder run.
        """
        n, d = X.shape
        sub = self._subsample_size(n)
        height_limit = int(np.ceil(np.log2(max(sub, 2))))
        n_feat = max(1, int(self.max_features * d))
        rng = check_random_state(self.random_state)
        trees = []
        for seed in spawn_seeds(rng, self.n_estimators):
            t_rng = np.random.default_rng(seed)
            idx = t_rng.choice(n, size=sub, replace=False) if sub < n else np.arange(n)
            feats = (
                t_rng.choice(d, size=n_feat, replace=False)
                if n_feat < d
                else np.arange(d)
            )
            trees.append(_ITree(X[idx], height_limit, t_rng, feats))
        return trees

    def _subsample_size(self, n: int) -> int:
        if self.max_samples == "auto":
            return min(256, n)
        return min(int(self.max_samples), n)

    def _fit(self, X: np.ndarray) -> np.ndarray:
        self._sub = self._subsample_size(X.shape[0])
        self.forest_ = flatten_forest(
            (t.feature, t.threshold, t.left, t.right, t.path_adjust)
            for t in self._grow_trees(X)
        )
        return self._score(X)

    def _score(self, X: np.ndarray) -> np.ndarray:
        # One batched traversal per row chunk; the leaf path adjustments
        # accumulate tree-by-tree in fit order, bitwise the same sum the
        # per-tree scoring loop produced.
        depths = forest_value_sum(self.forest_, X)
        depths /= self.forest_.n_trees
        c = float(_average_path_length(np.array([self._sub]))[0]) or 1.0
        return 2.0 ** (-depths / c)
