"""Unified nearest-neighbor facade: one exact answer for every metric.

Every index is a :class:`~repro.neighbors.KDTree`. The metric is
resolved once, at fit, to a Minkowski order (:func:`minkowski_order`:
euclidean 2, manhattan 1, chebyshev ``inf``, minkowski its ``p``), and
a query returns the canonical ``(distance, index)`` answer of that
order in any dimension. How much tree it builds (a single leaf where
pruning can never pay, and for every order but 2) is the kernel's own
cost rule, not a choice made here.
"""

from __future__ import annotations

import numpy as np

from repro.neighbors.kdtree import KDTree
from repro.utils.validation import check_array, check_is_fitted

__all__ = ["NearestNeighbors", "minkowski_order"]

_ORDERS = {"euclidean": 2.0, "manhattan": 1.0, "chebyshev": np.inf}


def minkowski_order(metric: str, p: float = 2.0) -> float:
    """The Minkowski order a ``(metric, p)`` pair measures with.

    ``p`` is read for ``metric='minkowski'`` only and must be ``> 0``.
    Squared Euclidean is not a Minkowski distance and is rejected with
    every other unknown name.
    """
    if metric == "minkowski":
        if not p > 0:
            raise ValueError(f"minkowski requires p > 0, got {p}")
        return float(p)
    if metric not in _ORDERS:
        raise ValueError(
            f"Unknown metric {metric!r}; choose from {(*_ORDERS, 'minkowski')}"
        )
    return _ORDERS[metric]


class NearestNeighbors:
    """Exact k-NN index.

    Parameters
    ----------
    n_neighbors : int, default 5
        Default ``k`` used when a query does not override it.
    metric : {'euclidean', 'manhattan', 'chebyshev', 'minkowski'}
        Distance metric, resolved to a Minkowski order at fit.
    p : float
        Minkowski order when ``metric='minkowski'``.
    """

    def __init__(
        self,
        n_neighbors: int = 5,
        *,
        metric: str = "euclidean",
        p: float = 2.0,
    ):
        self.n_neighbors = n_neighbors
        self.metric = metric
        self.p = p

    def fit(self, X) -> "NearestNeighbors":
        X = check_array(X, name="X")
        self._X = X
        self._tree = KDTree(X, p=minkowski_order(self.metric, self.p))
        return self

    def kneighbors(
        self, X=None, n_neighbors: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Distances and indices of the k nearest fitted points.

        With ``X=None`` the training data is queried with each point
        excluded from its own neighborhood (the convention used when
        scoring the training set).
        """
        check_is_fitted(self, "_X")
        k = self.n_neighbors if n_neighbors is None else n_neighbors
        exclude_self = X is None
        Xq = self._X if exclude_self else check_array(X, name="X")
        if Xq.shape[1] != self._X.shape[1]:
            raise ValueError(
                f"query has {Xq.shape[1]} features, index has {self._X.shape[1]}"
            )
        return self._tree.query(Xq, k, exclude_self=exclude_self)
