"""Unified nearest-neighbor facade: one exact Euclidean answer.

Euclidean indexes are always a :class:`~repro.neighbors.KDTree`, whose
query returns the canonical ``(distance, index)`` answer in any
dimension; how much tree it builds (a single leaf where pruning can
never pay) is the kernel's own cost rule, not a choice made here. Other
metrics — the paper's LOF grid varies ``metric`` — run chunked brute
force.
"""

from __future__ import annotations

import numpy as np

from repro.neighbors.brute import brute_force_kneighbors
from repro.neighbors.kdtree import KDTree
from repro.utils.validation import check_array, check_is_fitted

__all__ = ["NearestNeighbors"]


class NearestNeighbors:
    """Exact k-NN index.

    Parameters
    ----------
    n_neighbors : int, default 5
        Default ``k`` used when a query does not override it.
    metric : str, default 'euclidean'
        One of the metrics of :mod:`repro.utils.distances`;
        ``euclidean`` is served by the KD-tree, every other metric by
        brute force.
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
        self._tree = KDTree(X) if self.metric == "euclidean" else None
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
        # Whether the index holds a tree, not the metric, decides: an
        # index pickled without one keeps the path it was fitted on.
        if self._tree is not None:
            return self._tree.query(Xq, k, exclude_self=exclude_self)
        return brute_force_kneighbors(
            self._X,
            Xq,
            k,
            metric=self.metric,
            p=self.p,
            exclude_self=exclude_self,
        )
