"""k-nearest-neighbors outlier detection (Ramaswamy et al., 2000).

The outlyingness of a point is a statistic of its distances to its k
nearest training neighbors: ``largest`` (the classic kth-distance),
``mean`` (average kNN — the paper's "aKNN"), or ``median``.

Prediction on new samples costs O(n d) per query — the canonical "costly"
detector that PSA (§3.4) approximates.
"""

from __future__ import annotations

import numpy as np

from repro.detectors.base import BaseDetector
from repro.neighbors import neighbors_for_fit, neighbors_for_scoring

__all__ = ["KNN", "AvgKNN", "MedKNN"]

_METHODS = ("largest", "mean", "median")


class KNN(BaseDetector):
    """kNN outlier detector.

    Parameters
    ----------
    n_neighbors : int, default 5
    method : {'largest', 'mean', 'median'}, default 'largest'
        Reduction applied to the k neighbor distances.
    metric : str, default 'euclidean'
    contamination : float, default 0.1
    """

    def __init__(
        self,
        n_neighbors: int = 5,
        *,
        method: str = "largest",
        metric: str = "euclidean",
        contamination: float = 0.1,
    ):
        super().__init__(contamination=contamination)
        if method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
        self.n_neighbors = n_neighbors
        self.method = method
        self.metric = metric

    def _validate_params(self, X: np.ndarray) -> None:
        if not 1 <= self.n_neighbors <= X.shape[0] - 1:
            raise ValueError(
                f"n_neighbors={self.n_neighbors} out of [1, {X.shape[0] - 1}]"
            )

    def _reduce(self, dist: np.ndarray) -> np.ndarray:
        if self.method == "largest":
            return dist[:, -1]
        if self.method == "mean":
            return dist.mean(axis=1)
        return np.median(dist, axis=1)

    def _neighbor_request(self) -> dict:
        return {
            "n_neighbors": self.n_neighbors,
            "metric": self.metric,
            "p": 2.0,
        }

    def _fit(self, X: np.ndarray) -> np.ndarray:
        dist, _ = neighbors_for_fit(  # self-excluded
            self, X, n_neighbors=self.n_neighbors, metric=self.metric
        )
        return self._reduce(dist)

    def _score(self, X: np.ndarray) -> np.ndarray:
        dist, _ = neighbors_for_scoring(self, X, n_neighbors=self.n_neighbors)
        return self._reduce(dist)


class AvgKNN(KNN):
    """Average-kNN detector (``KNN(method='mean')``), the paper's aKNN."""

    def __init__(self, n_neighbors: int = 5, **kwargs):
        kwargs.pop("method", None)
        super().__init__(n_neighbors, method="mean", **kwargs)


class MedKNN(KNN):
    """Median-kNN detector (``KNN(method='median')``)."""

    def __init__(self, n_neighbors: int = 5, **kwargs):
        kwargs.pop("method", None)
        super().__init__(n_neighbors, method="median", **kwargs)
