"""Local Outlier Factor (Breunig et al., 2000).

Density-based: a point is outlying when its local reachability density is
low relative to that of its neighbors. Training computes k-distances,
reachability distances, and local reachability densities (lrd) over the
training set; new samples are scored against the training index (the
standard "novelty" formulation, which is what prediction on new-coming
samples in the paper requires).
"""

from __future__ import annotations

import numpy as np

from repro.detectors.base import BaseDetector
from repro.neighbors import neighbors_for_fit, neighbors_for_scoring

__all__ = ["LOF"]

_EPS = 1e-12


class LOF(BaseDetector):
    """Local Outlier Factor detector.

    Parameters
    ----------
    n_neighbors : int, default 20
    metric : str, default 'euclidean'
        Distance metric (the paper's model pool varies it across
        manhattan / euclidean / minkowski).
    p : float, default 2.0
        Minkowski order when ``metric='minkowski'``.
    contamination : float, default 0.1
    """

    def __init__(
        self,
        n_neighbors: int = 20,
        *,
        metric: str = "euclidean",
        p: float = 2.0,
        contamination: float = 0.1,
    ):
        super().__init__(contamination=contamination)
        self.n_neighbors = n_neighbors
        self.metric = metric
        self.p = p

    def _validate_params(self, X: np.ndarray) -> None:
        if not 1 <= self.n_neighbors <= X.shape[0] - 1:
            raise ValueError(
                f"n_neighbors={self.n_neighbors} out of [1, {X.shape[0] - 1}]"
            )

    def _neighbor_request(self) -> dict:
        return {
            "n_neighbors": self.n_neighbors,
            "metric": self.metric,
            "p": self.p,
        }

    def _fit(self, X: np.ndarray) -> np.ndarray:
        dist, idx = neighbors_for_fit(  # self-excluded
            self,
            X,
            n_neighbors=self.n_neighbors,
            metric=self.metric,
            p=self.p,
        )
        # k-distance of each training point = distance to its kth neighbor.
        self._kdist = dist[:, -1]
        # reach_dist(a <- b) = max(kdist(b), d(a, b)) for neighbor b of a.
        reach = np.maximum(dist, self._kdist[idx])
        self._lrd = 1.0 / (reach.mean(axis=1) + _EPS)
        lof = (self._lrd[idx].mean(axis=1)) / self._lrd
        return lof

    def _score(self, X: np.ndarray) -> np.ndarray:
        dist, idx = neighbors_for_scoring(self, X, n_neighbors=self.n_neighbors)
        reach = np.maximum(dist, self._kdist[idx])
        lrd_query = 1.0 / (reach.mean(axis=1) + _EPS)
        return self._lrd[idx].mean(axis=1) / lrd_query
