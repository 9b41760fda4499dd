"""Angle-Based Outlier Detection — fast kNN variant (Kriegel et al., 2008).

Outliers sit at the border of the data cloud, so the *angles* they form
with pairs of other points vary little; inliers, surrounded on all sides,
see a wide spread of angles. The angle-based outlier factor (ABOF) is the
variance of the distance-weighted cosine over pairs of neighbors; the
decision score is ``-ABOF`` so that larger means more outlying, matching
the library-wide convention.

This is the fast variant: pairs are drawn from the k nearest neighbors
only (the full O(n^3) enumeration is intractable at paper scale).
"""

from __future__ import annotations

import numpy as np

from repro.detectors.base import BaseDetector
from repro.kernels import pairwise_angle_variance
from repro.neighbors import neighbors_for_fit, neighbors_for_scoring

__all__ = ["ABOD"]

_EPS = 1e-12


class ABOD(BaseDetector):
    """Fast angle-based outlier detector.

    Parameters
    ----------
    n_neighbors : int, default 10
        Neighborhood size from which angle pairs are drawn (needs >= 2).
    contamination : float, default 0.1
    """

    def __init__(self, n_neighbors: int = 10, *, contamination: float = 0.1):
        super().__init__(contamination=contamination)
        self.n_neighbors = n_neighbors

    def _validate_params(self, X: np.ndarray) -> None:
        if not 2 <= self.n_neighbors <= X.shape[0] - 1:
            raise ValueError(
                f"n_neighbors={self.n_neighbors} out of [2, {X.shape[0] - 1}]"
            )

    def _neighbor_request(self) -> dict:
        return {
            "n_neighbors": self.n_neighbors,
            "metric": "euclidean",
            "p": 2.0,
        }

    def _fit(self, X: np.ndarray) -> np.ndarray:
        self._X = X
        _, idx = neighbors_for_fit(self, X, n_neighbors=self.n_neighbors)
        return self._scores_from_neighbors(X, idx)

    def _scores_from_neighbors(self, Q: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Negated ABOF per query: variance over neighbor pairs of the
        distance-weighted cosine ``<a, b> / (|a|^2 |b|^2)``. The squared
        norms both weight by proximity (dense surroundings -> large
        magnitudes -> high variance) and normalise the angle, reproducing
        the original ABOF definition; the chunked kernel computes it for
        all queries at once, bitwise-equal to the per-query loop.
        """
        return -pairwise_angle_variance(Q, self._X, idx, eps=_EPS)

    def _score(self, X: np.ndarray) -> np.ndarray:
        _, idx = neighbors_for_scoring(self, X, n_neighbors=self.n_neighbors)
        return self._scores_from_neighbors(X, idx)
