"""Local Outlier Probabilities — LoOP (Kriegel et al., 2009).

A probabilistic variant of LOF cited in the paper's introduction among
the costly proximity detectors. Scores are calibrated probabilities in
[0, 1]: the probabilistic set distance (pdist) of each point is compared
to the expected pdist of its neighborhood, and the normalised deviation
is squashed through the Gaussian error function.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

from repro.detectors.base import BaseDetector
from repro.neighbors import neighbors_for_fit, neighbors_for_scoring

__all__ = ["LoOP"]

_EPS = 1e-12


class LoOP(BaseDetector):
    """Local Outlier Probability detector.

    Parameters
    ----------
    n_neighbors : int, default 20
    extent : float, default 2.0
        The lambda of the original paper: number of standard deviations
        defining the "density" scale (2.0 ≈ 95% significance).
    contamination : float, default 0.1
    """

    def __init__(
        self,
        n_neighbors: int = 20,
        *,
        extent: float = 2.0,
        contamination: float = 0.1,
    ):
        super().__init__(contamination=contamination)
        self.n_neighbors = n_neighbors
        self.extent = extent

    def _validate_params(self, X: np.ndarray) -> None:
        if not 1 <= self.n_neighbors <= X.shape[0] - 1:
            raise ValueError(
                f"n_neighbors={self.n_neighbors} out of [1, {X.shape[0] - 1}]"
            )
        if self.extent <= 0:
            raise ValueError("extent must be > 0")

    def _neighbor_request(self) -> dict:
        return {
            "n_neighbors": self.n_neighbors,
            "metric": "euclidean",
            "p": 2.0,
        }

    def _fit(self, X: np.ndarray) -> np.ndarray:
        dist, idx = neighbors_for_fit(self, X, n_neighbors=self.n_neighbors)
        # Probabilistic set distance: lambda * sqrt(mean squared distance).
        self._pdist = self.extent * np.sqrt((dist**2).mean(axis=1) + _EPS)
        plof = self._pdist / (self._pdist[idx].mean(axis=1) + _EPS) - 1.0
        self._nplof = self.extent * np.sqrt((plof**2).mean() + _EPS)
        return self._to_probability(plof)

    def _to_probability(self, plof: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, erf(plof / (self._nplof * np.sqrt(2.0))))

    def _score(self, X: np.ndarray) -> np.ndarray:
        dist, idx = neighbors_for_scoring(self, X, n_neighbors=self.n_neighbors)
        pdist_q = self.extent * np.sqrt((dist**2).mean(axis=1) + _EPS)
        plof = pdist_q / (self._pdist[idx].mean(axis=1) + _EPS) - 1.0
        return self._to_probability(plof)
