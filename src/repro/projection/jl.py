"""Johnson-Lindenstrauss random projections (§3.3).

Four transformation-matrix families, exactly as the paper defines them:

- ``basic`` — i.i.d. standard Gaussian entries;
- ``discrete`` — i.i.d. Rademacher entries (uniform on {-1, +1});
- ``circulant`` — the first row is Gaussian, each subsequent row is the
  previous one rotated by one position;
- ``toeplitz`` — first row and first column Gaussian, constant along
  every diagonal.

All are scaled by ``1/sqrt(k)`` so pairwise Euclidean distances are
preserved within ``(1 ± eps)``, but Eq. 1's tail does not hold equally
for all four. ``TestJLTailBound`` (``tests/projection/test_projectors.py``)
measures the share of pairs outside ``(1 ± eps)`` on SUOD's projectors at
k = 2/3 d against ``2 exp(-eps² k / 6)``: ``basic`` and ``discrete`` hold
it up to eps = 0.7, ``circulant`` and ``toeplitz`` (the default) only up
to eps = 0.5. Their tails are heavier: toeplitz sits 1.35x over the bound
at eps = 0.7 and 13x over at eps = 0.9. The structured families need
only O(d + k) random numbers, which is where their speed advantage in
Table 1 comes from.
"""

from __future__ import annotations

import numpy as np

from repro.projection.base import BaseProjector
from repro.utils.random import check_random_state
from repro.utils.validation import check_is_fitted

__all__ = ["JLProjector", "JL_FAMILIES", "jl_min_dim"]

JL_FAMILIES = ("basic", "discrete", "circulant", "toeplitz")


def jl_min_dim(n_samples: int, eps: float = 0.3) -> int:
    """Minimum target dimension k = O(log n / eps^2) for the Eq. 1 bound.

    Uses the standard constant of the distortion lemma matching the
    paper's tail bound ``2 exp(-eps^2 k / 6)``.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be in (0, 1)")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    return int(np.ceil(6.0 * np.log(max(n_samples, 2)) / eps**2))


def _draw_matrix(family: str, d: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Draw the (d, k) transformation matrix W (pre-scaling)."""
    if family == "basic":
        return rng.standard_normal((d, k))
    if family == "discrete":
        return rng.choice((-1.0, 1.0), size=(d, k))
    if family == "circulant":
        # Rows of the (k, d) projector are rotations of one Gaussian row;
        # we store the transpose (d, k).
        first = rng.standard_normal(d)
        P = np.empty((k, d))
        for i in range(k):
            P[i] = np.roll(first, i)
        return P.T
    if family == "toeplitz":
        # (k, d) Toeplitz from a Gaussian first column (k,) and row (d,).
        col = rng.standard_normal(k)
        row = rng.standard_normal(d)
        row[0] = col[0]
        # T[i, j] = vals[k - 1 - i + j]: col down the first column, row
        # along the first row. The gather is C-ordered (k, d), so W is an
        # F-ordered (d, k) view: saved artifacts and X @ W's BLAS call
        # depend on that layout, not just on the values.
        vals = np.concatenate((col[::-1], row[1:]))
        return vals[(k - 1) - np.arange(k)[:, None] + np.arange(d)].T
    raise ValueError(f"family must be one of {JL_FAMILIES}, got {family!r}")


class JLProjector(BaseProjector):
    """Random JL projection ``f(x) = (1/sqrt(k)) x W``.

    Parameters
    ----------
    n_components : int
        Target dimension k.
    family : {'basic', 'discrete', 'circulant', 'toeplitz'}, default 'toeplitz'
        Matrix distribution; toeplitz is the paper's default choice
        (best performer in Table 1).
    random_state : seed or Generator.

    Attributes
    ----------
    W_ : (d, k) transformation matrix (unscaled; scaling applied in
         transform so the stored matrix matches the paper's definition).
    """

    def __init__(
        self, n_components: int, *, family: str = "toeplitz", random_state=None
    ):
        if family not in JL_FAMILIES:
            raise ValueError(f"family must be one of {JL_FAMILIES}, got {family!r}")
        self.n_components = n_components
        self.family = family
        self.random_state = random_state

    def fit(self, X) -> "JLProjector":
        X = self._check_input(X)
        d = X.shape[1]
        k = self.n_components
        if k < 1:
            raise ValueError("n_components must be >= 1")
        rng = check_random_state(self.random_state)
        self.W_ = _draw_matrix(self.family, d, k, rng)
        self.n_features_in_ = d
        self.n_components_ = k
        return self

    def transform(self, X) -> np.ndarray:
        check_is_fitted(self, "W_")
        X = self._check_input(X, self.n_features_in_)
        return (X @ self.W_) / np.sqrt(self.n_components_)
