"""Dense Euclidean distance matrices.

OCSVM's kernels, k-means and the JL ablation measure squared or plain
Euclidean distances between two point sets; k-NN distances of every
metric are the KD-tree kernel's own (:mod:`repro.kernels.neighbors`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["pairwise_distances"]

_METRICS = ("euclidean", "sqeuclidean")


def pairwise_distances(
    X: np.ndarray,
    Y: np.ndarray | None = None,
    *,
    metric: str = "euclidean",
) -> np.ndarray:
    """Dense ``(len(X), len(Y))`` distance matrix.

    Uses the expanded dot-product identity (one BLAS matmul), clipped at
    zero: rounding can push tiny squared distances below it.
    """
    if metric not in _METRICS:
        raise ValueError(f"Unknown metric {metric!r}; choose from {_METRICS}")
    X = np.asarray(X, dtype=np.float64)
    Y = X if Y is None else np.asarray(Y, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2:
        raise ValueError("X and Y must be 2-D")
    if X.shape[1] != Y.shape[1]:
        raise ValueError(
            f"Dimension mismatch: X has {X.shape[1]} features, Y has {Y.shape[1]}"
        )
    # ||x - y||^2 = ||x||^2 + ||y||^2 - 2 x.y
    sq = (
        np.einsum("ij,ij->i", X, X)[:, None]
        + np.einsum("ij,ij->i", Y, Y)[None, :]
        - 2.0 * (X @ Y.T)
    )
    np.maximum(sq, 0.0, out=sq)
    if metric == "euclidean":
        np.sqrt(sq, out=sq)
    return sq
