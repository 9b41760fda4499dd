"""Chunked angle-variance kernel for ABOD.

The reference path loops Python-level over query points, building each
point's neighbor-pair difference vectors and einsum-reducing them one
query at a time. This kernel stacks a chunk of queries into a single
``(chunk, pairs, dim)`` batch and runs the identical einsum contractions
with one extra batch axis — ``np.einsum`` (non-optimized) reduces the
trailing dimension sequentially in both forms, so every dot product, norm
and variance is bitwise-identical to the loop. Chunking bounds the
materialised pair tensors to a few MB regardless of the query count.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pairwise_angle_variance"]

# Target number of float64 elements materialised per (chunk, pairs, dim)
# difference tensor.
_CHUNK_ELEMENTS = 1 << 22


def pairwise_angle_variance(
    Q: np.ndarray,
    X: np.ndarray,
    idx: np.ndarray,
    *,
    eps: float = 1e-12,
) -> np.ndarray:
    """Variance of the distance-weighted cosine over neighbor pairs.

    For each query row ``Q[i]`` with neighbor block ``X[idx[i]]`` this
    returns ``weighted.var()`` where ``weighted = <a, b> / (|a|^2 |b|^2 +
    eps)`` over all unordered neighbor pairs ``(a, b)`` — the ABOF of
    Kriegel et al., identical bitwise to the per-query reference loop.
    """
    n, k = idx.shape
    d = Q.shape[1]
    iu, ju = np.triu_indices(k, k=1)
    n_pairs = iu.size
    out = np.empty(n, dtype=np.float64)
    chunk = max(1, _CHUNK_ELEMENTS // max(1, n_pairs * d))
    for s in range(0, n, chunk):
        sl = slice(s, min(s + chunk, n))
        diff = X[idx[sl]] - Q[sl][:, None, :]  # (c, k, d)
        a = diff[:, iu, :]
        b = diff[:, ju, :]
        dot = np.einsum("qpd,qpd->qp", a, b)
        na = np.einsum("qpd,qpd->qp", a, a)
        nb = np.einsum("qpd,qpd->qp", b, b)
        weighted = dot / (na * nb + eps)
        # einsum hands back Fortran-ordered results here; the variance
        # must reduce a contiguous row to use the same summation order
        # as the per-query reference.
        out[sl] = np.ascontiguousarray(weighted).var(axis=1)
    return out
