"""Score-combination primitives over a (n_models, n_samples) matrix.

All combiners expect raw detector outputs and standardise them first
(detectors emit scores on wildly different scales — LOF around 1, HBOS in
tens). Standardisation uses train-set statistics when provided so that
test scores stay comparable to train scores.
"""

from __future__ import annotations

import numpy as np

from repro.utils.random import check_random_state

__all__ = [
    "zscore_standardise",
    "ecdf_standardise",
    "mean_over_models",
    "average",
    "maximization",
    "aom",
    "moa",
    "weighted_average",
]


def _as_matrix(scores) -> np.ndarray:
    S = np.asarray(scores, dtype=np.float64)
    if S.ndim != 2:
        raise ValueError(f"scores must be (n_models, n_samples), got {S.shape}")
    if S.shape[0] < 1:
        raise ValueError("need at least one model")
    if not np.all(np.isfinite(S)):
        raise ValueError("scores contain NaN or infinity")
    return S


def mean_over_models(S: np.ndarray) -> np.ndarray:
    """Mean across the model axis, accumulated model by model.

    ``S.mean(axis=0)`` adds a C-ordered ``(m, n >= 2)`` matrix up in this
    very order, but sums an ``(m, 1)`` one pairwise once ``m >= 8`` — so
    a row scored alone could differ in the last bit from the same row
    inside a batch. Spelling the order out gives every row the bits the
    batched reduction gives it, whatever the shape or memory layout.
    """
    total = S[0].copy()
    for row in S[1:]:
        total += row
    total /= S.shape[0]
    return total


def zscore_standardise(scores, *, ref: np.ndarray | None = None) -> np.ndarray:
    """Row-wise z-scoring; statistics from ``ref`` rows when given.

    ``ref`` carries the train-set score matrix so new-sample scores are
    normalised on the *training* distribution of each model.
    """
    S = _as_matrix(scores)
    R = S if ref is None else _as_matrix(ref)
    if R.shape[0] != S.shape[0]:
        raise ValueError("ref must have the same number of models as scores")
    mu = R.mean(axis=1, keepdims=True)
    sd = R.std(axis=1, keepdims=True)
    sd[sd == 0.0] = 1.0  # repro: allow[float-equality] -- np.std of a constant row is exactly 0.0; degenerate-column guard
    return (S - mu) / sd


def ecdf_standardise(scores, *, ref: np.ndarray | None = None) -> np.ndarray:
    """Row-wise ECDF unification: map each score to its quantile in the
    model's reference (training) score distribution.

    Bounded in [0, 1] regardless of how heavy-tailed a model's raw score
    distribution is — the robust alternative to z-scoring when detectors
    like ABOD emit scores whose range is orders of magnitude beyond their
    standard deviation (which lets a single model dominate an averaged
    z-score combination).
    """
    S = _as_matrix(scores)
    R = S if ref is None else _as_matrix(ref)
    if R.shape[0] != S.shape[0]:
        raise ValueError("ref must have the same number of models as scores")
    out = np.empty_like(S)
    n_ref = R.shape[1]
    for i in range(S.shape[0]):
        sorted_ref = np.sort(R[i])
        # Midpoint of left/right insertion handles ties symmetrically.
        left = np.searchsorted(sorted_ref, S[i], side="left")
        right = np.searchsorted(sorted_ref, S[i], side="right")
        out[i] = 0.5 * (left + right) / n_ref
    return out


def average(scores, *, standardise: bool = True, ref=None) -> np.ndarray:
    """Mean across models (the paper's ``Avg`` combiner)."""
    S = zscore_standardise(scores, ref=ref) if standardise else _as_matrix(scores)
    return mean_over_models(S)


def maximization(scores, *, standardise: bool = True, ref=None) -> np.ndarray:
    """Max across models."""
    S = zscore_standardise(scores, ref=ref) if standardise else _as_matrix(scores)
    return S.max(axis=0)


def _random_buckets(
    n_models: int, n_buckets: int, rng: np.random.Generator
) -> list[np.ndarray]:
    if not 1 <= n_buckets <= n_models:
        raise ValueError(f"n_buckets={n_buckets} out of [1, {n_models}]")
    perm = rng.permutation(n_models)
    return [np.asarray(b) for b in np.array_split(perm, n_buckets)]


def aom(
    scores,
    n_buckets: int = 5,
    *,
    standardise: bool = True,
    ref=None,
    random_state=None,
) -> np.ndarray:
    """Average-of-Maximum: max within random buckets, then mean across."""
    S = zscore_standardise(scores, ref=ref) if standardise else _as_matrix(scores)
    rng = check_random_state(random_state)
    buckets = _random_buckets(S.shape[0], n_buckets, rng)
    return np.mean([S[b].max(axis=0) for b in buckets], axis=0)


def moa(
    scores,
    n_buckets: int = 5,
    *,
    standardise: bool = True,
    ref=None,
    random_state=None,
) -> np.ndarray:
    """Maximum-of-Average (the paper's ``MOA``): mean within buckets, max across."""
    S = zscore_standardise(scores, ref=ref) if standardise else _as_matrix(scores)
    rng = check_random_state(random_state)
    buckets = _random_buckets(S.shape[0], n_buckets, rng)
    return np.max([mean_over_models(S[b]) for b in buckets], axis=0)


def weighted_average(
    scores, weights, *, standardise: bool = True, ref=None
) -> np.ndarray:
    """Convex combination with per-model weights (must be non-negative)."""
    S = zscore_standardise(scores, ref=ref) if standardise else _as_matrix(scores)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (S.shape[0],):
        raise ValueError(f"weights must be ({S.shape[0]},), got {w.shape}")
    if (w < 0).any():
        raise ValueError("weights must be non-negative")
    total = w.sum()
    if total == 0:
        raise ValueError("weights sum to zero")
    return (w[:, None] * S).sum(axis=0) / total
