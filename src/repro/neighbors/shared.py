"""Routing layer between neighbor detectors and the sharing plane.

Proximity detectors (KNN/LOF/LoOP/ABOD) never query an index directly:
they call :func:`neighbors_for_fit` / :func:`neighbors_for_scoring`,
which answer from one of two sources with bitwise-identical results:

- **standalone** — build/query a private :class:`NearestNeighbors`
  exactly the way the detectors used to inline it (same constructor
  arguments, same ``kneighbors`` calls);
- **shared** — a fused max-k query result staged on the estimator by
  the sharing plane (:mod:`repro.pipeline.sharing`) via
  :func:`push_shared_neighbors`; the helper slices the consumer's own
  ``k`` prefix under the canonical-order contract
  (:func:`repro.kernels.slice_neighbor_prefix`).

The staged payload is one-shot: it is popped on first use, so a
detector re-fitted outside a plan silently falls back to the standalone
path. It is staged worker-side immediately before ``fit``/``_score``
and never crosses a pickle boundary. Staging is **thread-local** and
keyed by estimator identity: two threads may score one fitted model at
once (two plans in flight on the same estimator), and an
estimator-attribute stage would let one thread pop the other's slices.

This module is the statically-blessed path: the ``redundant-structure``
analysis rule flags detector code that constructs ``NearestNeighbors``
or ``KDTree`` inline instead of routing through these helpers.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.kernels.neighbors import kdtree_query_maxk, slice_neighbor_prefix
from repro.neighbors.api import NearestNeighbors

__all__ = [
    "build_shared_index",
    "discard_shared_neighbors",
    "fused_neighbor_query",
    "neighbors_for_fit",
    "neighbors_for_scoring",
    "push_shared_neighbors",
]

_tls = threading.local()


@dataclass
class _PendingNeighbors:
    """A fused (q, K) query result staged for one consumer slice."""

    dist: np.ndarray
    idx: np.ndarray
    drop_self: bool


def _staged() -> dict:
    staged = getattr(_tls, "staged", None)
    if staged is None:
        staged = _tls.staged = {}
    return staged


def push_shared_neighbors(est, dist, idx, *, drop_self: bool) -> None:
    """Stage a fused query result for ``est``'s next neighbor call.

    ``dist``/``idx`` are (q, K) canonical-order arrays covering at least
    the consumer's ``n_neighbors`` (plus one slack column when
    ``drop_self``). The target is the estimator itself, not an
    :class:`~repro.core.approximation.Approximator` wrapper. Pair with
    :func:`discard_shared_neighbors` on error paths so a consumer that
    raises before its neighbor call cannot leak its stage to a later
    task in the same thread.
    """
    _staged()[id(est)] = _PendingNeighbors(dist, idx, bool(drop_self))


def discard_shared_neighbors(est) -> None:
    """Drop any staged result for ``est`` in this thread (idempotent)."""
    _staged().pop(id(est), None)


def _pop_pending(est) -> _PendingNeighbors | None:
    return _staged().pop(id(est), None)


def neighbors_for_fit(
    est,
    X: np.ndarray,
    *,
    n_neighbors: int,
    metric: str = "euclidean",
    p: float = 2.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Self-excluded training-set neighbors for ``est`` over ``X``.

    Standalone: builds ``est._nn`` and runs the classic
    ``kneighbors()`` self-query. Shared: slices the staged fused result
    (dropping each row's own index) and leaves ``est._nn`` unset — the
    sharing plane injects the single shared index afterwards.
    """
    pending = _pop_pending(est)
    if pending is not None:
        self_rows = np.arange(X.shape[0]) if pending.drop_self else None
        return slice_neighbor_prefix(
            pending.dist, pending.idx, n_neighbors, self_rows=self_rows
        )
    est._nn = NearestNeighbors(n_neighbors=n_neighbors, metric=metric, p=p).fit(X)
    return est._nn.kneighbors()


def neighbors_for_scoring(
    est, X: np.ndarray, *, n_neighbors: int
) -> tuple[np.ndarray, np.ndarray]:
    """Neighbors of query rows ``X`` against ``est``'s fitted index.

    Shared: slices the staged fused result (no self-drop — queries are
    new points). Standalone: queries ``est._nn`` at the explicit ``k``
    (the index may be shared across detectors with different defaults).
    """
    pending = _pop_pending(est)
    if pending is not None:
        return slice_neighbor_prefix(pending.dist, pending.idx, n_neighbors)
    return est._nn.kneighbors(X, n_neighbors=n_neighbors)


def build_shared_index(X: np.ndarray, *, metric: str = "euclidean") -> NearestNeighbors:
    """Build the one KD-tree index a sharing group's consumers will bind
    (the sharing plane forms Euclidean groups only)."""
    return NearestNeighbors(metric=metric).fit(X)


def fused_neighbor_query(
    nn: NearestNeighbors, X_query: np.ndarray, ks, *, cover_self: bool = False
) -> tuple[np.ndarray, np.ndarray, int]:
    """One producer-side query at ``shared_query_width(ks)`` against
    ``nn``'s KD-tree."""
    return kdtree_query_maxk(nn._tree, X_query, ks, cover_self=cover_self)
