"""From-scratch KD-tree: the one exact Euclidean k-NN index.

Array-backed: internal nodes store a split dimension/value; every node
stores the ``[start, end)`` slice it owns in a reordered copy of the
data, so a leaf — or any subtree — is one contiguous block.

A query's answer is the ``k`` smallest distances with ties broken toward
the smaller original index (the canonical ``(distance, index)`` order) —
a pure function of the data. :meth:`KDTree.query` hands every batch,
from one row up, to :func:`repro.kernels.kdtree_query_batched`, which
runs one of two block engines with bitwise-identical results and picks
between them from ``(q, n, d, k, leaf_size)``:

- the **filter–refine scan** — one GEMM of approximate squared
  distances against the tree's data, a conservative per-row
  threshold, exact refinement of the survivors; wins wherever
  split-plane bounds barely prune (``d >= 8``), on small trees and for
  one-row serving queries;
- the **pruned sweep** — level-synchronous traversal with
  sum-of-squares lower bounds; wins in low ``d`` on large trees, where
  it touches a vanishing share of the rows.

How much tree to build follows from the same rule: where it can never
pick the sweep (:func:`~repro.kernels.neighbors.can_pick_sweep`) the
tree is a single leaf over the rows as given — identity permutation, no
build, and ``_data`` *is* the indexed array, so nothing is stored
twice.

The per-query best-first search that defines the canonical answer lives
on as the parity oracle in :mod:`repro.kernels.reference`
(``kdtree_query_best_first``); nothing on a production path calls it.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.kernels.neighbors import can_pick_sweep, kdtree_query_batched

__all__ = ["KDTree", "kdtree_build_count"]

_LEAF = -1

# Monotonic count of KD-tree builds in this process. The sharing plane's
# whole point is building each tree once per (space, metric) key; the
# benchmark gate and the serving-reuse tests read deltas of this counter
# to prove it. Lock-guarded so thread-pool builds count exactly.
_build_lock = threading.Lock()
_build_count = 0


def _record_build() -> None:
    global _build_count
    with _build_lock:
        _build_count += 1


def kdtree_build_count() -> int:
    """Number of KD-trees built in this process so far.

    Process-local: builds inside process-pool workers are not visible
    to the parent. Read deltas around the region under test.
    """
    return _build_count


class KDTree:
    """Exact Euclidean KD-tree.

    Parameters
    ----------
    X : (n, d) array
        Points to index. A split tree keeps a reordered copy; a
        one-leaf tree keeps ``X`` itself (module docstring).
    leaf_size : int, default 40
        Maximum number of points per leaf of a split tree.
    """

    def __init__(self, X: np.ndarray, *, leaf_size: int = 40):
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if X.shape[0] == 0:
            raise ValueError("cannot build a KDTree on zero points")
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        self.leaf_size = int(leaf_size)
        n, d = X.shape
        self._perm = np.arange(n)
        max_leaf = self.leaf_size if can_pick_sweep(n, d, self.leaf_size) else n

        # Flat node arrays, grown during the build.
        split_dim: list[int] = []
        split_val: list[float] = []
        left: list[int] = []
        right: list[int] = []
        start: list[int] = []
        end: list[int] = []

        def build(lo: int, hi: int) -> int:
            node = len(split_dim)
            split_dim.append(_LEAF)
            split_val.append(0.0)
            left.append(-1)
            right.append(-1)
            start.append(lo)
            end.append(hi)
            if hi - lo <= max_leaf:
                return node
            idx = self._perm[lo:hi]
            block = X[idx]
            spreads = block.max(axis=0) - block.min(axis=0)
            dim = int(np.argmax(spreads))
            # repro: allow[float-equality] -- max-min of identical coordinates is exactly 0.0; duplicate-point leaf test
            if spreads[dim] == 0.0:  # all duplicate points: keep as leaf
                return node
            mid = (hi - lo) // 2
            order = np.argpartition(block[:, dim], mid)
            self._perm[lo:hi] = idx[order]
            value = X[self._perm[lo + mid], dim]
            split_dim[node] = dim
            split_val[node] = float(value)
            left[node] = build(lo, lo + mid)
            right[node] = build(lo + mid, hi)
            return node

        import sys

        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 4 * int(np.log2(n + 1)) + 10000))
        try:
            build(0, n)
        finally:
            sys.setrecursionlimit(old_limit)
            # ``build`` recursing through its own closure cell is a
            # reference cycle (function -> __closure__ -> cell ->
            # function) that keeps X pinned until a cyclic GC pass --
            # for a shared-memory view, that blocks segment close in
            # pool workers. Clearing the cell makes teardown immediate.
            build = None  # noqa: F841

        self._split_dim = np.array(split_dim, dtype=np.int64)
        self._split_val = np.array(split_val, dtype=np.float64)
        self._left = np.array(left, dtype=np.int64)
        self._right = np.array(right, dtype=np.int64)
        self._start = np.array(start, dtype=np.int64)
        self._end = np.array(end, dtype=np.int64)
        # A one-leaf tree never permuted its rows: it indexes X itself.
        self._data = X if len(split_dim) == 1 else X[self._perm]
        self.n_samples_, self.n_features_ = X.shape
        _record_build()

    # ------------------------------------------------------------------
    def query(
        self,
        X_query: np.ndarray,
        k: int,
        *,
        exclude_self: bool = False,
        mode: str = "auto",
        block_rows: int = 1024,
    ) -> tuple[np.ndarray, np.ndarray]:
        """k nearest neighbors of each query point.

        Returns ``(distances, indices)`` sorted ascending per row by
        ``(distance, index)`` — ties broken toward the smaller original
        index; indices refer to the original (pre-permutation) row
        order. With ``exclude_self`` the query is assumed row-aligned
        with the indexed data and each point skips itself.

        Every call runs :func:`repro.kernels.kdtree_query_batched`
        (``block_rows`` queries per block at most), which picks its
        block engine from ``(q, n, d, k, leaf_size)``. ``mode`` names
        that one path (``'auto'`` or ``'batched'``); the repo
        benchmark's kernel probe still spells it.
        """
        X_query = np.asarray(X_query, dtype=np.float64)
        if X_query.ndim != 2 or X_query.shape[1] != self.n_features_:
            raise ValueError(
                f"query must be (q, {self.n_features_}), got {X_query.shape}"
            )
        max_k = self.n_samples_ - 1 if exclude_self else self.n_samples_
        if not 1 <= k <= max_k:
            raise ValueError(f"k={k} out of range [1, {max_k}]")
        if mode not in ("auto", "batched"):
            raise ValueError(f"mode must be auto|batched, got {mode!r}")
        return kdtree_query_batched(
            self, X_query, k, exclude_self=exclude_self, block_rows=block_rows
        )

    def __getstate__(self) -> dict:
        # The scan engine's operands are derived from _data on first
        # use; pickles and artifacts carry the tree only.
        state = self.__dict__.copy()
        state.pop("_scan_cache", None)
        return state
