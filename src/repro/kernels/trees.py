"""Flat batched tree traversal.

Every tree in this library is already stored in flat arrays (``feature``,
``threshold``, ``left``, ``right`` plus a per-node payload), but before
this kernel existed each consumer walked its trees *one at a time*:
isolation forests looped Python-level over 100+ trees, and the regression
forests looped over their estimators calling ``predict`` per tree. The
kernels here concatenate a whole forest into one node arena and route
**all rows through all trees simultaneously** with a level-synchronous
gather loop, so the Python interpreter runs ``O(max depth)`` iterations
instead of ``O(n_trees * depth)`` — with bitwise-identical results,
because every (row, tree) pair performs exactly the same float
comparisons against the same thresholds as the per-tree walk.

Leaf convention: a node is a leaf iff ``feature[node] < 0`` (the isolation
forest uses ``-1``, the CART tree ``-2``; both are negative, so one kernel
serves both layouts).

Where the win lands: the per-tree loop pays its interpreter overhead per
tree per level, so it is slowest exactly where the serving architecture
operates — small consecutive scoring batches (the stream-serving pattern
of the execution plane, the serving micro-batches and the row blocks of
out-of-core scoring). Measured on the 1-CPU dev container with a 100-tree
forest: ~3.7x at 128-row batches, ~2.6x at 256, converging to parity
(±10%) for one-shot bulk scoring of several thousand rows, where both
formulations are memory-bandwidth-bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FlatForest",
    "flatten_forest",
    "tree_apply",
    "forest_apply",
    "forest_value_sum",
]

# Target number of simultaneous (row, tree) traversal states per chunk;
# bounds the working set of the gather loop to L2-cache scale regardless
# of forest size.
_PAIR_BLOCK = 1 << 17
# Row cap per chunk: beyond ~1k rows the per-level arrays outgrow cache
# and the gather loop turns bandwidth-bound (measured on a 1-CPU
# container; perfbench's ``kernels.forest_score_rows_per_s`` times it).
_CHUNK_ROW_CAP = 1024


@dataclass
class FlatForest:
    """A forest concatenated into a single flat node arena.

    ``roots[t]`` is the index of tree ``t``'s root inside the shared
    arrays; child pointers are pre-shifted into arena coordinates, so a
    traversal never needs to know which tree a node came from.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_value: np.ndarray
    roots: np.ndarray

    @property
    def n_trees(self) -> int:
        return int(self.roots.size)

    @property
    def dtype(self) -> np.dtype:
        """Float dtype the forest serves in (threshold/leaf payload)."""
        return self.threshold.dtype

    def cast(self, dtype) -> "FlatForest":
        """Copy of the forest serving in ``dtype`` (float32 mode).

        Only the float payload arrays are cast — node topology stays
        int64 and shared with the source forest. Casting to the current
        dtype returns ``self``, so the float64 path never copies.
        """
        dt = np.dtype(dtype)
        if dt == self.threshold.dtype:
            return self
        return FlatForest(
            feature=self.feature,
            threshold=self.threshold.astype(dt),
            left=self.left,
            right=self.right,
            leaf_value=self.leaf_value.astype(dt),
            roots=self.roots,
        )


def _shift_children(children: np.ndarray, offset: int) -> np.ndarray:
    children = np.asarray(children, dtype=np.int64)
    # Leaves keep their -1 sentinel; only real child pointers move.
    return np.where(children >= 0, children + offset, children)


def flatten_forest(trees) -> FlatForest:
    """Concatenate per-tree flat arrays into one :class:`FlatForest`.

    Parameters
    ----------
    trees : iterable of (feature, threshold, left, right, leaf_value)
        One tuple per tree, each entry a 1-D array over that tree's
        nodes. ``leaf_value`` is the per-node payload gathered after
        traversal (path adjustment for isolation trees, node mean for
        regression trees); its value at internal nodes is never read.
    """
    features, thresholds, lefts, rights, values, roots = [], [], [], [], [], []
    offset = 0
    for feature, threshold, left, right, value in trees:
        feature = np.asarray(feature, dtype=np.int64)
        roots.append(offset)
        features.append(feature)
        thresholds.append(np.asarray(threshold, dtype=np.float64))
        lefts.append(_shift_children(left, offset))
        rights.append(_shift_children(right, offset))
        values.append(np.asarray(value, dtype=np.float64))
        offset += feature.size
    if not features:
        raise ValueError("flatten_forest needs at least one tree")
    return FlatForest(
        feature=np.concatenate(features),
        threshold=np.concatenate(thresholds),
        left=np.concatenate(lefts),
        right=np.concatenate(rights),
        leaf_value=np.concatenate(values),
        roots=np.array(roots, dtype=np.int64),
    )


def tree_apply(
    feature: np.ndarray,
    threshold: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    X: np.ndarray,
    *,
    root: int = 0,
) -> np.ndarray:
    """Leaf node reached by every row of ``X`` in a single tree.

    The level-synchronous loop: all still-active rows take one step per
    iteration, so the Python overhead is ``O(depth)``, not ``O(n)``.
    """
    node_of = np.full(X.shape[0], root, dtype=np.int64)
    active = np.nonzero(feature[node_of] >= 0)[0]
    while active.size:
        nodes = node_of[active]
        f = feature[nodes]
        go_left = X[active, f] <= threshold[nodes]
        nxt = np.where(go_left, left[nodes], right[nodes])
        node_of[active] = nxt
        active = active[feature[nxt] >= 0]
    return node_of


def forest_apply(
    flat: FlatForest, X: np.ndarray, *, chunk_rows: int | None = None
) -> np.ndarray:
    """Leaf node (arena index) reached by every (row, tree) pair.

    Returns an ``(n_rows, n_trees)`` int64 array. All pairs descend
    together: one gather per level moves every active pair one step, so
    scoring a 100-tree forest costs ``max_depth`` Python iterations
    instead of ``100 * depth``. Rows are processed in chunks of
    ``chunk_rows`` to bound the working set.
    """
    # The stored threshold dtype keys the serving precision: float64
    # rows pass through untouched (bitwise-frozen path), float32 forests
    # compare in float32. The cast is a no-op unless dtypes differ.
    X = np.asarray(X)
    if X.dtype != flat.threshold.dtype:
        X = X.astype(flat.threshold.dtype)
    n = X.shape[0]
    n_trees = flat.n_trees
    if chunk_rows is None:
        chunk_rows = max(1, min(_CHUNK_ROW_CAP, _PAIR_BLOCK // max(1, n_trees)))
    out = np.empty((n, n_trees), dtype=np.int64)
    feature, threshold = flat.feature, flat.threshold
    left, right = flat.left, flat.right
    for start in range(0, n, chunk_rows):
        stop = min(start + chunk_rows, n)
        Xb = X[start:stop]
        nb = stop - start
        # Pair state, flattened row-major: pair p = (row p // T, tree p % T).
        node = np.tile(flat.roots, nb)
        row = np.repeat(np.arange(nb), n_trees)
        active = np.nonzero(feature[node] >= 0)[0]
        while active.size:
            nodes = node[active]
            f = feature[nodes]
            go_left = Xb[row[active], f] <= threshold[nodes]
            nxt = np.where(go_left, left[nodes], right[nodes])
            node[active] = nxt
            active = active[feature[nxt] >= 0]
        out[start:stop] = node.reshape(nb, n_trees)
    return out


def forest_value_sum(
    flat: FlatForest,
    X: np.ndarray,
    *,
    init: float = 0.0,
    scale: float | None = None,
    chunk_rows: int | None = None,
) -> np.ndarray:
    """Per-row sum of every tree's leaf payload, accumulated in tree order.

    Starting from ``init``, each tree's gathered ``leaf_value`` is added
    row-wise (scaled by ``scale`` when given — the GBM learning rate), in
    exactly the order and operation sequence of the per-tree prediction
    loops, so the result is bitwise-identical to them. Rows are
    traversed, gathered, and reduced chunk-by-chunk, keeping peak memory
    at ``O(chunk_rows * n_trees)`` instead of materialising the full
    ``(n_rows, n_trees)`` leaf matrix.
    """
    # Accumulate in the forest's serving dtype (float64 default —
    # bitwise-frozen; float32 when the forest was cast for serving).
    X = np.asarray(X)
    if X.dtype != flat.threshold.dtype:
        X = X.astype(flat.threshold.dtype)
    n = X.shape[0]
    n_trees = flat.n_trees
    if chunk_rows is None:
        chunk_rows = max(1, min(_CHUNK_ROW_CAP, _PAIR_BLOCK // max(1, n_trees)))
    out = np.full(n, init, dtype=flat.leaf_value.dtype)
    for start in range(0, n, chunk_rows):
        stop = min(start + chunk_rows, n)
        values = flat.leaf_value[forest_apply(flat, X[start:stop]).T]
        seg = out[start:stop]
        for t in range(n_trees):
            seg += values[t] if scale is None else scale * values[t]
    return out
