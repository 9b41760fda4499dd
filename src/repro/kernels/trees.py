"""Flat batched tree traversal.

Every tree builder in this library grows flat per-tree arrays
(``feature``, ``threshold``, ``left``, ``right`` plus a per-node
payload). :func:`flatten_forest` concatenates a whole forest into one
node arena — which a fitted forest keeps as its only tree state,
``forest_`` — and :func:`forest_apply` routes **all rows through all
trees simultaneously**, so the Python interpreter runs ``O(max depth)``
iterations instead of ``O(n_trees * depth)``.

The arena is its own traversal table. Both builders create an internal
node's two children together, so the right child is always ``left + 1``
and the arena keeps no ``right`` array; a leaf's ``left`` points at the
leaf itself. One level of the descent is then, for every ``(row, tree)``
pair of a chunk::

    f = feature[node]                      # stop when no f >= 0 is left
    x = Xflat[row_base + f]                # one flat gather
    node = left[node] + (~(x <= threshold[node]) & (f >= 0))

Four gathers and a few elementwise passes, with no active-set
compaction: a pair at a leaf steps onto itself, and a NaN compares
False and goes right. Every pair makes the same ``x <= threshold``
comparisons in the same order as the per-tree walk until it reaches its
leaf, so the leaves — and the tree-order sums built on them — are
bitwise those of the loops frozen in :mod:`repro.kernels.reference`
(``forest_apply_levelsync`` is the active-set kernel this replaced).

Leaf convention: a node is a leaf iff ``feature[node] < 0`` (the isolation
forest uses ``-1``, the CART tree ``-2``; both are negative, so one kernel
serves both layouts).

Where the time goes: on the hetero pool's 1500-row scoring request, the
nine PSA approximator forests (50 trees, depth 12) and two isolation
forests are most of the call; perfbench's ``kernels.forest_score_rows_per_s``
and ``supervised.rf_predict_rows_per_s`` time the kernel, and
``benchmarks/fit_forest_pair_block.py`` times its pair block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FlatForest",
    "flatten_forest",
    "forest_apply",
    "forest_value_sum",
]

# Target number of simultaneous (row, tree) pairs per chunk: it bounds
# the descent's per-level arrays (a handful of 8-byte values a pair) to
# L2-cache scale whatever the forest size. Chosen on the hetero pool's
# 1500-row request, the one forests dominate: with
# benchmarks/fit_forest_pair_block.py on a shared 2-vCPU box, 1 << 14 was
# its fastest block in 5 of 8 sweeps and in a 40-repeat sweep. The
# script's all-workload pick is noise-bound there (1 << 13 to 1 << 17 in
# different runs), and serve_bulk_closed's 256-row request runs ~5 %
# faster at 1 << 15 or above (one chunk instead of two).
_PAIR_BLOCK = 1 << 14
# Row cap per chunk, kept from the level-synchronous kernel. Beside
# _PAIR_BLOCK it binds only on forests of fewer than 16 trees: the
# one-tree arena of DecisionTreeRegressor.predict (through apply), which
# GBM stage fitting and ablation A4's shallow_tree call. No benchmark
# times that traffic.
_CHUNK_ROW_CAP = 1024


@dataclass
class FlatForest:
    """A forest concatenated into a single flat node arena.

    ``roots[t]`` is the index of tree ``t``'s root inside the shared
    arrays; child pointers are pre-shifted into arena coordinates, so a
    traversal never needs to know which tree a node came from. The arena
    is its own traversal table: an internal node's right child is
    ``left + 1`` (there is no ``right`` array), and a leaf's ``left``
    points at the leaf itself. ``min_columns`` is the largest split
    feature plus one: the width an ``X`` must have to be scored.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    leaf_value: np.ndarray
    roots: np.ndarray
    min_columns: int

    @property
    def n_trees(self) -> int:
        return int(self.roots.size)


def _self_looping_children(feature, left, right, offset: int) -> np.ndarray:
    """One tree's ``left`` in arena coordinates, leaves pointing at
    themselves; raises unless every right child is ``left + 1``."""
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    internal = feature >= 0
    if not np.array_equal(right[internal], left[internal] + 1):
        raise ValueError(
            "flatten_forest needs adjacent siblings: every internal node's "
            "right child must be left + 1"
        )
    return np.where(internal, left, np.arange(feature.size)) + offset


def flatten_forest(trees) -> FlatForest:
    """Concatenate per-tree flat arrays into one :class:`FlatForest`.

    Parameters
    ----------
    trees : iterable of (feature, threshold, left, right, leaf_value)
        One tuple per tree, each entry a 1-D array over that tree's
        nodes; a node is a leaf iff its ``feature`` is negative, and an
        internal node's ``right`` must be its ``left + 1`` (both builders
        create siblings together). ``leaf_value`` is the per-node payload
        gathered after traversal (path adjustment for isolation trees,
        node mean for regression trees); its value at internal nodes is
        never read.
    """
    features, thresholds, lefts, values, roots = [], [], [], [], []
    offset = 0
    for feature, threshold, left, right, value in trees:
        feature = np.asarray(feature, dtype=np.int64)
        roots.append(offset)
        features.append(feature)
        thresholds.append(np.asarray(threshold, dtype=np.float64))
        lefts.append(_self_looping_children(feature, left, right, offset))
        values.append(np.asarray(value, dtype=np.float64))
        offset += feature.size
    if not features:
        raise ValueError("flatten_forest needs at least one tree")
    feature = np.concatenate(features)
    return FlatForest(
        feature=feature,
        threshold=np.concatenate(thresholds),
        left=np.concatenate(lefts),
        leaf_value=np.concatenate(values),
        roots=np.array(roots, dtype=np.int64),
        min_columns=max(int(feature.max()) + 1, 0),
    )


def _chunk_rows(n_trees: int) -> int:
    return max(1, min(_CHUNK_ROW_CAP, _PAIR_BLOCK // max(1, n_trees)))


def _checked_rows(flat: FlatForest, X) -> np.ndarray:
    """``X`` as float64, rejected when narrower than the forest's splits
    (the descent's clipped gather would read a neighbouring row)."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] < flat.min_columns:
        raise ValueError(
            f"X has {X.shape[1]} columns, but the forest splits on "
            f"feature {flat.min_columns - 1}"
        )
    return X


def _descend(flat: FlatForest, X: np.ndarray) -> np.ndarray:
    """Leaves of one chunk of rows, ``(rows, n_trees)``."""
    nb, d = X.shape
    n_trees = flat.n_trees
    feature, threshold, left = flat.feature, flat.threshold, flat.left
    # Row-major flat copy of the chunk (a view when X is C-ordered):
    # pair p = (row p // T, tree p % T) reads x at row_base[p] + f.
    Xflat = X.reshape(-1)
    row_base = np.repeat(np.arange(nb) * d, n_trees)
    node = np.tile(flat.roots, nb)
    while True:
        f = feature[node]
        internal = f >= 0
        if not internal.any():
            break
        # A leaf's negative feature reads some in-range x (clipped);
        # the ``internal`` mask discards that comparison.
        x = Xflat.take(row_base + f, mode="clip")
        # NaN compares False, so it goes right, as in the per-tree walk.
        go_right = ~(x <= threshold[node]) & internal
        node = left[node] + go_right
    return node.reshape(nb, n_trees)


def forest_apply(
    flat: FlatForest, X: np.ndarray, *, chunk_rows: int | None = None
) -> np.ndarray:
    """Leaf node (arena index) reached by every (row, tree) pair.

    Returns an ``(n_rows, n_trees)`` int64 array. Every pair of a chunk
    takes one step per level — a pair at a leaf steps onto itself — until
    the first level where no pair sits at an internal node, so scoring a
    100-tree forest costs ``max_depth`` Python iterations instead of
    ``100 * depth``. Rows are processed in chunks of ``chunk_rows`` to
    bound the working set. Raises ``ValueError`` when ``X`` has fewer
    columns than the forest splits on.
    """
    X = _checked_rows(flat, X)
    n = X.shape[0]
    if chunk_rows is None:
        chunk_rows = _chunk_rows(flat.n_trees)
    out = np.empty((n, flat.n_trees), dtype=np.int64)
    for start in range(0, n, chunk_rows):
        stop = min(start + chunk_rows, n)
        out[start:stop] = _descend(flat, X[start:stop])
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
    X = _checked_rows(flat, X)
    n = X.shape[0]
    n_trees = flat.n_trees
    if chunk_rows is None:
        chunk_rows = _chunk_rows(n_trees)
    out = np.full(n, init, dtype=np.float64)
    for start in range(0, n, chunk_rows):
        stop = min(start + chunk_rows, n)
        values = flat.leaf_value[_descend(flat, X[start:stop]).T]
        seg = out[start:stop]
        for t in range(n_trees):
            seg += values[t] if scale is None else scale * values[t]
    return out
