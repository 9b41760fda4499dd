"""Frozen pre-refactor reference paths for the vectorised kernels.

Every batched kernel in :mod:`repro.kernels` claims bitwise-identical
results to the per-row / per-tree / per-feature code it replaced. This
module preserves that replaced code verbatim, deliberately self-contained
(NumPy only, no imports from the live modules), so that

- the parity test suite (``tests/kernels/``) pins each kernel against the
  exact implementation it displaced, and
- the kernel microbenchmarks (``python -m repro kernels``,
  ``benchmarks/bench_kernels.py``) time honest before/after pairs.

Nothing here is called on a production path. Do not "improve" this
module: its value is that it does not change.
"""

from __future__ import annotations

import heapq
from types import SimpleNamespace

import numpy as np

__all__ = [
    "kdtree_query_heap",
    "kdtree_query_best_first",
    "iforest_score_loop",
    "forest_predict_loop",
    "gbm_predict_loop",
    "best_split_loop",
    "cart_fit_loop",
    "abod_scores_loop",
]

_LEAF = -1
_EULER_GAMMA = 0.5772156649015329
_EPS = 1e-12


# ---------------------------------------------------------------------------
# KD-tree: the original per-query best-first search with a Python heap of
# neighbor candidates, pushed and replaced one element at a time.
# ---------------------------------------------------------------------------
def _query_one_heap(tree, x: np.ndarray, k: int, self_index: int):
    # Max-heap of the current k best as (-dist, original_index).
    heap: list[tuple[float, int]] = []
    # Min-heap of nodes to visit as (lower_bound_dist, node).
    node_heap: list[tuple[float, int]] = [(0.0, 0)]
    while node_heap:
        bound, node = heapq.heappop(node_heap)
        if len(heap) == k and bound >= -heap[0][0]:
            break
        dim = tree._split_dim[node]
        if dim == _LEAF:
            lo, hi = tree._start[node], tree._end[node]
            block = tree._data[lo:hi]
            d = np.sqrt(((block - x) ** 2).sum(axis=1))
            orig = tree._perm[lo:hi]
            for dist, oi in zip(d, orig):
                if oi == self_index:
                    continue
                if len(heap) < k:
                    heapq.heappush(heap, (-dist, int(oi)))
                elif dist < -heap[0][0]:
                    heapq.heapreplace(heap, (-dist, int(oi)))
            continue
        diff = x[dim] - tree._split_val[node]
        near, far = (
            (tree._right[node], tree._left[node])
            if diff >= 0
            else (tree._left[node], tree._right[node])
        )
        heapq.heappush(node_heap, (bound, near))
        far_bound = max(bound, abs(diff))
        if len(heap) < k or far_bound < -heap[0][0]:
            heapq.heappush(node_heap, (far_bound, far))

    pairs = sorted((-nd, oi) for nd, oi in heap)
    dists = np.array([p[0] for p in pairs], dtype=np.float64)
    idxs = np.array([p[1] for p in pairs], dtype=np.int64)
    return dists, idxs


def kdtree_query_heap(tree, X_query: np.ndarray, k: int, *, exclude_self: bool = False):
    """The pre-refactor ``KDTree.query``: one heap-driven search per row."""
    X_query = np.asarray(X_query, dtype=np.float64)
    q = X_query.shape[0]
    out_d = np.empty((q, k), dtype=np.float64)
    out_i = np.empty((q, k), dtype=np.int64)
    for qi in range(q):
        out_d[qi], out_i[qi] = _query_one_heap(
            tree, X_query[qi], k, qi if exclude_self else -1
        )
    return out_d, out_i


# ---------------------------------------------------------------------------
# KD-tree: the per-query best-first search with vectorised leaf merges
# (``KDTree._query_one`` / ``mode="single"`` until PR 18). It defines the
# canonical answer — the k lexicographically smallest (distance, index)
# pairs under the elementwise distance — that both block engines of
# ``repro.kernels.neighbors`` must reproduce bitwise.
# ---------------------------------------------------------------------------
def _query_one_best_first(tree, x: np.ndarray, k: int, self_index: int):
    # Current best-k, kept sorted by (distance, index); unfilled
    # slots hold +inf with a sentinel index that sorts last.
    best_d = np.full(k, np.inf)
    best_i = np.full(k, tree.n_samples_, dtype=np.int64)
    kth = np.inf
    # Min-heap of nodes to visit as (lower_bound_dist, node).
    node_heap: list[tuple[float, int]] = [(0.0, 0)]
    while node_heap:
        bound, node = heapq.heappop(node_heap)
        # Non-strict: a subtree whose lower bound ties the current kth
        # distance is still visited, so every candidate tied at the
        # kth distance is scanned and the canonical (distance, index)
        # selection is independent of traversal order.
        if bound > kth:
            break
        dim = tree._split_dim[node]
        if dim == _LEAF:
            lo, hi = tree._start[node], tree._end[node]
            block = tree._data[lo:hi]
            d = np.sqrt(((block - x) ** 2).sum(axis=1))
            orig = tree._perm[lo:hi]
            if self_index >= 0:
                keep = orig != self_index
                d, orig = d[keep], orig[keep]
            cand_d = np.concatenate([best_d, d])
            cand_i = np.concatenate([best_i, orig])
            # Complex key = lexicographic (distance, index) order.
            sel = np.argsort(cand_d + 1j * cand_i)[:k]
            best_d, best_i = cand_d[sel], cand_i[sel]
            kth = best_d[-1]
            continue
        diff = x[dim] - tree._split_val[node]
        near, far = (
            (tree._right[node], tree._left[node])
            if diff >= 0
            else (tree._left[node], tree._right[node])
        )
        heapq.heappush(node_heap, (bound, near))
        far_bound = max(bound, abs(diff))
        if far_bound <= kth:
            heapq.heappush(node_heap, (far_bound, far))
    return best_d, best_i


def kdtree_query_best_first(
    tree, X_query: np.ndarray, k: int, *, exclude_self: bool = False
):
    """The canonical-order oracle: one best-first search per row, in the
    tree's serving dtype."""
    X_query = np.asarray(X_query, dtype=tree._data.dtype)
    q = X_query.shape[0]
    out_d = np.empty((q, k), dtype=tree._data.dtype)
    out_i = np.empty((q, k), dtype=np.int64)
    for qi in range(q):
        out_d[qi], out_i[qi] = _query_one_best_first(
            tree, X_query[qi], k, qi if exclude_self else -1
        )
    return out_d, out_i


# ---------------------------------------------------------------------------
# Isolation forest: the original tree-at-a-time scoring loop.
# ---------------------------------------------------------------------------
def _average_path_length(n) -> np.ndarray:
    """Expected unsuccessful-search path length c(n) in a BST of size n."""
    n = np.asarray(n, dtype=np.float64)
    out = np.zeros_like(n)
    big = n > 2
    out[big] = 2.0 * (np.log(n[big] - 1.0) + _EULER_GAMMA) - 2.0 * (
        n[big] - 1.0
    ) / n[big]
    out[n == 2] = 1.0
    return out


def _tree_path_length(tree, X: np.ndarray) -> np.ndarray:
    """Vectorised path length of each sample through one isolation tree."""
    node_of = np.zeros(X.shape[0], dtype=np.int64)
    active = tree.feature[node_of] != _LEAF
    while active.any():
        rows = np.nonzero(active)[0]
        nodes = node_of[rows]
        f = tree.feature[nodes]
        go_left = X[rows, f] <= tree.threshold[nodes]
        node_of[rows] = np.where(go_left, tree.left[nodes], tree.right[nodes])
        active[rows] = tree.feature[node_of[rows]] != _LEAF
    return tree.path_adjust[node_of]


def iforest_score_loop(trees, sub: int, X: np.ndarray) -> np.ndarray:
    """The pre-refactor ``IsolationForest._score``: one traversal per tree."""
    depths = np.zeros(X.shape[0], dtype=np.float64)
    for tree in trees:
        depths += _tree_path_length(tree, X)
    depths /= len(trees)
    c = float(_average_path_length(np.array([sub]))[0]) or 1.0
    return 2.0 ** (-depths / c)


# ---------------------------------------------------------------------------
# Regression tree ensembles: the original estimator-at-a-time predicts.
# ---------------------------------------------------------------------------
_UNDEFINED = -2


def _cart_apply(tree, X: np.ndarray) -> np.ndarray:
    """The pre-refactor ``DecisionTreeRegressor.apply`` level loop."""
    node_of = np.zeros(X.shape[0], dtype=np.int64)
    active = tree.feature_[node_of] != _UNDEFINED
    while active.any():
        rows = np.nonzero(active)[0]
        nodes = node_of[rows]
        f = tree.feature_[nodes]
        go_left = X[rows, f] <= tree.threshold_[nodes]
        node_of[rows] = np.where(
            go_left, tree.children_left_[nodes], tree.children_right_[nodes]
        )
        active[rows] = tree.feature_[node_of[rows]] != _UNDEFINED
    return node_of


def forest_predict_loop(forest, X: np.ndarray) -> np.ndarray:
    """The pre-refactor ``RandomForestRegressor.predict`` tree loop."""
    out = np.zeros(X.shape[0], dtype=np.float64)
    for tree in forest.estimators_:
        out += tree.value_[_cart_apply(tree, X)]
    out /= len(forest.estimators_)
    return out


def gbm_predict_loop(gbm, X: np.ndarray) -> np.ndarray:
    """The pre-refactor ``GradientBoostingRegressor.predict`` stage loop."""
    out = np.full(X.shape[0], gbm.init_)
    for tree in gbm.estimators_:
        out += gbm.learning_rate * tree.value_[_cart_apply(tree, X)]
    return out


# ---------------------------------------------------------------------------
# CART split search: the original feature-at-a-time loop.
# ---------------------------------------------------------------------------
def best_split_loop(
    X: np.ndarray,
    idx: np.ndarray,
    feats: np.ndarray,
    y_node: np.ndarray,
    sum_total: float,
    *,
    min_samples_leaf: int = 1,
):
    """The per-feature float-sort split search of ``DecisionTreeRegressor``.

    ``idx`` are the node's row indices into ``X``, ``y_node = y[idx]`` and
    ``sum_total`` its sum. Returns ``(feature, pos, order, proxy_gain)``:
    ``order`` sorts the node's rows by the winning feature and the split
    puts positions ``[0..pos]`` left; ``None`` when no valid split exists.
    """
    n_i = idx.size
    best_gain, best_f, best_pos, best_order = -np.inf, -1, -1, None
    for f in feats:
        order = np.argsort(X[idx, f], kind="mergesort")
        xs = X[idx[order], f]
        ys = y_node[order]
        # Candidate split after position i (left gets [0..i]).
        csum = np.cumsum(ys)[:-1]
        n_left = np.arange(1, n_i)
        n_right = n_i - n_left
        # Weighted variance reduction simplifies to maximising
        # sum_l^2 / n_l + sum_r^2 / n_r (the "proxy" criterion).
        proxy = csum**2 / n_left + (sum_total - csum) ** 2 / n_right
        valid = xs[1:] > xs[:-1]  # no split between equal values
        if min_samples_leaf > 1:
            msl = min_samples_leaf
            valid &= (n_left >= msl) & (n_right >= msl)
        if not valid.any():
            continue
        proxy = np.where(valid, proxy, -np.inf)
        pos = int(np.argmax(proxy))
        if proxy[pos] > best_gain:
            best_gain, best_f = proxy[pos], int(f)
            best_pos, best_order = pos, order
    if best_f < 0:
        return None
    return best_f, best_pos, best_order, float(best_gain)


# ---------------------------------------------------------------------------
# CART: the whole float-sort tree builder (``DecisionTreeRegressor.fit``
# until PR 19) over ``best_split_loop``. It defines the tree — every node
# array and the importances — that the rank-space builder of
# ``repro.kernels.splits`` / ``repro.supervised.tree`` must reproduce
# byte for byte.
# ---------------------------------------------------------------------------
def _resolve_max_features(max_features, n_features: int) -> int:
    if max_features is None:
        return n_features
    if isinstance(max_features, str):
        if max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if max_features == "log2":
            return max(1, int(np.log2(n_features)))
        raise ValueError(f"Unknown max_features string {max_features!r}")
    if isinstance(max_features, float):
        return max(1, int(max_features * n_features))
    return int(max_features)


def cart_fit_loop(
    X: np.ndarray,
    y: np.ndarray,
    *,
    max_depth=None,
    min_samples_split: int = 2,
    min_samples_leaf: int = 1,
    max_features=None,
    min_impurity_decrease: float = 0.0,
    random_state=None,
) -> SimpleNamespace:
    """The pre-refactor ``DecisionTreeRegressor.fit``: a float copy of the
    rows, ``y[idx]`` re-gathered at every node, one merge sort per
    candidate feature. ``random_state`` is a seed or a ``Generator``."""
    n, d = X.shape
    rng = np.random.default_rng(random_state)
    m_try = _resolve_max_features(max_features, d)
    max_depth = np.inf if max_depth is None else max_depth

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []
    n_node: list[int] = []
    importances = np.zeros(d, dtype=np.float64)

    def new_node(idx: np.ndarray) -> int:
        node = len(feature)
        feature.append(_UNDEFINED)
        threshold.append(np.nan)
        left.append(-1)
        right.append(-1)
        value.append(float(y[idx].mean()))
        n_node.append(idx.size)
        return node

    root_idx = np.arange(n)
    stack: list[tuple[np.ndarray, int, int]] = [(root_idx, 0, new_node(root_idx))]
    depth_seen = 0

    while stack:
        idx, depth, node = stack.pop()
        depth_seen = max(depth_seen, depth)
        n_i = idx.size
        y_i = y[idx]
        node_var = y_i.var()
        if (
            depth >= max_depth
            or n_i < min_samples_split
            or n_i < 2 * min_samples_leaf
            or node_var <= 1e-15
        ):
            continue

        feats = rng.choice(d, size=m_try, replace=False) if m_try < d else np.arange(d)
        sum_total = y_i.sum()
        found = best_split_loop(
            X, idx, feats, y_i, sum_total, min_samples_leaf=min_samples_leaf
        )
        if found is None:
            continue
        best_f, best_pos, best_order, _ = found

        # Convert proxy back to true weighted impurity decrease.
        sum_left = y_i[best_order][: best_pos + 1].sum()
        n_l = best_pos + 1
        n_r = n_i - n_l
        child_sse = (
            (y_i**2).sum() - sum_left**2 / n_l - (sum_total - sum_left) ** 2 / n_r
        )
        decrease = (n_i * node_var - child_sse) / n
        if decrease < min_impurity_decrease - 1e-15:
            continue

        xs = X[idx[best_order], best_f]
        thr = 0.5 * (xs[best_pos] + xs[best_pos + 1])
        left_idx = idx[best_order][: best_pos + 1]
        right_idx = idx[best_order][best_pos + 1 :]

        feature[node] = best_f
        threshold[node] = float(thr)
        importances[best_f] += decrease
        l_node = new_node(left_idx)
        r_node = new_node(right_idx)
        left[node], right[node] = l_node, r_node
        stack.append((left_idx, depth + 1, l_node))
        stack.append((right_idx, depth + 1, r_node))

    total = importances.sum()
    return SimpleNamespace(
        feature_=np.array(feature, dtype=np.int64),
        threshold_=np.array(threshold, dtype=np.float64),
        children_left_=np.array(left, dtype=np.int64),
        children_right_=np.array(right, dtype=np.int64),
        value_=np.array(value, dtype=np.float64),
        n_node_samples_=np.array(n_node, dtype=np.int64),
        n_nodes_=len(feature),
        max_depth_=depth_seen,
        feature_importances_=importances / total if total > 0 else importances,
    )


# ---------------------------------------------------------------------------
# ABOD: the original query-at-a-time angle-variance loop.
# ---------------------------------------------------------------------------
def _abof(point: np.ndarray, neighbors: np.ndarray) -> float:
    diff = neighbors - point  # (k, d)
    k = diff.shape[0]
    iu, ju = np.triu_indices(k, k=1)
    a, b = diff[iu], diff[ju]
    dot = np.einsum("ij,ij->i", a, b)
    na = np.einsum("ij,ij->i", a, a)
    nb = np.einsum("ij,ij->i", b, b)
    weighted = dot / (na * nb + _EPS)
    return float(weighted.var())


def abod_scores_loop(Q: np.ndarray, X: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The pre-refactor ``ABOD._scores_from_neighbors`` (negated ABOF loop)."""
    scores = np.empty(Q.shape[0], dtype=np.float64)
    for i in range(Q.shape[0]):
        scores[i] = -_abof(Q[i], X[idx[i]])
    return scores
