"""Unified nearest-neighbor facade with automatic engine dispatch.

``algorithm='auto'`` picks the KD-tree for low-dimensional Euclidean data
and chunked brute force otherwise — mirroring how the
paper's proximity detectors behave under the RP module, which shrinks
dimensionality into KD-tree territory. The exact rule lives in
:func:`choose_engine` so callers and docs can interrogate it.
"""

from __future__ import annotations

import numpy as np

from repro.neighbors.brute import brute_force_kneighbors
from repro.neighbors.kdtree import KDTree
from repro.utils.validation import check_array, check_is_fitted

__all__ = ["NearestNeighbors", "choose_engine"]

_ALGORITHMS = ("auto", "brute", "kd_tree")

# Beyond this dimensionality KD-tree pruning degenerates to a full scan
# with per-node Python overhead; brute force is strictly better.
_KDTREE_MAX_DIM = 15
# Below this many points the chunked brute-force scan (one vectorised
# distance matrix) beats building and walking a tree outright.
_KDTREE_MIN_SAMPLES = 256


def choose_engine(n_samples: int, n_features: int, metric: str) -> str:
    """The ``algorithm='auto'`` heuristic: which engine serves a dataset.

    Returns ``'kd_tree'`` for low/medium-dimensional Euclidean data and
    falls back to the already-vectorised
    :func:`~repro.neighbors.brute.brute_force_kneighbors` otherwise:

    - ``metric != 'euclidean'`` — the KD-tree's split-plane bounds are
      Euclidean lower bounds; other metrics go brute.
    - ``n_features > 15`` — in high dimensions every split-plane gap is
      small relative to typical point distances (the curse of
      dimensionality) and pruning stops discarding subtrees. The
      paper's RP module projects the costly detectors *below* this
      threshold by design, which is what keeps their KNN/LOF/LoOP
      members on the KD-tree and therefore on the sharing plane.
    - ``n_samples < 256`` — one (n, n) distance matrix is a single
      vectorised operation; a tree cannot amortise its build cost.

    "Where pruning wins" is no longer what ``'kd_tree'`` means: inside
    it, :func:`repro.kernels.neighbors.choose_block_engine` runs the
    pruned sweep only in its own regime (low ``d``, large ``n``) and a
    GEMM filter–refine scan of the tree's reordered data elsewhere —
    same canonical answer, so the choice here is about the *contract*
    (canonical ``(distance, index)`` order, prefix-sliceable, shareable),
    not about speed alone.

    Both engines return identical neighbor sets on Euclidean data up to
    the tie rule at equal distances (the KD-tree resolves ties toward
    the smaller index; brute force follows ``argpartition`` order).
    """
    if metric != "euclidean":
        return "brute"
    if n_features > _KDTREE_MAX_DIM or n_samples < _KDTREE_MIN_SAMPLES:
        return "brute"
    return "kd_tree"


class NearestNeighbors:
    """Exact k-NN index.

    Parameters
    ----------
    n_neighbors : int, default 5
        Default ``k`` used when a query does not override it.
    algorithm : {'auto', 'brute', 'kd_tree'}
        Search engine. ``auto`` dispatches on (n, d, metric).
    metric : str, default 'euclidean'
        One of the metrics of :mod:`repro.utils.distances`. Only
        ``euclidean`` supports the KD-tree engine.
    p : float
        Minkowski order when ``metric='minkowski'``.
    """

    def __init__(
        self,
        n_neighbors: int = 5,
        *,
        algorithm: str = "auto",
        metric: str = "euclidean",
        p: float = 2.0,
    ):
        if algorithm not in _ALGORITHMS:
            raise ValueError(f"algorithm must be one of {_ALGORITHMS}")
        self.n_neighbors = n_neighbors
        self.algorithm = algorithm
        self.metric = metric
        self.p = p

    def fit(self, X) -> "NearestNeighbors":
        X = check_array(X, name="X")
        self._X = X
        engine = self.algorithm
        if engine == "auto":
            engine = choose_engine(X.shape[0], X.shape[1], self.metric)
        if engine == "kd_tree" and self.metric != "euclidean":
            raise ValueError("kd_tree engine supports only the euclidean metric")
        self._engine = engine
        self._tree = KDTree(X) if engine == "kd_tree" else None
        return self

    def kneighbors(
        self, X=None, n_neighbors: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Distances and indices of the k nearest fitted points.

        With ``X=None`` the training data is queried with each point
        excluded from its own neighborhood (the convention used when
        scoring the training set).
        """
        check_is_fitted(self, "_X")
        k = self.n_neighbors if n_neighbors is None else n_neighbors
        exclude_self = X is None
        Xq = self._X if exclude_self else check_array(X, name="X")
        if Xq.dtype != self._X.dtype:
            # Queries follow the index's serving dtype (float32 mode
            # casts _X at set_serving_dtype time; float64 is a no-op).
            Xq = Xq.astype(self._X.dtype)
        if Xq.shape[1] != self._X.shape[1]:
            raise ValueError(
                f"query has {Xq.shape[1]} features, index has {self._X.shape[1]}"
            )
        if self._engine == "kd_tree":
            return self._tree.query(Xq, k, exclude_self=exclude_self)
        return brute_force_kneighbors(
            self._X,
            Xq,
            k,
            metric=self.metric,
            p=self.p,
            exclude_self=exclude_self,
        )
