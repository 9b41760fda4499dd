"""k-nearest-neighbor search substrate.

One exact index for every metric — a from-scratch KD-tree over a
Minkowski order (euclidean 2, manhattan 1, chebyshev ``inf``, minkowski
``p``) whose queries return that order's canonical ``(distance, index)``
answer in any dimension, through
:func:`repro.kernels.kdtree_query_batched` — behind the
:class:`NearestNeighbors` facade. Every proximity-based detector in
:mod:`repro.detectors` queries neighbors through this package.
"""

from repro.neighbors.kdtree import KDTree, kdtree_build_count
from repro.neighbors.api import NearestNeighbors
from repro.neighbors.shared import (
    build_shared_index,
    discard_shared_neighbors,
    fused_neighbor_query,
    neighbors_for_fit,
    neighbors_for_scoring,
    push_shared_neighbors,
)

__all__ = [
    "NearestNeighbors",
    "KDTree",
    "kdtree_build_count",
    "build_shared_index",
    "discard_shared_neighbors",
    "fused_neighbor_query",
    "neighbors_for_fit",
    "neighbors_for_scoring",
    "push_shared_neighbors",
]
