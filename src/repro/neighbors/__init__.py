"""k-nearest-neighbor search substrate.

One exact Euclidean engine — a from-scratch KD-tree whose queries return
the canonical ``(distance, index)`` answer in any dimension, through
:func:`repro.kernels.kdtree_query_batched` — behind the
:class:`NearestNeighbors` facade; chunked brute force serves the other
metrics. Every proximity-based detector in :mod:`repro.detectors`
queries neighbors through this package.
"""

from repro.neighbors.brute import brute_force_kneighbors
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
    "brute_force_kneighbors",
    "kdtree_build_count",
    "build_shared_index",
    "discard_shared_neighbors",
    "fused_neighbor_query",
    "neighbors_for_fit",
    "neighbors_for_scoring",
    "push_shared_neighbors",
]
