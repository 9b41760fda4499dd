"""Vectorised, batch-oriented compute kernels for the scoring substrate.

PRs 1–4 made the *orchestration* fast (work stealing, a zero-copy shm
data plane, adaptive scheduling); this package makes the *compute* those
layers schedule fast. Each kernel replaces a per-row / per-tree /
per-feature Python loop with a batched NumPy formulation that produces
**bitwise-identical** results — the same parity bar the execution
backends are held to:

- :mod:`repro.kernels.trees` — flat batched tree traversal: a whole
  forest concatenated into one node arena, all rows routed through all
  trees in a level-synchronous gather loop. Serves isolation-forest
  scoring and random-forest / GBM prediction.
- :mod:`repro.kernels.neighbors` — block-batched exact KD-tree k-NN:
  a GEMM filter–refine scan and a pruned sweep behind one derived
  choice, one exact-distance + canonical-selection helper, one bitwise
  answer. Serves KNN / LOF / LoOP / ABOD fitting and scoring.
- :mod:`repro.kernels.splits` — rank-space CART split search: one dense
  ``uint16`` rank table per training matrix, then every node's
  candidates in one radix argsort + cumsum pass, no float sort. Serves
  ``DecisionTreeRegressor.fit`` and therefore every PSA approximator fit.
- :mod:`repro.kernels.angles` — chunked einsum angle-variance for ABOD.
- :mod:`repro.kernels.reference` — the frozen pre-refactor
  implementations each kernel is pinned against (parity tests and
  before/after microbenchmarks); import it explicitly, it is not
  re-exported here.
"""

from repro.kernels.angles import pairwise_angle_variance
from repro.kernels.neighbors import (
    kdtree_query_batched,
    kdtree_query_maxk,
    shared_query_width,
    slice_neighbor_prefix,
)
from repro.kernels.splits import RankedSplitSearch, rank_table
from repro.kernels.trees import (
    FlatForest,
    flatten_forest,
    forest_apply,
    forest_value_sum,
    tree_apply,
)

__all__ = [
    "FlatForest",
    "flatten_forest",
    "forest_apply",
    "forest_value_sum",
    "tree_apply",
    "kdtree_query_batched",
    "kdtree_query_maxk",
    "shared_query_width",
    "slice_neighbor_prefix",
    "rank_table",
    "RankedSplitSearch",
    "pairwise_angle_variance",
]
