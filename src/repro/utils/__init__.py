"""Shared low-level utilities: validation, RNG handling, distance kernels.

These helpers replace the small slice of scikit-learn's ``utils`` that the
rest of the library depends on, so the project has no dependency beyond
NumPy/SciPy.
"""

from repro.utils.validation import (
    check_array,
    check_consistent_length,
    check_is_fitted,
    column_or_1d,
)
from repro.utils.persistence import load_ensemble, save_ensemble
from repro.utils.random import check_random_state, spawn_seeds
from repro.utils.scaling import StandardScaler, MinMaxScaler
from repro.utils.distances import pairwise_distances

__all__ = [
    "check_array",
    "check_consistent_length",
    "check_is_fitted",
    "column_or_1d",
    "check_random_state",
    "spawn_seeds",
    "save_ensemble",
    "load_ensemble",
    "StandardScaler",
    "MinMaxScaler",
    "pairwise_distances",
]
