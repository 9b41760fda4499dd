"""Opt-in float32 serving mode for the kernel-backed scorers.

``set_serving_dtype(model, 'float32')`` halves the resident footprint
and memory traffic of the hot arenas — flat forest thresholds/leaf
payloads, KD-tree split planes and data blocks, neighbor reference
matrices — by casting them (and the query rows routed through them) to
float32. float64 stays the default and stays bitwise-frozen against
``kernels.reference``: the cast path only ever runs when a stored array
is already float32, and casting back to float64 restores the exact
original arrays from a stash, never a lossy up-cast.

Tolerance contract (pinned by ``tests/memory/test_serving_dtype.py``
on an in-RAM model and on one served from a v2 artifact):

- kernel level — ``forest_value_sum`` / KD-tree distances in float32
  agree with float64 within ``FLOAT32_KERNEL_RTOL`` relative +
  ``FLOAT32_KERNEL_ATOL`` absolute error (float32 rounding accumulated
  over tree sums and distance reductions);
- ensemble level — combined SUOD scores agree within
  ``FLOAT32_SCORE_ATOL`` absolute error. This bound is deliberately
  looser than pure rounding: a float32-perturbed raw score can cross an
  ECDF standardisation step or flip a tree branch whose threshold sits
  within float32 epsilon of a feature value, moving that sample by a
  few rank quanta. Detectors still return float64 (the cast back is
  exact), so downstream combination runs unchanged.

Scope: detectors and approximators that route through
``repro.kernels`` (iForest, forests/GBM, KNN/LOF/LoOP/ABOD). Cheap
histogram/statistics detectors (HBOS, MCD, ...) keep float64 — their
state is small and casting would buy nothing.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "FLOAT32_KERNEL_ATOL",
    "FLOAT32_KERNEL_RTOL",
    "FLOAT32_SCORE_ATOL",
    "serving_dtype",
    "set_serving_dtype",
]

FLOAT32_KERNEL_RTOL = 1e-5
FLOAT32_KERNEL_ATOL = 1e-6
FLOAT32_SCORE_ATOL = 0.02

_F64 = np.dtype(np.float64)
_SUPPORTED = (np.dtype(np.float32), _F64)


def serving_dtype(model) -> np.dtype:
    """The dtype ``model`` currently serves in (float64 unless switched)."""
    return np.dtype(getattr(model, "_serving_dtype", None) or np.float64)


def set_serving_dtype(model, dtype):
    """Switch ``model`` (a SUOD or single estimator) to serve in ``dtype``.

    Reversible: ``set_serving_dtype(model, 'float64')`` restores the
    exact original float64 arrays (stashed at the first cast), so a
    round-trip is bitwise-neutral. Returns ``model``.
    """
    dt = np.dtype(dtype)
    if dt not in _SUPPORTED:
        raise ValueError(
            f"serving dtype must be float32 or float64, got {dt.name!r}"
        )
    _apply(model, dt)
    return model


def _apply(obj, dt: np.dtype) -> None:
    if obj is None:
        return
    if hasattr(obj, "base_estimators_") and hasattr(obj, "approximators_"):
        for est in obj.base_estimators_:
            _apply(est, dt)
        for approx in obj.approximators_:
            _apply(approx, dt)
        obj._serving_dtype = dt
        return
    if hasattr(obj, "detector") and hasattr(obj, "regressor_"):
        # Approximator pair: the regressor answers when approximation is
        # active, the detector otherwise — cast whichever exists.
        _apply(obj.regressor_, dt)
        _apply(obj.detector, dt)
        return
    touched = False
    if hasattr(obj, "_flat_forest"):
        _cast_flat_forest(obj, dt)
        touched = True
    if getattr(obj, "_nn", None) is not None:
        _cast_nn(obj._nn, dt)
        touched = True
    if isinstance(getattr(obj, "_X", None), np.ndarray):
        _cast_stashed_array(obj, "_X", dt)
        touched = True
    if touched:
        obj._serving_dtype = dt


def _cast_flat_forest(est, dt: np.dtype) -> None:
    stash = getattr(est, "_serving_flat64", None)
    if dt == _F64:
        if stash is not None:
            est._flat_cache = stash
            est._serving_flat64 = None
        return
    base = stash if stash is not None else est._flat_forest()
    est._serving_flat64 = base
    est._flat_cache = base.cast(dt)


def _cast_nn(nn, dt: np.dtype) -> None:
    stash = getattr(nn, "_serving_f64", None)
    if dt == _F64:
        if stash is not None:
            nn._X, nn._tree = stash
            nn._serving_f64 = None
        return
    if stash is None:
        stash = (nn._X, getattr(nn, "_tree", None))
        nn._serving_f64 = stash
    base_X, base_tree = stash
    nn._tree = None if base_tree is None else base_tree.cast(dt)
    if base_tree is not None and base_tree._data is base_X:
        nn._X = nn._tree._data  # a one-leaf tree indexes _X itself: cast once
    else:
        nn._X = base_X if base_X.dtype == dt else base_X.astype(dt)


def _cast_stashed_array(obj, attr: str, dt: np.dtype) -> None:
    stash_attr = f"_serving{attr}64"
    stash = getattr(obj, stash_attr, None)
    if dt == _F64:
        if stash is not None:
            setattr(obj, attr, stash)
            setattr(obj, stash_attr, None)
        return
    base = stash if stash is not None else getattr(obj, attr)
    setattr(obj, stash_attr, base)
    setattr(obj, attr, base if base.dtype == dt else base.astype(dt))
