"""Deprecated shim — cost forecasting moved to :mod:`repro.scheduling`.

Kept so ``from repro.core.cost import AnalyticCostModel`` (the pre-PR-4
import path) keeps working; importing this module emits a
:class:`DeprecationWarning`. New code should import from
:mod:`repro.scheduling` (or :mod:`repro.scheduling.cost`).
"""

import warnings

from repro.scheduling.cost import (
    AnalyticCostModel,
    CostModel,
    CostPredictor,
    TelemetryRefinedCostModel,
    dataset_meta_features,
    forecast_approximator_fit,
    forecast_shared_query,
    model_embedding,
    train_cost_predictor,
)

__all__ = [
    "dataset_meta_features",
    "model_embedding",
    "forecast_approximator_fit",
    "forecast_shared_query",
    "CostModel",
    "AnalyticCostModel",
    "CostPredictor",
    "TelemetryRefinedCostModel",
    "train_cost_predictor",
]

warnings.warn(
    "repro.core.cost has moved to repro.scheduling "
    "(cost models live in repro.scheduling.cost); "
    "this shim will be removed in a future release",
    DeprecationWarning,
    stacklevel=2,
)
