"""The scheduling subsystem: forecast, assign, execute, measure, refine.

Two protocols and a closed table of named policies:

- **Policies** (:mod:`repro.scheduling.policies`) — the pure functions:
  generic/shuffle splits, discounted cost ranks, LPT and Karmarkar-Karp
  partitioning, the paper's :func:`bps_schedule` (§3.5, Eq. 2).
- **Schedulers** (:mod:`repro.scheduling.schedulers`) — named, stateful
  policy objects behind the uniform :class:`Scheduler` interface
  (``assign`` / ``observe``), looked up by name
  (:func:`get_scheduler`) exactly like execution backends are. The
  ``adaptive`` policy closes the loop: it starts as BPS on forecasts
  and converges to scheduling on *measured* per-task durations.
- **Cost models** (:mod:`repro.scheduling.cost`) — the
  :class:`CostModel` protocol unifying the zero-shot
  :class:`AnalyticCostModel`, the trainable :class:`CostPredictor`, and
  the :class:`TelemetryRefinedCostModel` that folds observed
  ``ExecutionResult.task_times`` back into forecasts.

Division of labour with :mod:`repro.parallel` stays strict: schedulers
produce assignments, backends execute them — and now backends' per-task
telemetry flows back into the next assignment.
"""

from repro.scheduling.policies import (
    generic_schedule,
    shuffle_schedule,
    bps_schedule,
    lpt_partition,
    karmarkar_karp_partition,
    discounted_ranks,
)
from repro.scheduling.cost import (
    CostModel,
    AnalyticCostModel,
    CostPredictor,
    TelemetryRefinedCostModel,
    dataset_meta_features,
    forecast_approximator_fit,
    forecast_shared_query,
    model_embedding,
    train_cost_predictor,
)
from repro.scheduling.schedulers import (
    Scheduler,
    GenericScheduler,
    ShuffleScheduler,
    BpsScheduler,
    BpsKkScheduler,
    AdaptiveScheduler,
)
from repro.scheduling.registry import (
    get_scheduler,
    get_scheduler_class,
    list_schedulers,
)

__all__ = [
    "generic_schedule",
    "shuffle_schedule",
    "bps_schedule",
    "lpt_partition",
    "karmarkar_karp_partition",
    "discounted_ranks",
    "CostModel",
    "AnalyticCostModel",
    "CostPredictor",
    "TelemetryRefinedCostModel",
    "dataset_meta_features",
    "model_embedding",
    "forecast_approximator_fit",
    "forecast_shared_query",
    "train_cost_predictor",
    "Scheduler",
    "GenericScheduler",
    "ShuffleScheduler",
    "BpsScheduler",
    "BpsKkScheduler",
    "AdaptiveScheduler",
    "get_scheduler",
    "get_scheduler_class",
    "list_schedulers",
]
