"""The scheduling subsystem: forecast costs, assign tasks to workers.

``SUOD`` uses two pieces of it, picked by the paper's ``bps_flag``:
:class:`AnalyticCostModel` forecasts and :class:`BpsScheduler`
(``bps-lpt``) ranks them, or :class:`GenericScheduler` (``generic``)
splits by count. The rest serves the ablations (A2, A3 and ``python -m
repro schedulers``), which drive the policies directly. Two protocols
and a closed table of named policies:

- **Policies** (:mod:`repro.scheduling.policies`) — the pure functions:
  generic/shuffle splits, discounted cost ranks, LPT and Karmarkar-Karp
  partitioning, the paper's :func:`bps_schedule` (§3.5, Eq. 2).
- **Schedulers** (:mod:`repro.scheduling.schedulers`) — named, stateful
  policy objects behind the uniform :class:`Scheduler` interface
  (``assign`` / ``observe``), looked up by name
  (:func:`get_scheduler`) exactly like execution backends are. The
  ``adaptive`` policy closes the loop for a caller that feeds it
  ``ExecutionResult.task_times``: it starts as BPS on forecasts and
  converges to scheduling on *measured* per-task durations.
- **Cost models** (:mod:`repro.scheduling.cost`) — the
  :class:`CostModel` protocol of the zero-shot :class:`AnalyticCostModel`
  and the trainable :class:`CostPredictor`, plus the
  :class:`TelemetryRefinedCostModel` the adaptive policy keeps its
  measurements in.

Division of labour with :mod:`repro.parallel` stays strict: schedulers
produce assignments, backends execute them.
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
