"""The paper's primary contribution: the SUOD acceleration system.

- :mod:`repro.scheduling` — the scheduling subsystem (cost models,
  policy functions, Scheduler registry — §3.5), re-exported here;
- :mod:`repro.core.approximation` — pseudo-supervised approximation
  (§3.4);
- :mod:`repro.core.suod` — the :class:`SUOD` meta-estimator composing
  RP + PSA + BPS behind a scikit-learn style API (Codeblock 1).
"""

from repro.scheduling import (
    AnalyticCostModel,
    CostPredictor,
    dataset_meta_features,
    model_embedding,
    train_cost_predictor,
    generic_schedule,
    shuffle_schedule,
    bps_schedule,
    lpt_partition,
    karmarkar_karp_partition,
    discounted_ranks,
)
from repro.core.approximation import (
    Approximator,
    ApproximatorWave,
    fit_approximators,
)
from repro.core.selection import consensus_competence, trim_pool
from repro.core.suod import SUOD

__all__ = [
    "SUOD",
    "AnalyticCostModel",
    "CostPredictor",
    "dataset_meta_features",
    "model_embedding",
    "train_cost_predictor",
    "generic_schedule",
    "shuffle_schedule",
    "bps_schedule",
    "lpt_partition",
    "karmarkar_karp_partition",
    "discounted_ranks",
    "Approximator",
    "ApproximatorWave",
    "fit_approximators",
    "consensus_competence",
    "trim_pool",
]
