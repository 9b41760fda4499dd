"""Planner/executor layer: fit & predict as explicit stage pipelines.

The MLSys argument (and this repo's north star) is that ML-system
leverage lives in explicit, composable execution layers. This package is
that layer for SUOD:

- :class:`Stage` — a named, documented step over a shared context;
- :class:`ExecutionPlan` — an ordered stage program (project → forecast
  → share → schedule → execute → approximate → combine) with build-time
  metadata, renderable as table or JSON before anything runs;
- :mod:`repro.pipeline.wave` — the one parallel loop (forecast →
  assign → execute → observe → assemble): a ``Wave`` describes a
  batch of tasks, a ``WaveRun`` carries it through the loop; the
  only code in ``repro.core`` / ``repro.pipeline`` that talks to a
  scheduler or a backend;
- :mod:`repro.pipeline.sharing` — the plan-level CSE pass: the
  ``share`` stage folds redundant neighbor structures into shared
  producer tasks (``ProducerWave``) whose fused query results every
  consumer prefix-slices (bitwise-identical, see :class:`SharingPlan`);
- :mod:`repro.pipeline.detector_wave` — the detector fits / scoring
  tasks as a wave (``DetectorWave``: one task per model);
- :class:`PlanRunner` — the single loop every backend runs through,
  with resume/partial-execution semantics;
- :class:`StageReport` — per-stage wall time plus worker-load and
  per-task telemetry folded up from
  :class:`~repro.parallel.ExecutionResult`.

:class:`repro.SUOD` is a façade over this package: its ``fit`` /
``decision_function`` compile plans via ``build_fit_plan`` /
``build_predict_plan`` and hand them to a runner. Downstream consumers
(CLI ``repro plan``, benchmark runners, serving/sharding work) operate
on the plan objects instead of re-implementing orchestration.
"""

from repro.pipeline.plan import ExecutionPlan, PlanContext
from repro.pipeline.runner import PlanRunner
from repro.pipeline.sharing import (
    SharedQuery,
    SharingPlan,
    derive_fit_sharing,
    derive_predict_sharing,
)
from repro.pipeline.stage import Stage, StageReport

__all__ = [
    "ExecutionPlan",
    "PlanContext",
    "PlanRunner",
    "SharedQuery",
    "SharingPlan",
    "Stage",
    "StageReport",
    "derive_fit_sharing",
    "derive_predict_sharing",
]
