"""Stage primitives: the unit of work of an :class:`ExecutionPlan`.

A :class:`Stage` is a named, documented step operating on a shared
:class:`~repro.pipeline.plan.PlanContext`. Stages never call each other;
the :class:`~repro.pipeline.runner.PlanRunner` sequences them and wraps
every run in a :class:`StageReport` so a whole fit or predict pass can
be inspected as structured telemetry instead of log lines.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.parallel.execution import ExecutionResult

__all__ = ["Stage", "StageReport"]


def jsonify(value):
    """Recursively convert numpy containers/scalars to JSON-able types."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, Mapping):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    return value


@dataclass(frozen=True)
class Stage:
    """One named step of an execution plan.

    Parameters
    ----------
    name : str
        Stable identifier (``run(plan, until=name)`` stops after it).
    run : callable(ctx) -> dict | None
        Performs the step against the shared plan context. May return an
        info dict for the stage's report; an ``"execution"`` key holding
        an :class:`ExecutionResult` is lifted onto the report so worker
        loads and per-task times fold up automatically.
    description : str
        One line of human-readable intent, shown by ``repro plan``.
    """

    name: str
    run: Callable[..., dict | None]
    description: str = ""


@dataclass
class StageReport:
    """Outcome of one stage run: wall time plus structured telemetry.

    ``execution`` is populated for stages that pushed work through a
    parallel backend; scalar facts (counts, policy names, totals) land in
    ``info``.
    """

    stage: str
    wall_time: float = 0.0
    info: dict = field(default_factory=dict)
    execution: ExecutionResult | None = None

    @property
    def worker_times(self) -> np.ndarray:
        if self.execution is None:
            return np.zeros(0)
        return self.execution.worker_times

    @property
    def task_times(self) -> np.ndarray:
        """Measured per-task durations of the backend run (empty if none).

        Surfacing them here keeps per-task telemetry reachable from a
        plan's reports alongside the worker-level aggregates.
        """
        if self.execution is None:
            return np.zeros(0)
        return self.execution.task_times

    @property
    def total_task_time(self) -> float:
        return float(self.task_times.sum()) if self.task_times.size else 0.0

    def to_dict(self) -> dict:
        out = {
            "stage": self.stage,
            "wall_time": float(self.wall_time),
            "info": jsonify(self.info),
        }
        if self.execution is not None:
            out["execution"] = {
                "wall_time": float(self.execution.wall_time),
                "worker_times": jsonify(self.execution.worker_times),
                "task_times": jsonify(self.execution.task_times),
                "n_tasks": len(self.execution.results),
            }
        return out
