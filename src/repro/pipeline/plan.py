"""Execution plans: an inspectable program for a fit or predict pass.

An :class:`ExecutionPlan` is an ordered list of :class:`Stage` objects
plus the :class:`PlanContext` they communicate through. Compiling SUOD's
fit/predict into plans (instead of method bodies) buys three things:

- **inspection** — ``describe()``/``to_dict()`` render the stages, the
  forecast costs and the chosen worker assignment before or after the
  run (the ``python -m repro plan`` subcommand);
- **partial execution** — a runner can stop after any stage (e.g. run
  only project → forecast → schedule to preview an assignment) and
  *resume* the same plan later; completed stages are never re-run;
- **uniform telemetry** — every stage leaves a
  :class:`~repro.pipeline.stage.StageReport`, and executions fold into
  one merged :class:`~repro.parallel.ExecutionResult` summary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.parallel.execution import ExecutionResult
from repro.pipeline.stage import Stage, StageReport, jsonify

__all__ = ["ExecutionPlan", "PlanContext"]


_SCALARS = (bool, int, float, str)


def _is_fact(value) -> bool:
    """Scalars and short flat lists of them (per-worker task counts)."""
    if isinstance(value, _SCALARS):
        return True
    return (
        isinstance(value, (list, tuple))
        and 0 < len(value) <= 16
        and all(isinstance(v, _SCALARS) for v in value)
    )


def _fact(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, (list, tuple)):
        return "[" + " ".join(_fact(v) for v in value) + "]"
    return str(value)


class PlanContext:
    """Mutable namespace shared by the stages of one plan run.

    Attribute-style access with a dict-like ``get`` for optional keys;
    stages communicate exclusively through it, so a plan's data flow is
    visible in one place.
    """

    def __init__(self, **kwargs):
        self.__dict__.update(kwargs)

    def get(self, name: str, default=None):
        return self.__dict__.get(name, default)

    def keys(self):
        return self.__dict__.keys()

    def __contains__(self, name: str) -> bool:
        return name in self.__dict__

    def __repr__(self) -> str:
        return f"PlanContext({', '.join(sorted(self.__dict__))})"


@dataclass
class ExecutionPlan:
    """An ordered stage program with its context and collected reports.

    Parameters
    ----------
    kind : {'fit', 'predict'}
        Which SUOD pass the plan encodes (free-form for other builders).
    stages : list of Stage
        Execution order. Stage names must be unique within a plan.
    context : PlanContext
        Shared mutable state; stage outputs (costs, assignment, matrix,
        scores, ...) accumulate here.
    meta : dict
        Static facts known at build time (backend, n_jobs, task count).
    shm_keys : tuple of str
        Context keys (each an ndarray or a list of ndarrays) the runner
        materialises into a shared-memory arena right before
        ``shm_stage`` runs; the handles land at ``shared_<key>`` on the
        context. Empty (the default) means no shared data plane.
    shm_stage : str
        Stage name the materialisation precedes (default ``'execute'``).
    """

    kind: str
    stages: list[Stage]
    context: PlanContext
    meta: dict = field(default_factory=dict)
    reports: list[StageReport] = field(default_factory=list)
    shm_keys: tuple[str, ...] = ()
    shm_stage: str = "execute"

    def __post_init__(self):
        names = [s.name for s in self.stages]
        if len(set(names)) != len(names):
            raise ValueError(f"stage names must be unique, got {names}")
        self._released = False

    # -- bookkeeping ---------------------------------------------------
    @property
    def stage_names(self) -> list[str]:
        return [s.name for s in self.stages]

    @property
    def completed(self) -> list[str]:
        return [r.stage for r in self.reports]

    @property
    def is_complete(self) -> bool:
        return len(self.reports) == len(self.stages)

    def report_for(self, name: str) -> StageReport | None:
        for r in self.reports:
            if r.stage == name:
                return r
        return None

    def reset(self) -> "ExecutionPlan":
        """Forget all reports so the plan can be replayed from scratch.

        Replaying a plan whose stages draw randomness is deterministic:
        builders cache seed draws on the context, so a reset + re-run
        reproduces the first run bitwise. Released plans (see
        :meth:`release_data`) can no longer be replayed.
        """
        if self._released:
            raise RuntimeError("plan context was released; build a new plan to re-run")
        self.reports = []
        return self

    # The wave runs hold what their waves were built from and produced
    # (X, the score matrix, published neighbour pairs).
    _DATA_KEYS = ("X", "spaces", "matrix", "scores", "detectors", "producers")

    def release_data(self) -> "ExecutionPlan":
        """Drop the large data arrays from the context.

        Keeps scheduling telemetry (costs, assignment) and every stage
        report, so the plan remains fully inspectable — but it can no
        longer be resumed or replayed. Also disposes the shared-memory
        arena (closing and unlinking its segments) if the runner
        materialised one. The SUOD façade calls this when a fit/predict
        pass completes, so a long-lived estimator does not pin its
        training set (or the last scored batch) in memory; run plans
        through :class:`PlanRunner` yourself to keep the data.
        """
        self.dispose_arena()
        for key in self._DATA_KEYS:
            self.context.__dict__.pop(key, None)
        self._released = True
        return self

    def dispose_arena(self) -> "ExecutionPlan":
        """Tear down the shared-memory data plane, if one was built.

        Closes + unlinks every arena segment and drops the
        ``shared_<key>`` handle lists from the context. Idempotent; a
        no-op for plans that never materialised shared data. Called by
        the runner on plan completion and on any stage failure, and by
        :meth:`release_data`, so segments cannot outlive the plan run.
        """
        arena = self.context.get("arena")
        if arena is not None:
            arena.dispose()
        self.context.__dict__.pop("arena", None)
        for key in self.shm_keys:
            self.context.__dict__.pop(f"shared_{key}", None)
        return self

    # -- telemetry roll-up ---------------------------------------------
    @property
    def total_wall_time(self) -> float:
        return float(sum(r.wall_time for r in self.reports))

    def merged_execution(self) -> ExecutionResult:
        """One combined ExecutionResult over every backend-run stage."""
        parts = [r.execution for r in self.reports if r.execution is not None]
        return ExecutionResult.merge(parts)

    # -- rendering -----------------------------------------------------
    def describe(self) -> list[dict]:
        """One row per stage: status, wall time, key facts.

        Pending stages describe what they will do; done stages show the
        scalar facts (and short per-worker lists) of their info dict
        instead (the share stage's dedup summary, the schedule stage's
        policy, the approximate stage's wave ledger, ...), so the CLI
        table reports what actually happened.
        """
        rows = []
        for stage in self.stages:
            report = self.report_for(stage.name)
            row = {
                "stage": stage.name,
                "status": "done" if report is not None else "pending",
                "wall_s": report.wall_time if report else float("nan"),
                "detail": stage.description,
            }
            if report is not None and report.info:
                facts = ", ".join(
                    f"{key}={_fact(value)}"
                    for key, value in report.info.items()
                    if _is_fact(value)
                )
                if facts:
                    row["detail"] = facts
            rows.append(row)
        return rows

    def assignment_rows(self, labels=None) -> list[dict]:
        """Per-task rows of forecast cost and assigned worker.

        ``labels`` optionally names each task (e.g. detector family).
        Empty until the plan's schedule stage has run.
        """
        assignment = self.context.get("assignment")
        if assignment is None:
            return []
        costs = self.context.get("costs")
        rows = []
        for i, worker in enumerate(np.asarray(assignment)):
            row = {"task": i, "worker": int(worker)}
            if labels is not None:
                row["label"] = labels[i]
            if costs is not None:
                row["forecast_cost"] = float(np.asarray(costs)[i])
            rows.append(row)
        return rows

    def worker_rows(self) -> list[dict]:
        """Per-worker planned load: task count and forecast cost sum.

        One row per worker the schedule stage actually spread the tasks
        over (its ``tasks_per_worker``), not per worker requested.
        """
        assignment = self.context.get("assignment")
        if assignment is None:
            return []
        a = np.asarray(assignment)
        schedule = self.report_for("schedule")
        per_worker = schedule.info.get("tasks_per_worker") if schedule else None
        n_workers = len(per_worker) if per_worker else int(a.max(initial=0)) + 1
        counts = np.bincount(a, minlength=n_workers)
        rows = []
        costs = self.context.get("costs")
        loads = (
            np.bincount(a, weights=np.asarray(costs), minlength=n_workers)
            if costs is not None
            else None
        )
        for w in range(n_workers):
            row = {"worker": w, "n_tasks": int(counts[w])}
            if loads is not None:
                row["forecast_load"] = float(loads[w])
            rows.append(row)
        return rows

    def to_dict(self) -> dict:
        """JSON-able snapshot: stages, reports, costs, assignment."""
        costs = self.context.get("costs")
        assignment = self.context.get("assignment")
        return {
            "kind": self.kind,
            "meta": jsonify(self.meta),
            "stages": [
                {
                    "name": s.name,
                    "description": s.description,
                    "status": (
                        "done" if self.report_for(s.name) is not None else "pending"
                    ),
                }
                for s in self.stages
            ],
            "reports": [r.to_dict() for r in self.reports],
            "forecast_costs": jsonify(costs),
            "assignment": jsonify(assignment),
            "total_wall_time": self.total_wall_time,
        }

    def __repr__(self) -> str:
        done = len(self.reports)
        return (
            f"ExecutionPlan(kind={self.kind!r}, "
            f"stages=[{' -> '.join(self.stage_names)}], "
            f"completed={done}/{len(self.stages)})"
        )
