"""The single execution path for every plan, on every backend.

:class:`PlanRunner` walks a plan's stages in order, skipping stages that
already carry a report (resume semantics), timing each one, and folding
any :class:`~repro.parallel.ExecutionResult` a stage produced into its
:class:`~repro.pipeline.stage.StageReport`. All SUOD passes — fit and
predict, sequential through threads and shared-memory processes —
flow through this one loop, so backend behaviour and telemetry cannot
drift between call sites.

The runner also owns the shared-memory data plane's lifecycle: for a
plan with ``shm_keys``, it materialises the named context arrays into a
:class:`~repro.parallel.shm.SharedMemoryArena` immediately before the
``shm_stage`` (execute) runs, and disposes the arena — closing and
unlinking every segment — when the plan completes or any stage raises.
Plans stopped early (``until=``) keep their arena alive for resumption;
``plan.release_data()`` is the terminal cleanup for that path.
"""

from __future__ import annotations

import time

import numpy as np

from repro.parallel.execution import ExecutionResult
from repro.pipeline.plan import ExecutionPlan, PlanContext
from repro.pipeline.stage import StageReport

__all__ = ["PlanRunner"]


class PlanRunner:
    """Sequences a plan's stages; records a StageReport per stage.

    Parameters
    ----------
    verbose : bool, default False
        Print a one-line summary per completed stage.
    """

    def __init__(self, *, verbose: bool = False):
        self.verbose = verbose

    def run(self, plan: ExecutionPlan, *, until: str | None = None) -> PlanContext:
        """Execute pending stages in order, stopping after ``until``.

        Stages that already have a report are skipped, so calling ``run``
        again on a partially executed plan resumes it. Returns the plan's
        context; telemetry accumulates in ``plan.reports``.
        """
        if until is not None and until not in plan.stage_names:
            raise ValueError(f"unknown stage {until!r}; plan has {plan.stage_names}")
        if getattr(plan, "_released", False) and not plan.is_complete:
            raise RuntimeError("plan context was released; build a new plan to run it")
        done = set(plan.completed)
        try:
            for stage in plan.stages:
                if stage.name in done:
                    if stage.name == until:
                        break
                    continue
                t0 = time.perf_counter()
                shm_info = None
                if plan.shm_keys and stage.name == plan.shm_stage:
                    shm_info = self._materialize(plan)
                info = stage.run(plan.context) or {}
                wall = time.perf_counter() - t0
                if not isinstance(info, dict):
                    raise TypeError(
                        f"stage {stage.name!r} must return a dict or None, "
                        f"got {type(info)}"
                    )
                if shm_info is not None:
                    info.setdefault("shm", shm_info)
                execution = info.pop("execution", None)
                if execution is not None and not isinstance(execution, ExecutionResult):
                    raise TypeError(
                        f"stage {stage.name!r} returned a non-ExecutionResult "
                        f"under 'execution': {type(execution)}"
                    )
                plan.reports.append(
                    StageReport(
                        stage=stage.name,
                        wall_time=wall,
                        info=info,
                        execution=execution,
                    )
                )
                if self.verbose:
                    extra = f" {info}" if info else ""
                    print(f"[plan:{plan.kind}] {stage.name}: {wall:.4f}s{extra}")
                if stage.name == until:
                    break
        except BaseException:
            # A failed stage must not leak shared segments: tear the
            # arena down before surfacing the error.
            plan.dispose_arena()
            raise
        if plan.is_complete:
            plan.dispose_arena()
        return plan.context

    def _materialize(self, plan: ExecutionPlan) -> dict:
        """Copy the plan's ``shm_keys`` context arrays into an arena.

        Each named key holds an ndarray or a list of ndarrays; handles
        land at ``shared_<key>`` on the context (mirroring the
        structure), where the execute-stage task builders pick them up.
        Identical array objects (e.g. unprojected spaces that are all
        ``X``) share one segment. Idempotent across resumes: keys that
        already have handles are left alone.
        """
        ctx = plan.context
        arena = ctx.get("arena")
        if arena is None:
            from repro.parallel.shm import SharedMemoryArena

            arena = ctx.arena = SharedMemoryArena()
        for key in plan.shm_keys:
            if ctx.get(f"shared_{key}") is not None:
                continue
            value = ctx.get(key)
            if value is None:
                continue
            if isinstance(value, np.ndarray):
                shared = arena.share(value)
            else:
                shared = arena.share_all(value)
            setattr(ctx, f"shared_{key}", shared)
        return {"segments": len(arena), "bytes": arena.total_bytes}
