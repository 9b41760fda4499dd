"""The one balanced parallel loop: forecast → assign → execute → observe
→ assemble.

Algorithm 1 (§3.5) has a single loop that training, PSA and prediction
all pass through: forecast task costs, rank them, assign the tasks to
``t`` workers, run them. Here that loop exists once. A :class:`Wave`
*describes* one batch of tasks — what is specific to share producers,
detector fits/scores or PSA tree blocks — and :class:`WaveRun` owns the
*policy* every batch shares. Inside ``repro.core`` and
``repro.pipeline`` it is the only caller of ``Scheduler.assign``,
``Scheduler.observe``, ``backend.execute`` and ``raise_first_error``,
the only place that strips task results off the telemetry, and the only
statement of the single-worker rule (:func:`n_workers_for`).

Plan stages therefore reduce to "build the wave, step its run, keep the
run on the context": ``forecast`` / ``share`` build a run and call
:meth:`WaveRun.forecast`, ``schedule`` calls :meth:`WaveRun.schedule`,
``execute`` / ``approximate`` call :meth:`WaveRun.run`.
"""

from __future__ import annotations

import numpy as np

from repro.parallel.execution import SequentialBackend

__all__ = ["Wave", "WaveRun", "n_workers_for"]


class Wave:
    """What one batch of tasks needs said about it; nothing about how it
    is scheduled or executed.

    Subclasses describe ``n_tasks`` tasks, index-aligned across every
    method. Class attributes:

    - ``name`` — label of the wave in logs and ledgers;
    - ``interpreter_bound`` — the tasks hold the GIL for their whole
      duration (pure-Python tree fitting), so workers that are threads
      of one interpreter cannot overlap them.
    """

    name: str = "wave"
    interpreter_bound: bool = False

    @property
    def n_tasks(self) -> int:
        raise NotImplementedError

    def task_keys(self) -> list:
        """Stable identity per task for the adaptive feedback loop;
        tasks sharing a key share one measured per-unit rate."""
        raise NotImplementedError

    def task_weights(self) -> np.ndarray:
        """Work units per task, so observed durations normalise to a
        rate that transfers across batch sizes."""
        raise NotImplementedError

    def costs(self) -> np.ndarray:
        """Forecast cost per task (only called when a scheduler that
        ranks on costs has more than one worker to fill)."""
        raise NotImplementedError

    def tasks(self, data) -> list:
        """One picklable zero-argument callable per task. ``data`` is
        the plan's space list: arrays, or shared-memory handles."""
        raise NotImplementedError

    def assemble(self, results) -> dict | None:
        """Install the tasks' results wherever they belong; may return
        scalar facts for the wave's ledger."""
        raise NotImplementedError


def n_workers_for(wave, backend) -> int:
    """The single-worker rule: how many workers ``wave`` spreads over.

    A wave runs on as many workers as the backend it actually executes
    on has — never on a requested count the backend does not provide —
    and on one when its tasks are interpreter-bound and the backend's
    workers share a GIL (thread workers would only add hand-offs:
    measured 1.3-2.6x slower than one worker for the PSA tree fits).
    ``wave`` may be a :class:`Wave` instance or class.
    """
    if wave.interpreter_bound and backend.shares_gil:
        return 1
    return backend.n_workers


class WaveRun:
    """One wave's pass through the loop, on one backend and scheduler.

    Attributes
    ----------
    n_workers : int
        Workers the wave spreads over (:func:`n_workers_for`).
    costs : ndarray or None
        Forecasts the assignment ranked on (None: nothing to rank).
    assignment : ndarray or None
        Worker of each task, once :meth:`schedule` ran.
    policy : str
        Name of the policy behind ``assignment``.
    result : ExecutionResult or None
        Telemetry of the executed wave (``results`` stripped).
    observed : int
        Task durations fed to the adaptive scheduler by :meth:`run`.
    """

    def __init__(self, wave: Wave, backend, scheduler):
        self.wave = wave
        self.backend = backend
        self.scheduler = scheduler
        self.n_workers = n_workers_for(wave, backend)
        self.costs = None
        self.assignment = None
        self.policy = "single-worker" if self.n_workers == 1 else scheduler.name
        self.result = None
        self.observed = 0

    def forecast(self):
        """Forecast the task costs iff the assignment can use them."""
        if self.n_workers > 1 and self.scheduler.uses_costs:
            self.costs = np.asarray(self.wave.costs(), dtype=np.float64)
        return self.costs

    def schedule(self) -> np.ndarray:
        """Assign every task to a worker."""
        wave = self.wave
        if self.n_workers == 1:
            self.assignment = np.zeros(wave.n_tasks, dtype=np.int64)
        else:
            self.assignment = self.scheduler.assign(
                wave.n_tasks,
                self.n_workers,
                self.costs,
                task_keys=wave.task_keys(),
                weights=wave.task_weights(),
            )
        return self.assignment

    def run(self, data) -> dict:
        """Execute the scheduled tasks, assemble, observe; the ledger.

        The first task exception is re-raised as is. Once assembled, the
        results live where they belong (fitted estimators, score matrix,
        arena), so the telemetry drops its references to them.
        """
        wave = self.wave
        backend = self.backend
        if backend.n_workers != self.n_workers:
            backend = SequentialBackend()
        result = backend.execute(wave.tasks(data), self.assignment)
        result.raise_first_error()
        facts = wave.assemble(result.results) or {}
        result.results = [None] * wave.n_tasks
        self.result = result
        # A one-worker backend never reschedules, so nothing is fed to
        # it; a wave merely *held* to one worker of a wider backend still
        # measures costs the backend's other waves are scheduled on.
        if self.backend.n_workers > 1 and self.scheduler.adaptive:
            self.observed = self.scheduler.observe(
                result.task_times,
                task_keys=wave.task_keys(),
                weights=wave.task_weights(),
            )
        ledger = {
            "tasks": wave.n_tasks,
            **facts,
            "tasks_per_worker": self.tasks_per_worker(),
            "wave_wall_s": result.wall_time,
            "execution": result,
        }
        if self.observed:
            ledger["telemetry_observed"] = self.observed
        return ledger

    def tasks_per_worker(self) -> list[int]:
        return np.bincount(self.assignment, minlength=self.n_workers).tolist()
