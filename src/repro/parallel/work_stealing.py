"""Dynamic work-stealing execution (beyond the paper's static BPS).

BPS produces a *static* assignment from forecast cost ranks before any
task runs. When forecasts are wrong — a kNN on clumpy data, a cold BLAS,
a noisy neighbour on the host — some workers finish early and idle while
the unlucky one grinds through an over-full queue. Work stealing closes
that gap at runtime: each worker owns a deque seeded by the static
assignment, drains it front-to-back, and when empty *steals* from the
back of the most-loaded peer. The static schedule becomes a locality
hint instead of a contract, so a good forecast still pays (few steals)
while a bad one degrades to greedy list scheduling (2 - 1/t of OPT)
instead of the unbounded imbalance a static split can suffer.

Two execution modes share one class:

- **real** (default): one thread per worker, shared deques behind a
  single lock. Suited to NumPy-bound tasks that release the GIL, same as
  :class:`~repro.parallel.execution.ThreadBackend`.
- **virtual** (``known_costs=...``): an event-driven replay on a virtual
  clock, mirroring :class:`SimulatedClusterBackend`. Tasks are *not*
  executed; the returned ``wall_time`` is the makespan the dynamic
  policy would achieve on the given costs. Deterministic, so tests and
  benchmarks can compare static vs dynamic schedules exactly.

Telemetry lands in :class:`ExecutionResult`: ``steal_counts[w]`` is how
many tasks worker *w* took from a peer, ``idle_times[w]`` how long it
sat without work while the run was in flight.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import deque
from collections.abc import Callable, Sequence

import numpy as np

from repro.parallel.execution import (
    ExecutionResult,
    _BackendBase,
    _check_assignment,
    register_backend,
)

__all__ = ["WorkStealingBackend"]


class WorkStealingBackend(_BackendBase):
    """Per-worker deques with runtime stealing (threads or virtual clock).

    Parameters
    ----------
    n_workers : int
        Worker (thread) count t.

    Notes
    -----
    ``execute`` accepts the same ``(tasks, assignment)`` contract as the
    static backends, so schedulers remain a separate concern: the
    assignment seeds each worker's local queue, and stealing only kicks
    in when a queue runs dry. ``assignment=None`` deals tasks round-robin
    (pure dynamic mode — every schedule quality guarantee then comes
    from stealing alone).
    """

    shares_gil = True

    def execute(
        self,
        tasks: Sequence[Callable],
        assignment=None,
        *,
        known_costs: Sequence[float] | None = None,
    ) -> ExecutionResult:
        n = len(tasks)
        if assignment is None:
            assignment = np.arange(n, dtype=np.int64) % self.n_workers
        a = _check_assignment(n, assignment, self.n_workers)
        if known_costs is not None:
            costs = np.asarray(known_costs, dtype=np.float64)
            if costs.shape != (n,):
                raise ValueError("known_costs must align with tasks")
            if n and (costs < 0).any():
                raise ValueError("known_costs must be non-negative")
            return self._replay(a, costs, n)
        return self._run_threads(tasks, a)

    # ------------------------------------------------------------------
    def _seed_queues(self, a: np.ndarray) -> list[deque]:
        queues = [deque() for _ in range(self.n_workers)]
        for i, w in enumerate(a):
            queues[w].append(i)
        return queues

    def _run_threads(self, tasks: Sequence[Callable], a: np.ndarray) -> ExecutionResult:
        t = self.n_workers
        queues = self._seed_queues(a)
        lock = threading.Lock()
        results: list = [None] * len(tasks)
        task_times = np.zeros(len(tasks))
        busy = np.zeros(t)
        steals = np.zeros(t, dtype=np.int64)

        def next_task(w: int) -> tuple[int | None, bool]:
            with lock:
                if queues[w]:
                    return queues[w].popleft(), False
                victim = max(range(t), key=lambda v: len(queues[v]))
                if queues[victim]:
                    return queues[victim].pop(), True
                return None, False

        def worker(w: int) -> None:
            while True:
                i, stolen = next_task(w)
                if i is None:
                    return
                if stolen:
                    steals[w] += 1
                t0 = time.perf_counter()
                try:
                    r = tasks[i]()
                except Exception as exc:  # noqa: BLE001 - surfaced to the caller
                    r = exc
                dt = time.perf_counter() - t0
                results[i] = r
                task_times[i] = dt
                busy[w] += dt

        t0 = time.perf_counter()
        threads = [
            threading.Thread(target=worker, args=(w,), name=f"steal-worker-{w}")
            for w in range(t)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        wall = time.perf_counter() - t0
        return ExecutionResult(
            results=results,
            wall_time=wall,
            worker_times=busy,
            task_times=task_times,
            idle_times=np.maximum(wall - busy, 0.0),
            steal_counts=steals,
        )

    # ------------------------------------------------------------------
    def _replay(self, a: np.ndarray, costs: np.ndarray, n: int) -> ExecutionResult:
        """Event-driven virtual-clock simulation of the stealing policy.

        Workers pop their own queue front-first; a dry worker steals the
        *back* of the queue with the largest remaining cost (ties to the
        lowest worker id, so the replay is deterministic).
        """
        t = self.n_workers
        queues = self._seed_queues(a)
        remaining = np.bincount(a, weights=costs, minlength=t)
        busy = np.zeros(t)
        steals = np.zeros(t, dtype=np.int64)
        # (time-available, worker) event heap: pop the earliest-free worker.
        clock = [(0.0, w) for w in range(t)]
        heapq.heapify(clock)
        finish = np.zeros(t)
        while any(queues):
            now, w = heapq.heappop(clock)
            if queues[w]:
                i = queues[w].popleft()
                remaining[w] -= costs[i]
            else:
                # Steal from the queue with the most remaining cost.
                # Restrict to non-empty queues: ``remaining`` is decremented
                # at pop time, so an empty queue's entry is only float
                # residue and must never be selected as a victim.
                candidates = [v for v in range(t) if queues[v]]
                victim = max(candidates, key=lambda v: (remaining[v], -v))
                i = queues[victim].pop()
                remaining[victim] -= costs[i]
                steals[w] += 1
            c = costs[i]
            busy[w] += c
            finish[w] = now + c
            heapq.heappush(clock, (now + c, w))
        wall = float(finish.max(initial=0.0))
        return ExecutionResult(
            results=[None] * n,
            wall_time=wall,
            worker_times=busy,
            task_times=costs,
            idle_times=np.maximum(wall - busy, 0.0),
            steal_counts=steals,
        )


register_backend("work_stealing", WorkStealingBackend)
