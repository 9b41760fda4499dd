"""Worker backends executing pre-assigned task groups.

A *task* is any zero-argument callable returning a picklable result (for
the process backend the callable itself must pickle too — module-level
functions plus bound arguments work; lambdas do not).

The division of labour with the scheduler is strict: schedulers
(:mod:`repro.scheduling`) produce an ``assignment`` array mapping
each task to a worker id; backends execute that assignment and report
per-worker loads and wall-clock, so Generic and BPS schedules can be
compared on identical machinery (Table 4).
"""

from __future__ import annotations

import time
import warnings
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ExecutionResult",
    "SequentialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "SimulatedClusterBackend",
    "get_backend",
    "get_backend_class",
    "register_backend",
]


@dataclass
class ExecutionResult:
    """Outcome of running a task set through a backend.

    Attributes
    ----------
    results : list
        Per-task return values, in submission order. A task that raised
        stores the exception instance instead (callers decide whether to
        re-raise; :meth:`raise_first_error` helps).
    wall_time : float
        Elapsed seconds. For :class:`SimulatedClusterBackend` this is the
        *virtual* makespan — max over virtual workers of summed task cost.
    worker_times : numpy.ndarray
        Busy time per worker (same clock as ``wall_time``).
    task_times : numpy.ndarray
        Measured per-task wall-clock duration, in submission order.
        Every backend records it (sequential, threads, processes,
        shm_processes, work_stealing); virtual-clock modes (simulated,
        work-stealing replay) report the deterministic known costs. This
        is the signal the adaptive scheduling feedback loop
        (:class:`repro.scheduling.TelemetryRefinedCostModel`) consumes.
    idle_times : numpy.ndarray
        Per-worker idle seconds: time a worker spent without a task
        while the run was still in flight. Static backends leave this
        empty; dynamic backends (work stealing) populate it — on a
        well-balanced run it stays near zero.
    steal_counts : numpy.ndarray
        Per-worker count of tasks *stolen* from another worker's queue.
        Empty for static backends; a high total under
        :class:`WorkStealingBackend` means the initial assignment (or
        cost forecast behind it) was badly off.
    """

    results: list = field(default_factory=list)
    wall_time: float = 0.0
    worker_times: np.ndarray = field(default_factory=lambda: np.zeros(1))
    task_times: np.ndarray = field(default_factory=lambda: np.zeros(0))
    idle_times: np.ndarray = field(default_factory=lambda: np.zeros(0))
    steal_counts: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )

    @property
    def total_steals(self) -> int:
        return int(self.steal_counts.sum()) if self.steal_counts.size else 0

    @property
    def n_failed(self) -> int:
        return sum(isinstance(r, BaseException) for r in self.results)

    def raise_first_error(self) -> None:
        for r in self.results:
            if isinstance(r, BaseException):
                raise r

    @classmethod
    def merge(cls, results: Sequence["ExecutionResult"]) -> "ExecutionResult":
        """Combine results of sequential phases into one summary.

        Wall times add (the phases ran one after another); per-worker
        arrays are zero-padded to the widest worker count and summed, so
        a fit + predict pair reports one wall-time / steal / idle
        balance sheet. An empty input merges to a neutral zero result.
        """
        results = list(results)
        if not results:
            return cls(results=[], worker_times=np.zeros(0))

        def _padded_sum(arrays: list[np.ndarray], dtype) -> np.ndarray:
            width = max((a.size for a in arrays), default=0)
            out = np.zeros(width, dtype=dtype)
            for a in arrays:
                out[: a.size] += a
            return out

        return cls(
            results=[r for res in results for r in res.results],
            wall_time=float(sum(r.wall_time for r in results)),
            worker_times=_padded_sum([r.worker_times for r in results], np.float64),
            task_times=np.concatenate([r.task_times for r in results])
            if any(r.task_times.size for r in results)
            else np.zeros(0),
            idle_times=_padded_sum([r.idle_times for r in results], np.float64),
            steal_counts=_padded_sum([r.steal_counts for r in results], np.int64),
        )


def _check_assignment(n_tasks: int, assignment, n_workers: int) -> np.ndarray:
    a = np.asarray(assignment, dtype=np.int64)
    if a.shape != (n_tasks,):
        raise ValueError(f"assignment must be ({n_tasks},), got {a.shape}")
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    if n_tasks and (a.min() < 0 or a.max() >= n_workers):
        raise ValueError("assignment contains worker ids outside [0, n_workers)")
    return a


def _run_group(tasks: Sequence[Callable]) -> tuple[list, list[float]]:
    """Run a task group sequentially; capture results/exceptions + times."""
    results, times = [], []
    for task in tasks:
        t0 = time.perf_counter()
        try:
            results.append(task())
        except Exception as exc:  # noqa: BLE001 - surfaced to the caller
            results.append(exc)
        times.append(time.perf_counter() - t0)
    return results, times


class _BackendBase:
    """Shared assignment bookkeeping."""

    #: Whether the workers are threads of one interpreter. Such workers
    #: overlap only while tasks sit in GIL-releasing NumPy/BLAS calls;
    #: interpreter-bound work (the PSA tree fits) gains nothing from them
    #: and pays for the GIL hand-offs, so plan stages check this flag
    #: before spreading that kind of work.
    shares_gil = False

    def __init__(self, n_workers: int = 1):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers

    def _group(self, tasks, assignment):
        a = _check_assignment(len(tasks), assignment, self.n_workers)
        groups = [np.nonzero(a == w)[0] for w in range(self.n_workers)]
        return a, groups

    def _scatter(self, tasks, groups, group_outputs) -> ExecutionResult:
        results = [None] * len(tasks)
        task_times = np.zeros(len(tasks))
        worker_times = np.zeros(self.n_workers)
        for w, (idx, (res, times)) in enumerate(zip(groups, group_outputs)):
            for i, r, t in zip(idx, res, times):
                results[i] = r
                task_times[i] = t
            worker_times[w] = float(np.sum(times)) if times else 0.0
        return ExecutionResult(
            results=results,
            worker_times=worker_times,
            task_times=task_times,
        )


class SequentialBackend(_BackendBase):
    """Single-worker reference backend (the paper's ``t = 1`` default)."""

    def __init__(self):
        super().__init__(n_workers=1)

    def execute(self, tasks: Sequence[Callable], assignment=None) -> ExecutionResult:
        if assignment is None:
            assignment = np.zeros(len(tasks), dtype=np.int64)
        _, groups = self._group(tasks, assignment)
        t0 = time.perf_counter()
        outputs = [_run_group([tasks[i] for i in g]) for g in groups]
        out = self._scatter(tasks, groups, outputs)
        out.wall_time = time.perf_counter() - t0
        return out


class ThreadBackend(_BackendBase):
    """One thread per worker; real wall-clock measurement.

    Effective when tasks spend their time in NumPy/BLAS kernels that
    release the GIL (most of this library's detectors do).
    """

    shares_gil = True

    def execute(self, tasks: Sequence[Callable], assignment) -> ExecutionResult:
        _, groups = self._group(tasks, assignment)
        t0 = time.perf_counter()
        with ThreadPoolExecutor(max_workers=self.n_workers) as pool:
            futures = [pool.submit(_run_group, [tasks[i] for i in g]) for g in groups]
            outputs = [f.result() for f in futures]
        out = self._scatter(tasks, groups, outputs)
        out.wall_time = time.perf_counter() - t0
        return out


class ProcessBackend(_BackendBase):
    """One process per worker. Tasks and results must pickle."""

    def execute(self, tasks: Sequence[Callable], assignment) -> ExecutionResult:
        _, groups = self._group(tasks, assignment)
        t0 = time.perf_counter()
        with ProcessPoolExecutor(max_workers=self.n_workers) as pool:
            futures = [pool.submit(_run_group, [tasks[i] for i in g]) for g in groups]
            outputs = [f.result() for f in futures]
        out = self._scatter(tasks, groups, outputs)
        out.wall_time = time.perf_counter() - t0
        return out


class SimulatedClusterBackend(_BackendBase):
    """Virtual t-worker cluster driven by measured single-core costs.

    Tasks run once, sequentially, on the local core (results are real);
    the reported ``wall_time`` is the **virtual makespan**: the maximum
    over virtual workers of the summed measured durations of their
    assigned tasks. This is the idealised static-schedule wall-clock a
    t-core machine would achieve, and exactly the objective the paper's
    Eq. 2 approximates through forecast ranks — so Generic vs BPS
    comparisons (Table 4) are faithful on a single-core host.

    ``known_costs`` replays a schedule against pre-measured costs without
    executing anything (used for fast what-if sweeps and tests).
    """

    def execute(
        self,
        tasks: Sequence[Callable],
        assignment,
        *,
        known_costs: Sequence[float] | None = None,
    ) -> ExecutionResult:
        a, groups = self._group(tasks, assignment)
        if known_costs is not None:
            costs = np.asarray(known_costs, dtype=np.float64)
            if costs.shape != (len(tasks),):
                raise ValueError("known_costs must align with tasks")
            results = [None] * len(tasks)
        else:
            seq_results, times = _run_group(list(tasks))
            costs = np.asarray(times)
            results = seq_results
        worker_times = np.bincount(a, weights=costs, minlength=self.n_workers)
        return ExecutionResult(
            results=results,
            wall_time=float(worker_times.max(initial=0.0)),
            worker_times=worker_times,
            task_times=costs,
        )


_BACKENDS = {
    "sequential": SequentialBackend,
    "threads": ThreadBackend,
    "processes": ProcessBackend,
    "simulated": SimulatedClusterBackend,
}


def register_backend(name: str, cls, *, overwrite: bool = False) -> None:
    """Add a backend class to the :func:`get_backend` registry.

    Used by sibling modules (work stealing, shared memory) so the
    registry stays the single lookup point without circular imports.
    Re-registering the same class under its existing name is a no-op;
    replacing a registered name with a *different* class requires
    ``overwrite=True``, so a built-in cannot be shadowed silently.
    """
    existing = _BACKENDS.get(name)
    if existing is not None and existing is not cls and not overwrite:
        raise ValueError(
            f"backend {name!r} is already registered to "
            f"{existing.__name__}; pass overwrite=True to replace it"
        )
    _BACKENDS[name] = cls


def get_backend_class(name: str):
    """The registered class for ``name`` (without instantiating it)."""
    if name not in _BACKENDS:
        raise ValueError(f"Unknown backend {name!r}; choose from {sorted(_BACKENDS)}")
    return _BACKENDS[name]


def get_backend(name: str, n_workers: int = 1):
    """Instantiate a backend by name.

    ``sequential`` is always single-worker; asking for it with
    ``n_workers > 1`` warns instead of silently dropping the request.
    """
    cls = get_backend_class(name)
    if name == "sequential":
        if n_workers != 1:
            warnings.warn(
                f"backend 'sequential' always runs one worker; "
                f"n_workers={n_workers} is ignored (pick 'threads', "
                f"'processes', 'shm_processes' or 'work_stealing' for "
                f"real parallelism)",
                UserWarning,
                stacklevel=2,
            )
        return SequentialBackend()
    return cls(n_workers=n_workers)
