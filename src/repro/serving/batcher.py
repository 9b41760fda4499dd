"""Request coalescing: the micro-batcher and its measured-cost size policy.

Scoring one request at a time pays the full plan overhead (projection
dispatch, schedule, execute, combine) per request; the PR 5 kernels
showed the 2.5–5.6x regime lives at serving-batch sizes. The batcher
closes that gap: admitted requests queue, and a batch loop drains
them into micro-batches that are scored through **one**
``decision_function`` call, and the batch's score vector is split back
per request. That returns exactly the bytes each request would have
received scored alone wherever scoring is row-separable. Tests pin it
for the combine step (``tests/core/test_suod.py::TestRowInvariantScores``),
the neighbour families (``tests/detectors/test_neighbor_row_separability.py``),
out-of-core row blocks (``tests/memory/test_outofcore.py``) and served vs
offline scores (``tests/serving/test_server.py``). The ``X @ W`` products
(JL, PCA, LODA, PCAD, OCSVM) are still unproven: their BLAS blocking
may depend on the row count (ROADMAP.md item 11).

A batch closes on whichever comes first:

- **size target** — :class:`CostModelBatchPolicy` forecasts how many
  rows fit inside ``target_latency_s`` from an EMA of measured per-row
  scoring seconds, fed back after every executed batch; the batch
  closes once the queue holds that many rows, or rows whose forecast
  scoring time reaches the ``max_wait_s`` window, whichever is fewer;
- **deadline** — the oldest request's ``max_wait_s`` window expires, or
  a queued request's absolute deadline (minus the forecast execution
  time) would otherwise be missed.

Requests whose deadline has already passed when the batch is drained
fail fast with :class:`DeadlineExpired` instead of wasting a worker's
time.

Batches score in N forked worker processes, N being the CPUs this
process may run on (``os.sched_getaffinity``), and up to N batches are
in flight at once. Fork hands every worker the fitted model, so only
the rows and the scores cross the pipe; each batch is still one
``decision_function`` call on that same model, so replies keep their
bytes. A model that holds a worker pool of its own (``n_jobs > 1``)
has it shut down before the fork and scores sequentially inside each
worker: the workers already cover every CPU, and an executor inherited
through fork has lost its threads, so work sent to it never returns.
When a batch closes with ``free`` idle workers it takes whole
requests up to ``ceil(queued_rows / free)`` rows (at least one request,
at most the size target), and the loop deals the rest of the queue to
the next idle worker at once. The event loop never scores, so it stays
free to parse frames and queue the next wave.

A worker that dies fails the batches in flight with their exception
(the server answers ``500 scoring_failed``), and the pool is rebuilt for
the next batch. Workers ignore SIGINT, and SIGTERM from any process
but the server (the parent drains and then joins them; the pool still
stops a crashed pool's survivors), detach from the parent's signal
wakeup fd, and drop every inherited socket, so a respawn after
connections exist never holds a client's connection open.

The batcher also audits the shared-computation plane's serving
contract: a fitted ensemble's neighbor structures (the KD-trees the
``share`` stage built once per ``(space, order)`` key and injected
into every consumer) must be **reused** across micro-batches, never
rebuilt per batch. Each worker reports the KD-tree builds its batch
caused, folded into ``stats.structure_builds``; a healthy shared
ensemble holds it at 0 however many batches flow through.
"""

from __future__ import annotations

import asyncio
import math
import os
import signal
import stat
import threading
import time
from collections import deque
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import get_context

import numpy as np

from repro.neighbors import kdtree_build_count
from repro.parallel.shm import PersistentPool

__all__ = [
    "BatchedScore",
    "CostModelBatchPolicy",
    "DeadlineExpired",
    "MicroBatcher",
    "PendingRequest",
]


class DeadlineExpired(Exception):
    """The request's deadline passed while it waited in the queue."""


class CostModelBatchPolicy:
    """Batch-size targets from a measured per-row cost.

    Every executed batch folds its wall time per row into an exponential
    moving average (weight 0.3 on the newest batch), so the policy knows
    measured *seconds per row* regardless of how batch sizes drift.
    ``target_rows`` inverts that rate: the largest batch whose forecast
    execution time fits inside ``target_latency_s``, clamped to
    ``[1, max_rows]``.

    Cold start returns ``max_rows``: with no measurements yet the
    optimistic cap costs one possibly-slow first batch and immediately
    yields the observation that calibrates every later one.
    """

    SMOOTHING = 0.3

    def __init__(self, *, target_latency_s: float = 0.05, max_rows: int = 4096):
        if target_latency_s <= 0.0:
            raise ValueError("target_latency_s must be > 0")
        if max_rows < 1:
            raise ValueError("max_rows must be >= 1")
        self.target_latency_s = float(target_latency_s)
        self.max_rows = int(max_rows)
        self._rate: float | None = None

    def seconds_per_row(self) -> float | None:
        """The EMA of measured per-row seconds, or ``None`` pre-observation."""
        return self._rate

    def forecast_s(self, rows: int) -> float:
        """Forecast execution seconds for a ``rows``-row batch (0 cold)."""
        rate = self._rate
        return 0.0 if rate is None else rate * max(0, int(rows))

    def target_rows(self) -> int:
        rate = self._rate
        if rate is None or rate <= 0.0:
            return self.max_rows
        return max(1, min(self.max_rows, int(self.target_latency_s / rate)))

    def observe(self, rows: int, duration_s: float) -> None:
        """Fold one executed batch's measured wall time into the EMA;
        empty batches and non-finite or negative durations are skipped."""
        duration_s = float(duration_s)
        if rows <= 0 or not math.isfinite(duration_s) or duration_s < 0.0:
            return
        rate = duration_s / float(rows)
        prev, s = self._rate, self.SMOOTHING
        self._rate = rate if prev is None else (1.0 - s) * prev + s * rate


@dataclass
class PendingRequest:
    """One admitted request waiting for a batch slot."""

    request_id: int
    tenant: str
    rows: np.ndarray
    future: asyncio.Future
    enqueue_t: float
    deadline_t: float | None = None


@dataclass(frozen=True)
class BatchedScore:
    """What a resolved request future carries back to the connection."""

    scores: np.ndarray
    batch_rows: int
    batch_requests: int
    queue_s: float
    exec_s: float


@dataclass
class BatcherStats:
    """Counters the server surfaces through its ``stats`` op."""

    batches: int = 0
    served_requests: int = 0
    served_rows: int = 0
    expired_requests: int = 0
    failed_requests: int = 0
    # Summed over batches, which run concurrently on the workers: it
    # can exceed wall time by up to the worker count.
    exec_s_total: float = 0.0
    batch_rows_max: int = 0
    target_rows_last: int = 0
    # KD-trees built while scoring batches. A fitted shared ensemble
    # reuses its injected structures, so this stays 0; any growth means
    # a detector is rebuilding per batch (the redundancy the share
    # stage exists to remove).
    structure_builds: int = 0

    def to_dict(self) -> dict:
        mean = self.served_rows / self.batches if self.batches else 0.0
        return {
            "batches": self.batches,
            "served_requests": self.served_requests,
            "served_rows": self.served_rows,
            "expired_requests": self.expired_requests,
            "failed_requests": self.failed_requests,
            "exec_s_total": self.exec_s_total,
            "batch_rows_mean": mean,
            "batch_rows_max": self.batch_rows_max,
            "target_rows_last": self.target_rows_last,
            "structure_builds": self.structure_builds,
        }


@dataclass
class _Queue:
    pending: deque = field(default_factory=deque)
    rows: int = 0


#: The scoring callable a forked worker runs; set by its initializer.
_worker_score_fn = None


def _exit_on_sigterm_from(parent: int) -> None:
    """Consume SIGTERM; exit when the server process sent it, or once
    the server is gone (a hard-killed parent never joins its workers)."""
    while os.getppid() == parent:
        info = signal.sigtimedwait({signal.SIGTERM}, 1.0)
        if info is not None and info.si_pid == parent:
            break
    os._exit(1)


def _install_score_fn(score_fn) -> None:
    """Worker initializer: keep clear of the parent's signals and sockets.

    SIGTERM from anyone but the server process is ignored, so a signal
    to the process group leaves the drain to the parent; the pool's own
    ``terminate`` of the survivors of a crash still stops the worker.
    A respawned worker forks after connections exist; an inherited
    socket would keep a client from seeing EOF when the parent closes
    it, so each one is replaced by ``/dev/null`` (the fd number stays
    taken, so a stale socket object cannot close a reused one). A
    pooled model scores sequentially here: this worker is one of N.
    """
    global _worker_score_fn
    model = getattr(score_fn, "__self__", None)
    if getattr(model, "n_jobs", 1) > 1:
        model.n_jobs = 1  # this forked copy only; bitwise the pooled path
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    threading.Thread(
        target=_exit_on_sigterm_from, args=(os.getppid(),), daemon=True
    ).start()
    null = os.open(os.devnull, os.O_RDWR)
    for name in os.listdir("/dev/fd"):
        fd = int(name)
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.dup2(null, fd)
        except OSError:  # the listing's own, now closed, directory fd
            pass
    os.close(null)
    _worker_score_fn = score_fn


def _score_in_worker(rows: np.ndarray) -> tuple[np.ndarray, int]:
    """One batch in a worker: its scores and the KD-trees it built."""
    before = kdtree_build_count()
    scores = _worker_score_fn(rows)
    return scores, kdtree_build_count() - before


class MicroBatcher:
    """Coalesces queued requests into micro-batches over N worker processes.

    Parameters
    ----------
    score_fn : callable
        ``(rows_matrix) -> scores`` — typically a loaded ensemble's
        ``decision_function``. Runs in the forked workers, which inherit
        it (it is never pickled); :meth:`start` forks them.
    policy : CostModelBatchPolicy
        Supplies size targets and receives latency feedback.
    max_wait_s : float
        Longest a batch stays open waiting for more rows after its
        first request arrives (0 = close immediately: per-request mode).
    clock : callable
        Monotonic clock (injectable for deterministic tests).
    """

    def __init__(
        self,
        score_fn,
        *,
        policy: CostModelBatchPolicy | None = None,
        max_wait_s: float = 0.005,
        clock=time.monotonic,
    ):
        if max_wait_s < 0.0:
            raise ValueError("max_wait_s must be >= 0")
        self.score_fn = score_fn
        self.policy = policy or CostModelBatchPolicy()
        self.max_wait_s = float(max_wait_s)
        self.stats = BatcherStats()
        self._clock = clock
        self._queue = _Queue()
        self._wake: asyncio.Event | None = None
        self._closing = False
        self._runner: asyncio.Task | None = None
        self.n_workers = len(os.sched_getaffinity(0))
        self._workers: PersistentPool | None = None
        self._inflight: set[asyncio.Task] = set()
        self._next_id = 0

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Fork the workers and start the batch loop.

        A server calls this before it listens, so no worker inherits
        the listener or a client socket.
        """
        if self._runner is not None:
            raise RuntimeError("batcher already started")
        model = getattr(self.score_fn, "__self__", None)
        if callable(getattr(model, "close", None)):
            model.close()  # no worker may inherit the model's own pool
        self._workers = PersistentPool(
            self.n_workers,
            mp_context=get_context("fork"),
            initializer=_install_score_fn,
            initargs=(self.score_fn,),
        )
        # A fork pool forks all of its workers on the first submit.
        await asyncio.wrap_future(self._workers.get().submit(os.getpid))
        self._wake = asyncio.Event()
        self._runner = asyncio.get_running_loop().create_task(self._run())

    async def close(self) -> None:
        """Drain: stop accepting, score everything queued, join the workers."""
        self._closing = True
        if self._wake is not None:
            self._wake.set()
        if self._runner is not None:
            await self._runner
            self._runner = None
        if self._workers is not None:
            self._workers.shutdown(wait=True)

    @property
    def queued_rows(self) -> int:
        return self._queue.rows

    @property
    def queued_requests(self) -> int:
        return len(self._queue.pending)

    # -- submission -----------------------------------------------------
    def submit(
        self,
        rows: np.ndarray,
        *,
        tenant: str = "default",
        deadline_s: float | None = None,
    ) -> asyncio.Future:
        """Queue an admitted request; the future resolves to
        :class:`BatchedScore` (or :class:`DeadlineExpired`)."""
        if self._wake is None:
            raise RuntimeError("batcher is not started")
        if self._closing:
            raise RuntimeError("batcher is draining")
        now = self._clock()
        self._next_id += 1
        req = PendingRequest(
            request_id=self._next_id,
            tenant=tenant,
            rows=rows,
            future=asyncio.get_running_loop().create_future(),
            enqueue_t=now,
            deadline_t=None if deadline_s is None else now + deadline_s,
        )
        self._queue.pending.append(req)
        self._queue.rows += int(rows.shape[0])
        self._wake.set()
        return req.future

    # -- the batch loop -------------------------------------------------
    def _close_by(self, first: PendingRequest, target: int) -> float:
        """When the currently-open batch must close, whatever its size."""
        close_by = first.enqueue_t + self.max_wait_s
        deadlines = [
            r.deadline_t for r in self._queue.pending if r.deadline_t is not None
        ]
        if deadlines:
            # Close early enough that the forecast execution still lands
            # inside the tightest queued deadline.
            exec_forecast = self.policy.forecast_s(min(target, self._queue.rows))
            close_by = min(close_by, min(deadlines) - exec_forecast)
        return close_by

    def _take_batch(self, target: int, now: float) -> list[PendingRequest]:
        """Drain whole requests up to ``target`` rows, expiring stale ones."""
        batch: list[PendingRequest] = []
        rows = 0
        while self._queue.pending:
            req = self._queue.pending[0]
            n = int(req.rows.shape[0])
            if req.deadline_t is not None and req.deadline_t < now:
                self._queue.pending.popleft()
                self._queue.rows -= n
                self.stats.expired_requests += 1
                if not req.future.done():
                    req.future.set_exception(
                        DeadlineExpired(
                            f"request {req.request_id} expired after "
                            f"{now - req.enqueue_t:.3f}s in queue"
                        )
                    )
                continue
            if batch and rows + n > target:
                break
            self._queue.pending.popleft()
            self._queue.rows -= n
            batch.append(req)
            rows += n
        return batch

    async def _run(self) -> None:
        while True:
            if not self._queue.pending or len(self._inflight) >= self.n_workers:
                if self._closing and not self._queue.pending:
                    if self._inflight:
                        await asyncio.wait(self._inflight)
                    return
                self._wake.clear()
                await self._wake.wait()
                continue
            first = self._queue.pending[0]
            target = max(1, self.policy.target_rows())
            self.stats.target_rows_last = target
            close_by = self._close_by(first, target)
            # Close on size at the target, or once the queued work's
            # forecast outlasts the window: waiting longer than the rows
            # take to score cannot pay for itself.
            enough = target
            rate = self.policy.seconds_per_row()
            if rate:
                enough = min(enough, max(1, math.ceil(self.max_wait_s / rate)))
            while not self._closing and self._queue.rows < enough:
                remaining = close_by - self._clock()
                if remaining <= 0.0:
                    break
                self._wake.clear()
                try:
                    await asyncio.wait_for(self._wake.wait(), timeout=remaining)
                except asyncio.TimeoutError:
                    break
            now = self._clock()
            # Deal the queue over the idle workers: an even share each.
            while self._queue.pending and len(self._inflight) < self.n_workers:
                free = self.n_workers - len(self._inflight)
                share = -(-self._queue.rows // free)
                batch = self._take_batch(min(target, share), now)
                if not batch:
                    break
                task = asyncio.get_running_loop().create_task(
                    self._execute(batch, now)
                )
                self._inflight.add(task)
                task.add_done_callback(self._batch_done)

    def _batch_done(self, task: asyncio.Task) -> None:
        self._inflight.discard(task)
        self._wake.set()

    async def _execute(self, batch: list[PendingRequest], drained_t: float):
        arrays = [req.rows for req in batch]
        pool = None
        t0 = self._clock()
        try:
            stacked = arrays[0] if len(arrays) == 1 else np.vstack(arrays)
            # A pool that broke before this batch reached it (an idle
            # worker died, or another batch's crash) is rebuilt first.
            pool, future = self._workers.call_retrying_once(
                lambda p: (p, p.submit(_score_in_worker, stacked))
            )
            scores, builds = await asyncio.wrap_future(future)
        except Exception as exc:
            if pool is not None and isinstance(exc, BrokenProcessPool):
                self._workers.discard(pool)
            self.stats.failed_requests += len(batch)
            for req in batch:
                if not req.future.done():
                    req.future.set_exception(exc)
            return
        exec_s = self._clock() - t0
        rows = int(stacked.shape[0])
        self.policy.observe(rows, exec_s)
        self.stats.structure_builds += builds
        self.stats.batches += 1
        self.stats.served_requests += len(batch)
        self.stats.served_rows += rows
        self.stats.exec_s_total += exec_s
        self.stats.batch_rows_max = max(self.stats.batch_rows_max, rows)
        offset = 0
        for req in batch:
            n = int(req.rows.shape[0])
            result = BatchedScore(
                scores=scores[offset : offset + n],
                batch_rows=rows,
                batch_requests=len(batch),
                queue_s=drained_t - req.enqueue_t,
                exec_s=exec_s,
            )
            offset += n
            if not req.future.done():
                req.future.set_result(result)
