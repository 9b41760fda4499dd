"""Zero-copy shared-memory data plane for process execution.

A process pool that pickles its tasks ships a full copy of every bound
array (the data matrix, each projected space) through the task pickle
stream — once per task, per execute call. For a scoring pass over m
models that is m copies of X through a pipe, which swamps the work it
parallelises. This module replaces the copies with *references*:

- :class:`SharedArrayHandle` — a tiny picklable descriptor (segment
  name + shape + dtype) naming a ``multiprocessing.shared_memory``
  segment that holds the array bytes — or, for the memory plane, a
  read-only byte range of an on-disk ensemble artifact (``path`` +
  ``offset``), which workers map instead of copying;
- :class:`SharedMemoryArena` — the owner of segments on the parent
  side, with a deterministic create → share → dispose (close + unlink)
  lifecycle and identity-deduplication, so a space list that repeats
  the same ``X`` object (``NoProjection``) is materialised once;
- :func:`attach_array` / :func:`resolve_array` — the worker side: a
  per-process cache attaches each segment **once per worker** and hands
  out read-only views, so repeated tasks over the same array cost one
  ``mmap`` total, not one copy each;
- :class:`PersistentPool` — one ``ProcessPoolExecutor`` kept across
  calls and rebuilt after a worker dies; the one pool implementation,
  shared by the backend below and the serving plane's batcher;
- :class:`SharedMemoryProcessBackend` — a process backend with a
  **persistent** worker pool (``shm_processes`` in the backend table): the
  pool survives across execute calls, so plan stages (fit execute,
  predict execute, repeated scoring batches) reuse warm workers and
  their attachment caches instead of re-spawning per call.

Lifecycle discipline: the parent (arena owner) is the only unlinker.
Worker attachments are deliberately *untracked* (the resource tracker
would otherwise unlink segments it does not own and spam shutdown
warnings) and bounded by an LRU so long-lived workers do not pin every
segment they ever saw. ``PlanRunner`` materialises plan data into an
arena right before the execute stage and disposes it when the plan
completes, fails, or releases its data — see ``repro.pipeline``.
"""

from __future__ import annotations

import os
import secrets
import time
from collections import OrderedDict
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.parallel.execution import (
    _BackendBase,
    ExecutionResult,
    _run_group,
)

__all__ = [
    "PersistentPool",
    "SharedArrayHandle",
    "SharedMemoryArena",
    "SharedMemoryProcessBackend",
    "attach_array",
    "resolve_array",
    "detach_all",
]

_SEGMENT_PREFIX = "repro_shm_"

# Per-process attachment cache: segment name -> (SharedMemory, view).
# Bounded so a long-lived worker does not keep every segment it ever
# attached mapped; evicted entries are closed (cheap to re-attach).
_ATTACH_CACHE_MAX = 32
_attached: OrderedDict[str, tuple[shared_memory.SharedMemory, np.ndarray]] = (
    OrderedDict()
)


@dataclass(frozen=True)
class SharedArrayHandle:
    """Picklable reference to an ndarray living in a shared segment.

    Parameters
    ----------
    name : str
        ``multiprocessing.shared_memory`` segment name. Empty string for
        a zero-byte array (no segment is backing it).
    shape : tuple of int
        Array shape; the segment holds the C-contiguous bytes.
    dtype : str
        ``numpy.dtype.str`` (endianness-qualified) for exact round-trip.
    """

    name: str
    shape: tuple[int, ...]
    dtype: str
    # File-backed segments (the memory plane): when ``path`` is set the
    # handle names a byte range of an on-disk artifact instead of a shm
    # segment; attaching maps the file read-only and every worker shares
    # one page-cache copy. ``name`` is empty for these handles.
    path: str | None = None
    offset: int = 0

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize

    def __repr__(self) -> str:
        if self.path is not None:
            return (
                f"SharedArrayHandle(file={self.path!r}, offset={self.offset}, "
                f"shape={self.shape}, dtype={self.dtype!r})"
            )
        return (
            f"SharedArrayHandle({self.name!r}, shape={self.shape}, "
            f"dtype={self.dtype!r})"
        )


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to a segment without taking ownership of its lifetime.

    The attaching worker must never unlink — the arena owner does, and
    ``SharedMemory.unlink`` unregisters the name from the resource
    tracker. On Python 3.13+ ``track=False`` makes the attachment
    tracker-invisible. On older versions a plain attach is the right
    call for pool workers: they share the parent's tracker process
    (inherited through fork/spawn), so any attach-side registration is
    a set no-op there and the parent's deterministic unlink clears the
    entry. Explicitly unregistering here would *remove* the parent's
    registration out from under it.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        return shared_memory.SharedMemory(name=name)


def attach_array(handle: SharedArrayHandle) -> np.ndarray:
    """Read-only view of the shared array named by ``handle``.

    The backing segment is attached at most once per process and cached
    (LRU, bounded); subsequent calls for the same segment are a dict
    hit. Views are marked non-writable: workers share the bytes with
    the parent and each other, so in-place mutation would be a race.
    """
    if handle.path is not None:
        # File-backed segment: map the artifact read-only and slice the
        # named byte range. The arena module caches one mapping per file
        # per process, so repeated handles cost a dict hit and all
        # workers share the same page-cache copy of the bytes.
        from repro.memory.arena import load_view

        return load_view(handle.path, handle.offset, handle.dtype, handle.shape)
    if not handle.name:  # zero-byte array: nothing is backing it
        return np.empty(handle.shape, dtype=np.dtype(handle.dtype))
    entry = _attached.get(handle.name)
    if entry is not None:
        _attached.move_to_end(handle.name)
        return entry[1]
    shm = _attach_untracked(handle.name)
    # count= guards against platforms that round the mapping up to a
    # page multiple (shm.buf may be larger than the array's nbytes).
    count = int(np.prod(handle.shape, dtype=np.int64))
    view = np.frombuffer(shm.buf, dtype=np.dtype(handle.dtype), count=count)
    view = view.reshape(handle.shape)
    view.setflags(write=False)
    _attached[handle.name] = (shm, view)
    _evict_unlinked()
    while len(_attached) > _ATTACH_CACHE_MAX:
        _, old_entry = _attached.popitem(last=False)
        old_shm = old_entry[0]
        del old_entry  # drop the cached view so close() can release the map
        try:
            old_shm.close()
        except BufferError:  # an external view is alive; leave it mapped
            break
    return view


def _evict_unlinked() -> None:
    """Drop cached attachments whose segment the owner has unlinked.

    Segment names are random per arena, so an attachment of a disposed
    arena can never be re-used — but it keeps the (now anonymous)
    memory mapped until LRU pressure evicts it. Where the platform
    exposes segments as files (/dev/shm on Linux), sweep those dead
    entries eagerly; elsewhere the LRU bound is the backstop. Runs only
    when a *new* segment is attached — once per segment per worker.
    """
    try:
        live = set(os.listdir("/dev/shm"))
    except OSError:  # platform without a visible shm filesystem
        return
    for name in [n for n in _attached if n not in live]:
        entry = _attached.pop(name)
        shm = entry[0]
        del entry
        try:
            shm.close()
        except BufferError:  # an external view is alive; leave it mapped
            pass


def resolve_array(obj):
    """Return ``obj`` itself, or the attached array if it is a handle.

    Task functions call this on their data argument so the same
    module-level task works for in-memory backends (ndarray bound) and
    the shared-memory process backend (handle bound).
    """
    if isinstance(obj, SharedArrayHandle):
        return attach_array(obj)
    return obj


def detach_all() -> None:
    """Close every cached attachment in this process (test/shutdown aid)."""
    while _attached:
        _, (shm, view) = _attached.popitem()
        del view
        try:
            shm.close()
        except BufferError:  # someone still holds a view; leave it mapped
            pass


class SharedMemoryArena:
    """Owner of a set of shared segments with deterministic cleanup.

    ``share`` copies an array into a fresh segment (one memcpy — the
    *only* copy the data plane ever makes) and returns its handle;
    sharing the same array object twice returns the same handle.
    ``dispose`` closes and unlinks everything, idempotently. A
    ``weakref.finalize``-free design is deliberate: the pipeline calls
    ``dispose`` on every exit path (completion, exception, release),
    and tests pin the "no leaked segments" contract.
    """

    def __init__(self):
        self._segments: list[shared_memory.SharedMemory] = []
        self._by_id: dict[int, tuple[object, SharedArrayHandle]] = {}
        self._category_bytes: dict[str, int] = {}
        self._disposed = False

    def __len__(self) -> int:
        return len(self._segments)

    @property
    def total_bytes(self) -> int:
        return sum(seg.size for seg in self._segments)

    @property
    def disposed(self) -> bool:
        return self._disposed

    @property
    def bytes_by_category(self) -> dict[str, int]:
        """Segment bytes per ``share(category=...)`` label.

        The arena started as an *input* plane (plan data materialised
        for workers); the sharing plane also publishes fused query
        *results* through it. The ledger keeps the two distinguishable
        for telemetry (only fresh segments count — dedup hits and
        file-backed views add no bytes).
        """
        return dict(self._category_bytes)

    def share(self, array: np.ndarray, *, category: str = "input") -> SharedArrayHandle:
        """Copy ``array`` into a new shared segment; return its handle."""
        if self._disposed:
            raise RuntimeError("arena was disposed; create a new one")
        # asanyarray, not asarray: asarray would strip the ArenaView
        # subclass (and with it the file-backed ``_arena_source``),
        # silently downgrading a zero-copy reference into a /dev/shm
        # copy of the blob.
        array = np.asanyarray(array)
        cached = self._by_id.get(id(array))
        if cached is not None:
            return cached[1]
        source = getattr(array, "_arena_source", None)
        if source is not None:
            # Already file-backed (an ArenaView of a persisted ensemble):
            # no copy is needed — the handle just names the byte range,
            # and workers re-map the same artifact file.
            path, offset, dtype_str, shape = source
            handle = SharedArrayHandle(
                "", tuple(shape), dtype_str, path=path, offset=offset
            )
            self._by_id[id(array)] = (array, handle)
            return handle
        if array.nbytes == 0:
            handle = SharedArrayHandle("", array.shape, array.dtype.str)
            self._by_id[id(array)] = (array, handle)
            return handle
        name = _SEGMENT_PREFIX + secrets.token_hex(8)
        seg = shared_memory.SharedMemory(name=name, create=True, size=array.nbytes)
        # count= guards against page-rounded mappings (buf may exceed nbytes).
        view = np.frombuffer(seg.buf, dtype=array.dtype, count=array.size)
        view = view.reshape(array.shape)
        np.copyto(view, array)
        del view  # exported buffers would make close() raise at dispose
        self._segments.append(seg)
        self._category_bytes[category] = (
            self._category_bytes.get(category, 0) + array.nbytes
        )
        handle = SharedArrayHandle(name, array.shape, array.dtype.str)
        # Keep a reference to the original so id() stays valid for dedup.
        self._by_id[id(array)] = (array, handle)
        return handle

    def share_all(
        self, arrays: Sequence[np.ndarray], *, category: str = "input"
    ) -> list[SharedArrayHandle]:
        return [self.share(a, category=category) for a in arrays]

    def dispose(self) -> None:
        """Close and unlink every owned segment (idempotent)."""
        self._disposed = True
        segments, self._segments = self._segments, []
        self._by_id = {}
        self._category_bytes = {}
        for seg in segments:
            try:
                seg.close()
            except BufferError:  # a parent-side view escaped; still unlink
                pass
            try:
                seg.unlink()
            except FileNotFoundError:
                pass

    def __enter__(self) -> "SharedMemoryArena":
        return self

    def __exit__(self, *exc) -> None:
        self.dispose()

    def __del__(self):  # backstop only; the pipeline disposes explicitly
        try:
            self.dispose()
        except Exception:  # noqa: BLE001 - interpreter-shutdown ordering
            pass

    def __repr__(self) -> str:
        state = "disposed" if self._disposed else f"{len(self)} segments"
        return f"SharedMemoryArena({state}, {self.total_bytes} bytes)"


class PersistentPool:
    """One ``ProcessPoolExecutor`` that outlives calls, rebuilt after a crash.

    A worker that dies mid-task (OOM kill, hard crash, SIGKILL) breaks
    the whole executor: its pending futures raise ``BrokenProcessPool``
    and it refuses new work, having terminated and joined the remaining
    workers itself. :meth:`discard` drops that executor and the next
    :meth:`get` builds a fresh one, so a persistent pool never stays
    wedged. Arguments after ``n_workers`` go to ``ProcessPoolExecutor``.
    """

    def __init__(self, n_workers: int, *, mp_context=None, initializer=None,
                 initargs=()):
        self.n_workers = n_workers
        self._options = dict(
            max_workers=n_workers,
            mp_context=mp_context,
            initializer=initializer,
            initargs=initargs,
        )
        self._pool: ProcessPoolExecutor | None = None

    @property
    def executor(self) -> ProcessPoolExecutor | None:
        """The live executor; ``None`` before the first :meth:`get`."""
        return self._pool

    def get(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(**self._options)
        return self._pool

    def call_retrying_once(self, fn: Callable[[ProcessPoolExecutor], object]):
        """``fn(executor)``; if a worker died, rebuild the pool and retry once."""
        try:
            return fn(self.get())
        except BrokenProcessPool:
            self.discard()
            return fn(self.get())

    def discard(self, broken: ProcessPoolExecutor | None = None) -> None:
        """Drop the current executor, or only ``broken`` if it still is
        current (several failed calls may report one crash)."""
        if self._pool is not None and broken in (None, self._pool):
            self.shutdown()

    def shutdown(self, wait: bool = True) -> None:
        """Stop the workers (the next :meth:`get` respawns them)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)


class SharedMemoryProcessBackend(_BackendBase):
    """Process backend with a persistent pool and handle-based payloads.

    Differences from a plain per-call process pool:

    - the worker pool (a :class:`PersistentPool`) is created once and
      **reused across execute calls** (and therefore across plan stages
      and repeated scoring batches), so per-call pool spawn cost is paid
      once; a pool broken by a dead worker is rebuilt and the call
      retried once;
    - tasks are expected to bind :class:`SharedArrayHandle` payloads
      (built by the SUOD plan stages when this backend is active), so
      the pickle stream carries descriptors, not data matrices. Each
      worker attaches a segment once and scores views off it.

    The class itself executes whatever callables it is given — an
    ndarray-bound task still works, it just pays the pickle cost.
    ``uses_shared_memory`` is the capability flag plan builders check
    to decide whether to materialise data into an arena.
    """

    uses_shared_memory = True

    def __init__(self, n_workers: int = 1):
        super().__init__(n_workers)
        self._workers = PersistentPool(self.n_workers)

    def execute(self, tasks: Sequence[Callable], assignment) -> ExecutionResult:
        _, groups = self._group(tasks, assignment)
        t0 = time.perf_counter()

        def run_groups(pool: ProcessPoolExecutor):
            futures = [
                pool.submit(_run_group, [tasks[i] for i in g]) for g in groups
            ]
            return [f.result() for f in futures]

        outputs = self._workers.call_retrying_once(run_groups)
        out = self._scatter(tasks, groups, outputs)
        out.wall_time = time.perf_counter() - t0
        return out

    def shutdown(self, wait: bool = True) -> None:
        """Stop the persistent pool (the next execute respawns it)."""
        self._workers.shutdown(wait=wait)

    def __enter__(self) -> "SharedMemoryProcessBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def __del__(self):
        try:
            self.shutdown(wait=False)
        except Exception:  # noqa: BLE001 - interpreter-shutdown ordering
            pass
