"""Execution-level substrate: worker backends for distributed OD.

The paper's setting is "scale-up" parallelism — t workers (cores) on one
machine (§2.2). This package provides interchangeable backends behind one
interface:

- :class:`SequentialBackend` — single worker, measures true per-task cost;
- :class:`ThreadBackend` — one thread per worker (real concurrency for
  NumPy-bound tasks that release the GIL);
- :class:`SimulatedClusterBackend` — executes tasks once on the local
  core while *replaying* their measured costs through t virtual workers
  with a virtual clock. On a single-core host this reproduces exactly the
  quantity the BPS scheduler optimises (the makespan of the assignment)
  without needing t physical cores — see the substitution table in
  docs/architecture.md.
  With ``known_costs=...`` it replays a schedule deterministically
  without executing anything (Tables 4/5, scheduler trajectories);
- :class:`SharedMemoryProcessBackend` — processes with a *persistent*
  worker pool and zero-copy data transport: task payloads reference
  arrays through :class:`SharedArrayHandle` descriptors into a
  :class:`SharedMemoryArena`, each worker attaches a segment once and
  scores read-only views off it (see :mod:`repro.parallel.shm`).

Every backend takes a pre-computed ``assignment`` (task -> worker), so
the scheduling policy (generic vs BPS) stays a separate, testable
concern.
"""

from repro.parallel.execution import (
    ExecutionResult,
    SequentialBackend,
    ThreadBackend,
    SimulatedClusterBackend,
    get_backend,
    get_backend_class,
    register_backend,
)
from repro.parallel.shm import (
    SharedArrayHandle,
    SharedMemoryArena,
    SharedMemoryProcessBackend,
    attach_array,
    resolve_array,
)

__all__ = [
    "ExecutionResult",
    "SequentialBackend",
    "ThreadBackend",
    "SimulatedClusterBackend",
    "SharedArrayHandle",
    "SharedMemoryArena",
    "SharedMemoryProcessBackend",
    "attach_array",
    "resolve_array",
    "get_backend",
    "get_backend_class",
    "register_backend",
]
