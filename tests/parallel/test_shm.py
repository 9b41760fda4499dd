"""The shared-memory data plane: handles, arena lifecycle, backend table.

Process-level contracts (persistent pool, attach-once-per-worker) are
exercised with real worker processes; segment hygiene is pinned against
the actual /dev/shm listing where one exists.
"""

import functools
import os
import pickle
import warnings

import numpy as np
import pytest

from repro.parallel import (
    SequentialBackend,
    SharedArrayHandle,
    SharedMemoryArena,
    SharedMemoryProcessBackend,
    attach_array,
    get_backend,
    get_backend_class,
    resolve_array,
)
from repro.parallel import shm as shm_mod

SHM_DIR = "/dev/shm"
needs_shm_fs = pytest.mark.skipif(
    not os.path.isdir(SHM_DIR), reason="no /dev/shm on this platform"
)


def shm_segments() -> set:
    return {f for f in os.listdir(SHM_DIR) if f.startswith("repro_shm_")}


def _square(x):
    return x * x


def _boom():
    raise RuntimeError("task exploded")


def _sum_of(handle):
    """Worker task: resolve a handle and sum the array."""
    return float(resolve_array(handle).sum())


def _worker_cache_state(handle):
    """Worker task: pid plus the size of this process's attach cache."""
    resolve_array(handle)
    return os.getpid(), len(shm_mod._attached)


def _die_first_time(marker):
    """Kill this worker on the first call (no marker yet), then answer."""
    if not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(1)
    return 42


def _pid():
    return os.getpid()


class TestSharedArrayHandle:
    def test_share_attach_roundtrip_bitwise(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((37, 5))
        with SharedMemoryArena() as arena:
            handle = arena.share(X)
            view = attach_array(handle)
            np.testing.assert_array_equal(view, X)
            assert view.dtype == X.dtype and view.shape == X.shape
            del view  # release the exported buffer before closing the map
            shm_mod.detach_all()

    @pytest.mark.parametrize("dtype", [np.float32, np.int64, np.uint8])
    def test_dtype_preserved(self, dtype):
        X = np.arange(12, dtype=dtype).reshape(3, 4)
        with SharedMemoryArena() as arena:
            handle = arena.share(X)
            assert handle.dtype == X.dtype.str
            np.testing.assert_array_equal(attach_array(handle), X)
            shm_mod.detach_all()  # no lingering view: attach result was temporary

    def test_attached_view_is_read_only(self):
        with SharedMemoryArena() as arena:
            handle = arena.share(np.ones((4, 4)))
            view = attach_array(handle)
            with pytest.raises(ValueError):
                view[0, 0] = 7.0
            del view
            shm_mod.detach_all()

    def test_zero_byte_array_needs_no_segment(self):
        with SharedMemoryArena() as arena:
            handle = arena.share(np.empty((0, 3)))
            assert handle.name == ""
            assert len(arena) == 0
            out = attach_array(handle)
            assert out.shape == (0, 3)

    def test_handle_pickles_small(self):
        handle = SharedArrayHandle("repro_shm_deadbeef", (10_000, 64), "<f8")
        assert len(pickle.dumps(handle)) < 200
        assert handle.nbytes == 10_000 * 64 * 8

    def test_resolve_array_passthrough(self):
        X = np.ones(3)
        assert resolve_array(X) is X

    @needs_shm_fs
    def test_attach_cache_drops_unlinked_segments(self):
        shm_mod.detach_all()
        arena_a = SharedMemoryArena()
        handle_a = arena_a.share(np.ones((8, 8)))
        attach_array(handle_a)
        assert handle_a.name in shm_mod._attached
        arena_a.dispose()  # owner unlinks; cached attachment is now dead
        with SharedMemoryArena() as arena_b:
            handle_b = arena_b.share(np.zeros((4, 4)))
            attach_array(handle_b)  # new attach sweeps dead entries
            assert handle_a.name not in shm_mod._attached
            assert handle_b.name in shm_mod._attached
            shm_mod.detach_all()


class TestSharedMemoryArena:
    def test_same_object_shared_once(self):
        X = np.ones((8, 2))
        with SharedMemoryArena() as arena:
            h1, h2 = arena.share(X), arena.share(X)
            assert h1 is h2
            assert len(arena) == 1

    def test_share_all_mirrors_list(self):
        X = np.ones((4, 2))
        spaces = [X, np.zeros((4, 3)), X]  # duplicates like NoProjection
        with SharedMemoryArena() as arena:
            handles = arena.share_all(spaces)
            assert handles[0] is handles[2]
            assert len(arena) == 2

    @needs_shm_fs
    def test_dispose_unlinks_segments(self):
        before = shm_segments()
        arena = SharedMemoryArena()
        arena.share(np.ones((16, 16)))
        assert len(shm_segments()) == len(before) + 1
        arena.dispose()
        assert shm_segments() == before
        arena.dispose()  # idempotent

    def test_share_after_dispose_raises(self):
        arena = SharedMemoryArena()
        arena.dispose()
        with pytest.raises(RuntimeError, match="disposed"):
            arena.share(np.ones(3))

    def test_attach_after_dispose_raises(self):
        arena = SharedMemoryArena()
        handle = arena.share(np.ones((5, 5)))
        arena.dispose()
        with pytest.raises(FileNotFoundError):
            attach_array(handle)

    def test_total_bytes_and_repr(self):
        with SharedMemoryArena() as arena:
            arena.share(np.ones((10, 10)))
            assert arena.total_bytes == 800
            assert "1 segments" in repr(arena)
        assert "disposed" in repr(arena)


class TestSharedMemoryProcessBackend:
    def test_results_in_submission_order(self):
        with SharedMemoryProcessBackend(2) as backend:
            tasks = [functools.partial(_square, v) for v in range(6)]
            res = backend.execute(tasks, np.arange(6) % 2)
            assert res.results == [v * v for v in range(6)]

    def test_exception_captured_not_raised(self):
        with SharedMemoryProcessBackend(2) as backend:
            res = backend.execute([_boom, functools.partial(_square, 3)], [0, 1])
            assert isinstance(res.results[0], RuntimeError)
            assert res.results[1] == 9

    def test_pool_persists_across_executes(self):
        with SharedMemoryProcessBackend(2) as backend:
            first = backend.execute([_pid] * 4, [0, 0, 1, 1])
            pool = backend._workers.executor
            second = backend.execute([_pid] * 4, [0, 0, 1, 1])
            assert backend._workers.executor is pool
            # Both runs were served by the one pool's workers (which of
            # the two picks up a group is the executor's business).
            assert set(first.results) | set(second.results) <= set(pool._processes)

    def test_handle_tasks_resolve_in_workers(self):
        X = np.arange(20, dtype=np.float64).reshape(4, 5)
        with SharedMemoryArena() as arena, SharedMemoryProcessBackend(2) as b:
            handle = arena.share(X)
            res = b.execute([functools.partial(_sum_of, handle)] * 4, [0, 0, 1, 1])
            assert res.results == [float(X.sum())] * 4

    def test_workers_attach_once_per_segment(self):
        X = np.ones((32, 8))
        with SharedMemoryArena() as arena, SharedMemoryProcessBackend(2) as b:
            handle = arena.share(X)
            task = functools.partial(_worker_cache_state, handle)
            first = b.execute([task] * 4, [0, 0, 1, 1])
            second = b.execute([task] * 4, [0, 0, 1, 1])
            # Same segment resolved repeatedly never grows a worker's
            # attachment cache past one entry.
            for pid, cached in first.results + second.results:
                assert cached == 1

    def test_shutdown_then_execute_respawns(self):
        backend = SharedMemoryProcessBackend(2)
        try:
            backend.execute([functools.partial(_square, 2)], [0])
            backend.shutdown()
            assert backend._workers.executor is None
            res = backend.execute([functools.partial(_square, 3)], [0])
            assert res.results == [9]
        finally:
            backend.shutdown()

    def test_dead_worker_rebuilds_the_pool_and_retries_once(self, tmp_path):
        marker = str(tmp_path / "died")
        with SharedMemoryProcessBackend(2) as backend:
            backend.execute([_pid], [0])
            first_pool = backend._workers.executor
            res = backend.execute([functools.partial(_die_first_time, marker)], [0])
            assert res.results == [42]
            assert backend._workers.executor is not first_pool

    def test_pool_discards_only_the_executor_that_broke(self):
        from repro.parallel.shm import PersistentPool

        pool = PersistentPool(1)
        try:
            stale = pool.get()
            pool.discard()
            current = pool.get()
            assert current is not stale
            pool.discard(stale)  # a late report of the old crash
            assert pool.executor is current
            pool.discard(current)
            assert pool.executor is None
        finally:
            pool.shutdown()

    def test_capability_flag(self):
        assert SharedMemoryProcessBackend.uses_shared_memory
        assert get_backend_class("shm_processes") is SharedMemoryProcessBackend


class TestRegistry:
    def test_get_backend_shm_name(self):
        backend = get_backend("shm_processes", n_workers=2)
        assert isinstance(backend, SharedMemoryProcessBackend)
        backend.shutdown()

    def test_sequential_warns_when_workers_requested(self):
        with pytest.warns(UserWarning, match="always runs one worker"):
            backend = get_backend("sequential", n_workers=8)
        assert isinstance(backend, SequentialBackend)

    def test_sequential_silent_with_one_worker(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            get_backend("sequential")
            get_backend("sequential", n_workers=1)

    def test_backend_table_is_closed(self):
        # Four names, each bound to its class once at import; there is
        # no registration hook to add or shadow one.
        import repro.parallel as parallel

        assert parallel._BACKENDS == {
            "sequential": SequentialBackend,
            "threads": parallel.ThreadBackend,
            "shm_processes": SharedMemoryProcessBackend,
            "simulated": parallel.SimulatedClusterBackend,
        }
        assert not any(name.startswith("register") for name in dir(parallel))
        assert not hasattr(parallel.execution, "register_backend")
