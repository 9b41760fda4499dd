import functools
import time

import numpy as np
import pytest

from repro.parallel import (
    SequentialBackend,
    SimulatedClusterBackend,
    ThreadBackend,
    get_backend,
    get_backend_class,
)


def _square(x):
    return x * x


def _sleep_return(t, val):
    time.sleep(t)
    return val


def _boom():
    raise RuntimeError("task exploded")


def make_tasks(values):
    return [functools.partial(_square, v) for v in values]


class TestSequential:
    def test_results_in_order(self):
        res = SequentialBackend().execute(make_tasks([1, 2, 3]))
        assert res.results == [1, 4, 9]
        assert res.wall_time > 0
        assert res.task_times.shape == (3,)

    def test_exception_captured_not_raised(self):
        res = SequentialBackend().execute([_boom, functools.partial(_square, 2)])
        assert isinstance(res.results[0], RuntimeError)
        assert res.results[1] == 4
        assert res.n_failed == 1
        with pytest.raises(RuntimeError, match="exploded"):
            res.raise_first_error()

    def test_empty_tasks(self):
        res = SequentialBackend().execute([])
        assert res.results == []


class TestThreadBackend:
    def test_results_in_submission_order(self):
        tasks = make_tasks(range(10))
        assignment = np.arange(10) % 3
        res = ThreadBackend(3).execute(tasks, assignment)
        assert res.results == [v * v for v in range(10)]

    def test_worker_times_populated(self):
        tasks = [functools.partial(_sleep_return, 0.01, i) for i in range(4)]
        res = ThreadBackend(2).execute(tasks, [0, 0, 1, 1])
        assert res.worker_times.shape == (2,)
        assert (res.worker_times > 0).all()

    def test_bad_assignment(self):
        with pytest.raises(ValueError):
            ThreadBackend(2).execute(make_tasks([1]), [5])

    def test_assignment_length_mismatch(self):
        with pytest.raises(ValueError):
            ThreadBackend(2).execute(make_tasks([1, 2]), [0])

    def test_exception_captured_not_raised(self):
        res = ThreadBackend(2).execute([_boom, functools.partial(_square, 2)], [0, 1])
        assert isinstance(res.results[0], RuntimeError)
        assert res.results[1] == 4
        assert res.n_failed == 1
        with pytest.raises(RuntimeError, match="exploded"):
            res.raise_first_error()

    def test_failed_tasks_still_fill_telemetry(self):
        res = ThreadBackend(2).execute([_boom] * 4, [0, 0, 1, 1])
        assert res.n_failed == 4
        assert res.task_times.shape == (4,)
        assert res.worker_times.shape == (2,)

    def test_empty_tasks(self):
        res = ThreadBackend(2).execute([], [])
        assert res.results == []
        assert res.worker_times.shape == (2,)


class TestSimulatedCluster:
    def test_virtual_makespan_is_max_group_sum(self):
        costs = [3.0, 1.0, 2.0, 2.0]
        tasks = make_tasks([0, 0, 0, 0])
        res = SimulatedClusterBackend(2).execute(tasks, [0, 0, 1, 1], known_costs=costs)
        assert res.wall_time == 4.0
        np.testing.assert_allclose(res.worker_times, [4.0, 4.0])

    def test_executes_real_results_without_known_costs(self):
        res = SimulatedClusterBackend(2).execute(make_tasks([2, 3]), [0, 1])
        assert res.results == [4, 9]
        assert res.wall_time >= 0

    def test_balanced_beats_imbalanced(self):
        costs = np.array([5.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        tasks = make_tasks(np.zeros(6))
        bad = SimulatedClusterBackend(2).execute(
            tasks, [0, 0, 0, 1, 1, 1], known_costs=costs
        )
        good = SimulatedClusterBackend(2).execute(
            tasks, [0, 1, 1, 1, 1, 1], known_costs=costs
        )
        assert good.wall_time < bad.wall_time

    def test_known_costs_length_check(self):
        with pytest.raises(ValueError):
            SimulatedClusterBackend(2).execute(
                make_tasks([1, 2]), [0, 1], known_costs=[1.0]
            )

    def test_known_costs_replay_runs_no_task(self):
        res = SimulatedClusterBackend(2).execute(
            [_boom] * 3, [0, 1, 1], known_costs=[1.0, 2.0, 3.0]
        )
        assert res.results == [None, None, None]
        assert res.n_failed == 0
        assert res.wall_time == 5.0

    def test_replay_is_deterministic(self):
        costs = np.random.default_rng(3).lognormal(0.0, 1.0, 25)
        a = np.arange(25) % 3
        r1 = SimulatedClusterBackend(3).execute([None] * 25, a, known_costs=costs)
        r2 = SimulatedClusterBackend(3).execute([None] * 25, a, known_costs=costs)
        assert r1.wall_time == r2.wall_time
        np.testing.assert_array_equal(r1.worker_times, r2.worker_times)

    def test_replay_makespan_never_below_lower_bound(self):
        rng = np.random.default_rng(0)
        for t in (2, 3, 5):
            for _ in range(20):
                m = int(rng.integers(1, 40))
                costs = rng.lognormal(0.0, 1.5, m)
                a = rng.integers(0, t, m)
                res = SimulatedClusterBackend(t).execute(
                    [None] * m, a, known_costs=costs
                )
                np.testing.assert_allclose(
                    res.worker_times, np.bincount(a, weights=costs, minlength=t)
                )
                assert res.wall_time == res.worker_times.max()
                bound = max(costs.sum() / t, costs.max())
                assert res.wall_time >= bound * (1 - 1e-12)


#: Every registered backend, with the worker count it is exercised at.
ALL_BACKENDS = [
    ("sequential", 1),
    ("threads", 2),
    ("shm_processes", 2),
    ("simulated", 2),
]


@pytest.fixture(params=[name for name, _ in ALL_BACKENDS])
def backend_name(request):
    return request.param


@pytest.fixture
def backend(backend_name):
    b = get_backend(backend_name, dict(ALL_BACKENDS)[backend_name])
    yield b
    if hasattr(b, "shutdown"):
        b.shutdown()


class TestBackendContract:
    """What a wave relies on from whichever backend runs it: results in
    submission order, exceptions returned rather than raised, and
    per-task / per-worker telemetry of a fixed shape."""

    @staticmethod
    def _spread(n_tasks, n_workers):
        # Reversed round-robin, so no worker's tasks are a prefix.
        return (np.arange(n_tasks)[::-1] % n_workers).astype(np.int64)

    def test_registry_lookup(self, backend_name, backend):
        assert type(backend) is get_backend_class(backend_name)
        assert backend.n_workers == dict(ALL_BACKENDS)[backend_name]

    def test_results_in_submission_order(self, backend):
        tasks = make_tasks(range(10))
        res = backend.execute(tasks, self._spread(10, backend.n_workers))
        assert res.results == [v * v for v in range(10)]

    def test_bad_assignment(self, backend):
        with pytest.raises(ValueError):
            backend.execute(make_tasks([1]), [backend.n_workers])

    def test_assignment_length_mismatch(self, backend):
        with pytest.raises(ValueError):
            backend.execute(make_tasks([1, 2]), [0])

    def test_empty_tasks(self, backend):
        res = backend.execute([], [])
        assert res.results == []
        assert res.n_failed == 0
        assert res.task_times.shape == (0,)
        assert res.worker_times.shape == (backend.n_workers,)
        assert res.wall_time >= 0.0

    def test_exception_captured_not_raised(self, backend):
        tasks = [_boom, functools.partial(_square, 2), _boom]
        res = backend.execute(tasks, self._spread(3, backend.n_workers))
        assert isinstance(res.results[0], RuntimeError)
        assert res.results[1] == 4
        assert isinstance(res.results[2], RuntimeError)
        assert res.n_failed == 2
        with pytest.raises(RuntimeError, match="exploded"):
            res.raise_first_error()

    def test_failed_tasks_still_fill_telemetry(self, backend):
        res = backend.execute([_boom] * 4, self._spread(4, backend.n_workers))
        assert res.n_failed == 4
        assert res.task_times.shape == (4,)
        assert res.worker_times.shape == (backend.n_workers,)

    def test_worker_time_is_its_tasks_sum(self, backend):
        tasks = [functools.partial(_sleep_return, 0.001, v) for v in range(6)]
        a = self._spread(6, backend.n_workers)
        res = backend.execute(tasks, a)
        assert res.results == list(range(6))
        assert res.task_times.shape == (6,)
        assert np.all(res.task_times > 0.0)
        np.testing.assert_allclose(
            res.worker_times,
            np.bincount(a, weights=res.task_times, minlength=backend.n_workers),
            rtol=1e-9,
        )
        assert res.wall_time > 0.0


class TestGetBackend:
    def test_names(self):
        assert isinstance(get_backend("sequential"), SequentialBackend)
        assert isinstance(get_backend("threads", 2), ThreadBackend)
        assert isinstance(get_backend("simulated", 2), SimulatedClusterBackend)

    def test_unknown(self):
        with pytest.raises(ValueError):
            get_backend("mpi")

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            ThreadBackend(0)


class TestExecutionResultMerge:
    def test_empty_merge_is_neutral(self):
        from repro.parallel import ExecutionResult

        merged = ExecutionResult.merge([])
        assert merged.results == []
        assert merged.wall_time == 0.0
        assert merged.worker_times.shape == (0,)
        assert merged.task_times.shape == (0,)

    def test_merge_sums_wall_and_concatenates_results(self):
        from repro.parallel import ExecutionResult

        a = SequentialBackend().execute(make_tasks([1, 2]))
        b = SequentialBackend().execute(make_tasks([3]))
        merged = ExecutionResult.merge([a, b])
        assert merged.results == [1, 4, 9]
        assert merged.wall_time == pytest.approx(a.wall_time + b.wall_time)
        assert merged.task_times.shape == (3,)
        np.testing.assert_allclose(
            merged.task_times, np.concatenate([a.task_times, b.task_times])
        )

    def test_merge_pads_worker_arrays_to_widest(self):
        from repro.parallel import ExecutionResult

        a = SequentialBackend().execute(make_tasks([1, 2]))  # 1 worker
        b = ThreadBackend(n_workers=3).execute(
            make_tasks([1, 2, 3]), np.array([0, 1, 2])
        )
        merged = ExecutionResult.merge([a, b])
        assert merged.worker_times.shape == (3,)
        assert merged.worker_times[0] == pytest.approx(
            a.worker_times[0] + b.worker_times[0]
        )

    def test_merge_replayed_telemetry_exactly(self):
        from repro.parallel import ExecutionResult

        costs1 = np.array([4.0, 1.0, 1.0, 1.0])
        costs2 = np.array([2.0, 2.0, 1.0])
        r1 = SimulatedClusterBackend(2).execute(
            [None] * 4, [0, 1, 1, 1], known_costs=costs1
        )
        r2 = SimulatedClusterBackend(3).execute(
            [None] * 3, [0, 1, 2], known_costs=costs2
        )
        merged = ExecutionResult.merge([r1, r2])
        assert merged.wall_time == r1.wall_time + r2.wall_time == 6.0
        np.testing.assert_array_equal(merged.worker_times, [6.0, 5.0, 1.0])
        np.testing.assert_array_equal(
            merged.task_times, np.concatenate([costs1, costs2])
        )


class TestPerTaskDurations:
    """Every backend records per-task wall-clock durations (satellite of
    the adaptive scheduling loop: ``task_times`` is what the
    TelemetryRefinedCostModel consumes)."""

    def _tasks(self):
        return [functools.partial(_sleep_return, 0.002, v) for v in range(6)]

    @pytest.mark.parametrize("name", ["sequential", "threads", "shm_processes"])
    def test_backend_records_positive_task_times(self, name):
        n_workers = 1 if name == "sequential" else 2
        backend = get_backend(name, n_workers)
        assignment = np.arange(6) % n_workers
        res = backend.execute(self._tasks(), assignment)
        try:
            assert res.results == list(range(6))
            assert res.task_times.shape == (6,)
            assert np.all(res.task_times > 0.0)
            # Worker busy time is the sum of its tasks' durations.
            np.testing.assert_allclose(
                res.worker_times.sum(), res.task_times.sum(), rtol=1e-6
            )
        finally:
            if hasattr(backend, "shutdown"):
                backend.shutdown()

    def test_virtual_clock_task_times_are_the_known_costs(self):
        costs = np.array([3.0, 1.0, 2.0, 5.0])
        assignment = np.array([0, 0, 1, 1])
        sim = SimulatedClusterBackend(2).execute(
            [None] * 4, assignment, known_costs=costs
        )
        np.testing.assert_array_equal(sim.task_times, costs)

    def test_merge_concatenates_task_times_in_phase_order(self):
        a = SequentialBackend().execute(make_tasks([1, 2]))
        b = SequentialBackend().execute(make_tasks([3]))
        from repro.parallel import ExecutionResult

        merged = ExecutionResult.merge([a, b])
        np.testing.assert_array_equal(
            merged.task_times, np.concatenate([a.task_times, b.task_times])
        )
