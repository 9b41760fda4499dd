"""Micro-batcher behaviour: coalescing, deadlines, drain, feedback."""

import asyncio
import os
import signal

import numpy as np
import pytest

from repro.serving.batcher import (
    CostModelBatchPolicy,
    DeadlineExpired,
    MicroBatcher,
)


def _score(X):
    """A row-separable stand-in for decision_function."""
    return np.asarray(X)[:, 0] * 2.0


def _rows(*values):
    return np.asarray([[float(v), 0.0] for v in values])


class TestCostModelBatchPolicy:
    def test_cold_start_targets_max_rows(self):
        policy = CostModelBatchPolicy(max_rows=256)
        assert policy.seconds_per_row() is None
        assert policy.target_rows() == 256
        assert policy.forecast_s(100) == 0.0

    def test_observation_sets_per_row_rate(self):
        policy = CostModelBatchPolicy(target_latency_s=0.1, max_rows=10_000)
        policy.observe(rows=100, duration_s=0.2)  # 2 ms/row
        assert policy.seconds_per_row() == pytest.approx(0.002)
        assert policy.forecast_s(50) == pytest.approx(0.1)
        assert policy.target_rows() == 50  # 0.1 s / 2 ms

    def test_target_clamped_to_bounds(self):
        policy = CostModelBatchPolicy(target_latency_s=0.1, max_rows=8)
        policy.observe(rows=10, duration_s=10.0)  # 1 s/row -> wants 0
        assert policy.target_rows() == 1
        policy = CostModelBatchPolicy(target_latency_s=10.0, max_rows=8)
        policy.observe(rows=10, duration_s=0.001)  # wants millions
        assert policy.target_rows() == 8

    def test_scripted_observations_follow_the_ema(self):
        # Empty batches and non-finite or negative durations are skipped;
        # everything else folds in with weight 0.3 on the newest rate.
        policy = CostModelBatchPolicy(target_latency_s=0.05, max_rows=4096)
        script = [
            (0, 0.5),
            (20, float("nan")),
            (100, 0.2),
            (0, 5.0),
            (50, float("nan")),
            (50, float("inf")),
            (50, -0.1),
            (40, 0.02),
            (-3, 1.0),
            (10, 0.5),
            (1, 0.0),
        ]
        rate = None
        for rows, duration in script:
            policy.observe(rows=rows, duration_s=duration)
            if rows > 0 and np.isfinite(duration) and duration >= 0.0:
                new = duration / rows
                rate = new if rate is None else 0.7 * rate + 0.3 * new
            assert policy.seconds_per_row() == rate
            if rate is None:
                assert policy.forecast_s(7) == 0.0
                assert policy.target_rows() == 4096
            else:
                assert policy.forecast_s(7) == rate * 7
                assert policy.target_rows() == max(1, min(4096, int(0.05 / rate)))
        assert rate is not None

    @pytest.mark.parametrize(
        "rows, duration",
        [(0, 0.5), (-3, 1.0), (20, float("nan")), (50, float("inf")), (50, -0.1)],
        ids=["empty", "negative-rows", "nan", "inf", "negative-duration"],
    )
    def test_skipped_observation_leaves_policy_cold(self, rows, duration):
        policy = CostModelBatchPolicy(max_rows=64)
        policy.observe(rows=rows, duration_s=duration)
        assert policy.seconds_per_row() is None
        assert policy.target_rows() == 64
        assert policy.forecast_s(10) == 0.0

    def test_zero_duration_batch_targets_max_rows(self):
        # A measured rate of 0 s/row is kept, but it cannot be inverted:
        # the target stays at the cap and every forecast is free.
        policy = CostModelBatchPolicy(max_rows=64)
        policy.observe(rows=10, duration_s=0.0)
        assert policy.seconds_per_row() == 0.0
        assert policy.target_rows() == 64
        assert policy.forecast_s(10) == 0.0
        policy.observe(rows=10, duration_s=1.0)  # 0.7 * 0 + 0.3 * 0.1
        assert policy.seconds_per_row() == 0.3 * 0.1
        assert policy.target_rows() == 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CostModelBatchPolicy(target_latency_s=0.0)
        with pytest.raises(ValueError):
            CostModelBatchPolicy(max_rows=0)

    @pytest.mark.parametrize("option", ["smoothing", "min_rows", "cost_model"])
    def test_removed_options_are_rejected(self, option):
        with pytest.raises(TypeError):
            CostModelBatchPolicy(**{option: 1})


def _with_cpus(monkeypatch, n):
    """Pretend this process may run on ``n`` CPUs (the worker count)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


class TestMicroBatcher:
    def _three_concurrent_requests(self, run_async):
        async def scenario():
            batcher = MicroBatcher(_score, max_wait_s=0.2)
            await batcher.start()
            futures = [
                batcher.submit(_rows(1, 2), tenant="a"),
                batcher.submit(_rows(3), tenant="b"),
                batcher.submit(_rows(4, 5, 6), tenant="a"),
            ]
            results = await asyncio.gather(*futures)
            await batcher.close()
            return results, batcher

        results, batcher = run_async(scenario())
        # Each future gets exactly its own slice of its batch's scores.
        np.testing.assert_array_equal(results[0].scores, [2.0, 4.0])
        np.testing.assert_array_equal(results[1].scores, [6.0])
        np.testing.assert_array_equal(results[2].scores, [8.0, 10.0, 12.0])
        return results, batcher

    def test_one_worker_coalesces_concurrent_requests_into_one_batch(
        self, run_async, monkeypatch
    ):
        _with_cpus(monkeypatch, 1)
        results, batcher = self._three_concurrent_requests(run_async)
        assert batcher.n_workers == 1
        assert [r.batch_requests for r in results] == [3, 3, 3]
        assert [r.batch_rows for r in results] == [6, 6, 6]
        assert batcher.stats.batches == 1 and batcher.stats.served_requests == 3

    def test_two_workers_deal_whole_requests_over_two_batches(
        self, run_async, monkeypatch
    ):
        # 6 queued rows over 2 idle workers: up to ceil(6 / 2) = 3 rows
        # each, whole requests only, in arrival order.
        _with_cpus(monkeypatch, 2)
        results, batcher = self._three_concurrent_requests(run_async)
        assert batcher.n_workers == 2
        assert [r.batch_requests for r in results] == [2, 2, 1]
        assert [r.batch_rows for r in results] == [3, 3, 3]
        assert batcher.stats.batches == 2 and batcher.stats.served_requests == 3

    def test_batch_closes_once_its_work_outlasts_the_window(self, run_async):
        # 1 s/row measured: 10 queued rows forecast 10 s of scoring, more
        # than the 5 s window, so the batch closes without waiting it out.
        async def scenario():
            policy = CostModelBatchPolicy(target_latency_s=1e4, max_rows=4096)
            policy.observe(rows=1, duration_s=1.0)
            batcher = MicroBatcher(_score, policy=policy, max_wait_s=5.0)
            await batcher.start()
            result = await batcher.submit(_rows(*range(10)))
            await batcher.close()
            return result

        result = run_async(scenario(), timeout=10.0)
        assert result.batch_rows == 10
        assert result.queue_s < 1.0

    def test_max_rows_one_degrades_to_per_request(self, run_async):
        async def scenario():
            batcher = MicroBatcher(
                _score,
                policy=CostModelBatchPolicy(max_rows=1),
                max_wait_s=0.0,
            )
            await batcher.start()
            futures = [batcher.submit(_rows(i)) for i in range(4)]
            results = await asyncio.gather(*futures)
            await batcher.close()
            return results, batcher.stats

        results, stats = run_async(scenario())
        assert stats.batches == 4
        assert all(r.batch_requests == 1 for r in results)

    def test_expired_deadline_fails_fast(self, run_async):
        async def scenario():
            batcher = MicroBatcher(_score, max_wait_s=0.2)
            await batcher.start()
            doomed = batcher.submit(_rows(1), deadline_s=-0.001)
            healthy = batcher.submit(_rows(2))
            result = await healthy
            with pytest.raises(DeadlineExpired):
                await doomed
            await batcher.close()
            return result, batcher.stats

        result, stats = run_async(scenario())
        # The expired request never reached the executor; the healthy
        # one was scored alone.
        assert result.batch_requests == 1
        assert stats.expired_requests == 1 and stats.served_requests == 1

    def test_close_drains_queued_requests(self, run_async):
        async def scenario():
            batcher = MicroBatcher(_score, max_wait_s=5.0)
            await batcher.start()
            futures = [batcher.submit(_rows(i)) for i in range(3)]
            # close() must not wait out the 5 s window: draining closes
            # the open batch immediately.
            await batcher.close()
            return await asyncio.gather(*futures)

        results = run_async(scenario(), timeout=10.0)
        assert len(results) == 3
        assert all(r.scores.shape == (1,) for r in results)

    def test_submit_after_close_is_refused(self, run_async):
        async def scenario():
            batcher = MicroBatcher(_score, max_wait_s=0.0)
            await batcher.start()
            await batcher.close()
            batcher.submit(_rows(1))

        with pytest.raises(RuntimeError, match="draining"):
            run_async(scenario())

    def test_submit_before_start_is_refused(self, run_async):
        async def scenario():
            MicroBatcher(_score).submit(_rows(1))

        with pytest.raises(RuntimeError, match="not started"):
            run_async(scenario())

    def test_scoring_failure_propagates_to_every_request(self, run_async):
        def broken(X):
            raise RuntimeError("detector exploded")

        async def scenario():
            batcher = MicroBatcher(broken, max_wait_s=0.1)
            await batcher.start()
            futures = [batcher.submit(_rows(1)), batcher.submit(_rows(2))]
            outcomes = await asyncio.gather(*futures, return_exceptions=True)
            await batcher.close()
            return outcomes, batcher.stats

        outcomes, stats = run_async(scenario())
        assert all(isinstance(o, RuntimeError) for o in outcomes)
        assert stats.failed_requests == 2 and stats.batches == 0

    def test_pool_broken_while_idle_is_rebuilt_for_the_next_batch(self, run_async):
        # A worker killed between batches (say, by the OOM killer) breaks
        # the pool before any batch reaches it; the next batch is scored
        # on a rebuilt pool instead of failing or hanging.
        async def scenario():
            batcher = MicroBatcher(_score, max_wait_s=0.0)
            await batcher.start()
            await batcher.submit(_rows(1))
            broken = batcher._workers.executor
            os.kill(next(iter(broken._processes)), signal.SIGKILL)
            while not broken._broken:
                await asyncio.sleep(0.01)
            result = await batcher.submit(_rows(2))
            rebuilt = batcher._workers.executor
            await batcher.close()
            return result, broken, rebuilt, batcher.stats

        result, broken, rebuilt, stats = run_async(scenario(), timeout=20.0)
        np.testing.assert_array_equal(result.scores, [4.0])
        assert rebuilt is not broken
        assert stats.batches == 2 and stats.failed_requests == 0

    def test_latency_feedback_reaches_policy(self, run_async):
        async def scenario():
            batcher = MicroBatcher(_score, max_wait_s=0.0)
            await batcher.start()
            await batcher.submit(_rows(1, 2, 3))
            await batcher.close()
            return batcher.policy

        policy = run_async(scenario())
        assert policy.seconds_per_row() is not None
        assert policy.seconds_per_row() > 0.0


class TestSharedStructureReuse:
    """Fitted shared KD-trees serve every micro-batch without rebuilds."""

    @pytest.fixture(scope="class")
    def shared_model(self):
        from repro.core.suod import SUOD
        from repro.data import make_outlier_dataset
        from repro.detectors import KNN, LOF, AvgKNN

        # RP off: the three detectors read one space, so the share
        # stage builds (and injects) a single shared tree.
        X, _ = make_outlier_dataset(
            n_samples=400, n_features=6, contamination=0.1, random_state=21
        )
        model = SUOD(
            [KNN(n_neighbors=5), AvgKNN(n_neighbors=9), LOF(n_neighbors=7)],
            rp_flag_global=False,
            approx_flag_global=False,
            random_state=0,
        ).fit(X)
        assert model.sharing_fit_info_["structures_built"] == 1
        return model

    def test_micro_batches_reuse_fitted_trees(self, run_async, shared_model):
        from repro.data import make_outlier_dataset
        from repro.neighbors import kdtree_build_count

        X, _ = make_outlier_dataset(
            n_samples=30, n_features=6, contamination=0.1, random_state=22
        )

        async def scenario():
            batcher = MicroBatcher(
                shared_model.decision_function, max_wait_s=0.0
            )
            await batcher.start()
            results = []
            for i in range(3):  # one micro-batch per submit (max_wait 0)
                results.append(await batcher.submit(X[i * 10 : (i + 1) * 10]))
            await batcher.close()
            return results, batcher.stats

        before = kdtree_build_count()
        results, stats = run_async(scenario())
        assert kdtree_build_count() == before  # no rebuilds while serving
        assert stats.structure_builds == 0
        assert stats.to_dict()["structure_builds"] == 0
        assert stats.batches == 3
        direct = shared_model.decision_function(X)
        served = np.concatenate([r.scores for r in results])
        assert np.array_equal(served, direct)

    def test_rebuilding_score_fn_is_counted(self, run_async):
        from repro.neighbors.kdtree import KDTree

        train = np.random.default_rng(0).normal(size=(64, 3))

        def rebuilds(X):
            tree = KDTree(train)  # the anti-pattern the counter catches
            dist, _ = tree.query(np.asarray(X), 3)
            return dist[:, -1]

        async def scenario():
            batcher = MicroBatcher(rebuilds, max_wait_s=0.0)
            await batcher.start()
            for _ in range(2):
                await batcher.submit(
                    np.random.default_rng(1).normal(size=(4, 3))
                )
            await batcher.close()
            return batcher.stats

        stats = run_async(scenario())
        assert stats.structure_builds == 2  # one rebuild per batch
