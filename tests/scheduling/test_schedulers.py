"""Scheduler objects: policy equivalence, the adaptive feedback loop and
BPS's makespan against generic."""

import numpy as np
import pytest

from repro.data import make_outlier_dataset
from repro.detectors.registry import sample_model_pool
from repro.metrics import makespan
from repro.parallel import SimulatedClusterBackend
from repro.scheduling import (
    AdaptiveScheduler,
    AnalyticCostModel,
    BpsKkScheduler,
    BpsScheduler,
    GenericScheduler,
    ShuffleScheduler,
    TelemetryRefinedCostModel,
    bps_schedule,
    generic_schedule,
    get_scheduler,
    lpt_partition,
    shuffle_schedule,
)


class TestStaticPolicies:
    """Scheduler objects wrap the policy functions without drift."""

    def test_generic_matches_function(self):
        sched = GenericScheduler()
        np.testing.assert_array_equal(sched.assign(11, 3), generic_schedule(11, 3))
        assert sched.name == "generic"
        assert not sched.uses_costs and not sched.adaptive

    def test_shuffle_matches_seeded_function(self):
        np.testing.assert_array_equal(
            ShuffleScheduler(random_state=7).assign(20, 4),
            shuffle_schedule(20, 4, random_state=7),
        )

    def test_shuffle_draws_fresh_permutations_per_batch(self):
        sched = ShuffleScheduler(random_state=0)
        a1, a2 = sched.assign(40, 4), sched.assign(40, 4)
        assert not np.array_equal(a1, a2)

    @pytest.mark.parametrize("method", ["lpt", "kk"])
    def test_bps_matches_function(self, method):
        costs = np.random.default_rng(0).exponential(1.0, 30)
        sched = BpsScheduler(method=method)
        np.testing.assert_array_equal(
            sched.assign(30, 4, costs), bps_schedule(costs, 4, method=method)
        )
        assert sched.name == f"bps-{method}"

    def test_bps_kk_subclass(self):
        costs = np.random.default_rng(1).exponential(1.0, 20)
        np.testing.assert_array_equal(
            BpsKkScheduler().assign(20, 3, costs),
            BpsScheduler(method="kk").assign(20, 3, costs),
        )

    def test_bps_without_costs_falls_back_to_generic(self):
        np.testing.assert_array_equal(
            BpsScheduler().assign(9, 2), generic_schedule(9, 2)
        )

    def test_bps_invalid_method(self):
        with pytest.raises(ValueError, match="method"):
            BpsScheduler(method="magic")

    def test_observe_is_noop_for_static_policies(self):
        sched = BpsScheduler()
        assert sched.observe([1.0, 2.0]) == 0


class TestAdaptiveScheduler:
    def test_cold_start_equals_bps_lpt(self):
        costs = np.random.default_rng(2).lognormal(0.0, 1.0, 25)
        np.testing.assert_array_equal(
            AdaptiveScheduler().assign(25, 4, costs),
            BpsScheduler().assign(25, 4, costs),
        )

    def test_cold_start_without_costs_is_generic(self):
        np.testing.assert_array_equal(
            AdaptiveScheduler().assign(8, 2), generic_schedule(8, 2)
        )

    def test_observed_costs_take_over(self):
        sched = AdaptiveScheduler(smoothing=1.0)
        true_costs = np.array([8.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        assert sched.observe(true_costs, task_keys=range(6)) == 6
        assert sched.n_observed == 6
        assignment = sched.assign(6, 3, np.ones(6), task_keys=range(6))
        np.testing.assert_array_equal(assignment, lpt_partition(true_costs, 3))
        # The heavy task sits alone on its worker.
        assert np.sum(assignment == assignment[0]) == 1

    def test_unobserved_keys_keep_the_bps_cold_start(self):
        # Telemetry under other keys (e.g. fit) must not strip the rank
        # hedge from a batch whose own keys were never observed.
        costs = np.array([100.0, 30.0, 28.0, 26.0, 2.0, 1.0])
        sched = AdaptiveScheduler(smoothing=1.0)
        sched.observe(np.ones(6), task_keys=[("fit", i) for i in range(6)])
        np.testing.assert_array_equal(
            sched.assign(6, 2, costs, task_keys=[("predict", i) for i in range(6)]),
            BpsScheduler().assign(6, 2, costs),
        )

    def test_shared_cost_model_instance(self):
        shared = TelemetryRefinedCostModel(smoothing=1.0)
        shared.observe([2.0, 1.0], keys=[("predict", 0), ("predict", 1)])
        sched = AdaptiveScheduler(shared)
        assert sched.n_observed == 2
        assert "n_observed=2" in repr(sched)


class TestAdaptiveFeedbackLoop:
    """Acceptance: adaptive makespan drops across consecutive batches.

    A skewed pool (one hidden-heavy task among unit tasks) is scheduled
    from a maximally wrong forecast and replayed through the
    virtual-clock simulated backend for several consecutive predict
    batches. Static BPS repeats its mistake forever; the adaptive policy
    folds batch 1's measured durations back in and reaches the optimal
    makespan from batch 2 on. Fully deterministic (virtual clock).
    """

    M, T, BATCHES = 40, 4, 4

    def _true_costs(self):
        costs = np.ones(self.M)
        costs[-1] = 30.0  # hidden heavy task, last in submission order
        return costs

    def _replay_batches(self, scheduler):
        backend = SimulatedClusterBackend(n_workers=self.T)
        true_costs = self._true_costs()
        forecast = np.ones(self.M)  # the wrong static guess
        spans = []
        for _ in range(self.BATCHES):
            assignment = scheduler.assign(
                self.M, self.T, forecast, task_keys=range(self.M)
            )
            result = backend.execute(
                [None] * self.M, assignment, known_costs=true_costs
            )
            # Deterministic virtual-clock durations drive the feedback.
            np.testing.assert_array_equal(result.task_times, true_costs)
            scheduler.observe(result.task_times, task_keys=range(self.M))
            spans.append(result.wall_time)
        return spans

    def test_adaptive_makespan_drops_by_batch_three(self):
        spans = self._replay_batches(AdaptiveScheduler(smoothing=1.0))
        lower_bound = max(self._true_costs().sum() / self.T, 30.0)
        assert spans[2] < spans[0]
        assert spans[0] > lower_bound  # batch 1 pays for the bad forecast
        assert spans[2] == pytest.approx(lower_bound)  # batch 3 is optimal
        # Monotone: later batches never regress.
        assert spans[1] <= spans[0] and spans[3] <= spans[2]

    def test_static_bps_stays_flat(self):
        spans = self._replay_batches(BpsScheduler())
        assert spans == [spans[0]] * self.BATCHES

    def test_adaptive_batch_one_matches_static(self):
        adaptive = self._replay_batches(AdaptiveScheduler(smoothing=1.0))
        static = self._replay_batches(BpsScheduler())
        assert adaptive[0] == static[0]

    def test_adaptive_beats_static_makespan_on_true_costs(self):
        # Same comparison without the backend: assignments evaluated by
        # the makespan metric directly.
        true_costs = self._true_costs()
        sched = AdaptiveScheduler(smoothing=1.0)
        first = sched.assign(self.M, self.T, np.ones(self.M), task_keys=range(self.M))
        sched.observe(true_costs, task_keys=range(self.M))
        second = sched.assign(self.M, self.T, np.ones(self.M), task_keys=range(self.M))
        assert makespan(true_costs, second, self.T) < makespan(
            true_costs, first, self.T
        )


@pytest.fixture(scope="module")
def table_b1_forecasts():
    """Analytic forecasts of ten shuffled Table B.1 pools per pool size."""
    X, _ = make_outlier_dataset(500, 20, random_state=0)
    return {
        m: [
            AnalyticCostModel().forecast(
                sample_model_pool(m, max_n_neighbors=50, random_state=seed), X
            )
            for seed in range(10)
        ]
        for m in (20, 40, 100)
    }


class TestBPSMakespan:
    """The paper's BPS claim (Table 4): on a shuffled heterogeneous pool
    whose costs are known, balancing forecast ranks gives a shorter
    makespan on t workers than generic's contiguous split.

    Replayed on the virtual clock, so deterministic. Per pool it is a
    tendency, not a law (BPS balances discounted ranks, not costs): over
    ten pools each policy wins on at least 7 and cuts the total makespan
    by 9-34 %.
    """

    @pytest.mark.parametrize("policy", ["bps-lpt", "bps-kk"])
    @pytest.mark.parametrize("m, t", [(m, t) for m in (20, 40, 100) for t in (2, 4, 8)])
    def test_beats_generic_on_known_costs(self, table_b1_forecasts, policy, m, t):
        def replay(name, costs):
            a = get_scheduler(name).assign(m, t, costs)
            run = SimulatedClusterBackend(t).execute([None] * m, a, known_costs=costs)
            return run.wall_time

        spans = np.array(
            [
                (replay("generic", costs), replay(policy, costs))
                for costs in table_b1_forecasts[m]
            ]
        )
        generic, bps = spans.T
        assert bps.sum() < generic.sum()
        assert (bps < generic).sum() > len(spans) // 2
        # Never below the makespan lower bound max(mean load, largest task).
        for costs, span in zip(table_b1_forecasts[m], bps):
            assert span >= max(costs.sum() / t, costs.max()) * (1 - 1e-12)
