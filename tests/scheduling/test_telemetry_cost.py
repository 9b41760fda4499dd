"""TelemetryRefinedCostModel — the measured-cost feedback loop."""

import numpy as np
import pytest

from repro.parallel import SimulatedClusterBackend
from repro.scheduling import (
    AnalyticCostModel,
    CostModel,
    CostPredictor,
    TelemetryRefinedCostModel,
)


class TestProtocol:
    def test_all_forecasters_satisfy_cost_model(self):
        assert isinstance(AnalyticCostModel(), CostModel)
        assert isinstance(CostPredictor(), CostModel)

    def test_smoothing_validated(self):
        with pytest.raises(ValueError, match="smoothing"):
            TelemetryRefinedCostModel(smoothing=0.0)
        with pytest.raises(ValueError, match="smoothing"):
            TelemetryRefinedCostModel(smoothing=1.5)

    def test_takes_no_base_forecaster(self):
        with pytest.raises(TypeError):
            TelemetryRefinedCostModel(AnalyticCostModel())
        with pytest.raises(TypeError):
            TelemetryRefinedCostModel(base=AnalyticCostModel())


class TestObserve:
    def test_observe_counts_and_keys(self):
        model = TelemetryRefinedCostModel()
        assert model.n_observed == 0
        folded = model.observe([1.0, 2.0, 3.0], keys=["a", "b", "c"])
        assert folded == 3
        assert model.n_observed == 3

    def test_default_keys_are_positions(self):
        model = TelemetryRefinedCostModel(smoothing=1.0)
        model.observe([5.0, 7.0])
        np.testing.assert_allclose(model.refine([1.0, 1.0]), [5.0, 7.0])

    def test_ema_smoothing(self):
        model = TelemetryRefinedCostModel(smoothing=0.5)
        model.observe([4.0], keys=["k"])
        model.observe([8.0], keys=["k"])
        # 0.5 * 4 + 0.5 * 8
        np.testing.assert_allclose(model.refine([1.0], keys=["k"]), [6.0])
        assert model.n_observed == 1

    def test_weights_normalise_to_per_unit_rates(self):
        model = TelemetryRefinedCostModel(smoothing=1.0)
        # 10s over 100 rows and 1s over 10 rows are the same rate.
        model.observe([10.0], keys=["k"], weights=[100.0])
        model.observe([1.0], keys=["k"], weights=[10.0])
        # Refining at a 50-row batch forecasts 5s.
        np.testing.assert_allclose(
            model.refine([1.0], keys=["k"], weights=[50.0]), [5.0]
        )

    def test_invalid_observations_skipped(self):
        model = TelemetryRefinedCostModel()
        folded = model.observe(
            [np.nan, -1.0, np.inf, 2.0], keys=["a", "b", "c", "d"]
        )
        assert folded == 1
        assert model.n_observed == 1

    def test_zero_weight_skipped(self):
        model = TelemetryRefinedCostModel()
        assert model.observe([1.0], keys=["a"], weights=[0.0]) == 0

    def test_misaligned_inputs_raise(self):
        model = TelemetryRefinedCostModel()
        with pytest.raises(ValueError, match="keys"):
            model.observe([1.0, 2.0], keys=["a"])
        with pytest.raises(ValueError, match="weights"):
            model.observe([1.0], keys=["a"], weights=[1.0, 2.0])
        with pytest.raises(ValueError, match="1-D"):
            model.observe(np.ones((2, 2)))

    def test_has_observations_is_per_key(self):
        model = TelemetryRefinedCostModel()
        assert not model.has_observations(["a", "b"])
        model.observe([1.0], keys=["a"])
        assert model.has_observations(["a", "b"])
        assert not model.has_observations(["b", "c"])

    def test_repr_mentions_observations(self):
        model = TelemetryRefinedCostModel()
        model.observe([1.0], keys=["a"])
        assert "n_observed=1" in repr(model)


class TestRefine:
    def test_no_observations_returns_base_copy(self):
        model = TelemetryRefinedCostModel()
        base = np.array([1.0, 2.0])
        out = model.refine(base)
        np.testing.assert_array_equal(out, base)
        out[0] = 99.0
        assert base[0] == 1.0

    def test_observed_tasks_use_measured_costs(self):
        model = TelemetryRefinedCostModel(smoothing=1.0)
        model.observe([3.0, 1.0], keys=["a", "b"])
        refined = model.refine([100.0, 200.0], keys=["a", "b"])
        np.testing.assert_allclose(refined, [3.0, 1.0])

    def test_unobserved_tasks_calibrated_onto_measured_scale(self):
        model = TelemetryRefinedCostModel(smoothing=1.0)
        # Measured = base / 1000 for both observed tasks.
        model.observe([0.01, 0.02], keys=["a", "b"])
        refined = model.refine([10.0, 20.0, 40.0], keys=["a", "b", "c"])
        np.testing.assert_allclose(refined, [0.01, 0.02, 0.04])

    def test_misaligned_refine_raises(self):
        model = TelemetryRefinedCostModel()
        with pytest.raises(ValueError, match="keys"):
            model.refine([1.0, 2.0], keys=["a"])

    def test_execution_result_task_times_feed_the_loop(self):
        # Virtual-clock replay produces deterministic task_times == costs.
        costs = np.array([5.0, 1.0, 1.0, 1.0])
        backend = SimulatedClusterBackend(n_workers=2)
        result = backend.execute([None] * 4, np.array([0, 0, 1, 1]), known_costs=costs)
        model = TelemetryRefinedCostModel(smoothing=1.0)
        assert model.observe(result.task_times) == 4
        np.testing.assert_allclose(model.refine(np.ones(4)), costs)

