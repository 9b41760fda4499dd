import numpy as np
import pytest

from repro.kernels import forest_apply
from repro.supervised.gbm import GradientBoostingRegressor


@pytest.fixture
def regression_data(rng):
    X = rng.standard_normal((300, 5))
    y = np.sin(X[:, 0] * 2) + 0.5 * X[:, 1] + 0.05 * rng.standard_normal(300)
    return X, y


class TestGBM:
    def test_fits_nonlinear_signal(self, regression_data):
        X, y = regression_data
        gbm = GradientBoostingRegressor(80, random_state=0).fit(X, y)
        assert gbm.score(X, y) > 0.9

    def test_training_loss_decreases(self, regression_data):
        X, y = regression_data
        gbm = GradientBoostingRegressor(50, random_state=0).fit(X, y)
        assert gbm.train_score_[-1] < gbm.train_score_[0]
        # Loss is (weakly) monotone under least-squares boosting.
        assert (np.diff(gbm.train_score_) <= 1e-9).all()

    def test_single_stage_is_shrunk_tree_plus_mean(self, regression_data):
        X, y = regression_data
        gbm = GradientBoostingRegressor(1, learning_rate=0.5, random_state=0).fit(X, y)
        tree_pred = gbm.forest_.leaf_value[forest_apply(gbm.forest_, X)[:, 0]]
        np.testing.assert_allclose(gbm.predict(X), y.mean() + 0.5 * tree_pred)

    def test_staged_predict_converges_to_predict(self, regression_data):
        X, y = regression_data
        gbm = GradientBoostingRegressor(20, random_state=0).fit(X, y)
        stages = list(gbm.staged_predict(X[:10]))
        assert len(stages) == 20
        np.testing.assert_allclose(stages[-1], gbm.predict(X[:10]))

    def test_learning_rate_tradeoff(self, regression_data):
        X, y = regression_data
        fast = GradientBoostingRegressor(10, learning_rate=0.5, random_state=0).fit(
            X, y
        )
        slow = GradientBoostingRegressor(10, learning_rate=0.01, random_state=0).fit(
            X, y
        )
        assert fast.train_score_[-1] < slow.train_score_[-1]

    def test_subsample_stochastic(self, regression_data):
        X, y = regression_data
        gbm = GradientBoostingRegressor(15, subsample=0.5, random_state=0).fit(X, y)
        assert gbm.score(X, y) > 0.6

    def test_deterministic(self, regression_data):
        X, y = regression_data
        a = GradientBoostingRegressor(10, random_state=4).fit(X, y).predict(X)
        b = GradientBoostingRegressor(10, random_state=4).fit(X, y).predict(X)
        np.testing.assert_allclose(a, b)

    def test_feature_importances(self, rng):
        X = rng.standard_normal((300, 4))
        y = 10 * X[:, 1]
        gbm = GradientBoostingRegressor(30, random_state=0).fit(X, y)
        assert gbm.feature_importances_.argmax() == 1
        assert gbm.feature_importances_.sum() == pytest.approx(1.0)

    def test_constant_target(self, rng):
        X = rng.standard_normal((50, 2))
        gbm = GradientBoostingRegressor(5, random_state=0).fit(X, np.full(50, 2.5))
        np.testing.assert_allclose(gbm.predict(X), 2.5)

    def test_validation(self, regression_data):
        X, y = regression_data
        with pytest.raises(ValueError):
            GradientBoostingRegressor(0).fit(X, y)
        with pytest.raises(ValueError):
            GradientBoostingRegressor(learning_rate=0.0).fit(X, y)
        with pytest.raises(ValueError):
            GradientBoostingRegressor(subsample=0.0).fit(X, y)
        with pytest.raises(ValueError):
            GradientBoostingRegressor(5).fit(X, y[:-1])

    def test_feature_mismatch_on_predict(self, regression_data):
        X, y = regression_data
        gbm = GradientBoostingRegressor(3, random_state=0).fit(X, y)
        with pytest.raises(ValueError, match="features"):
            gbm.predict(X[:, :2])
