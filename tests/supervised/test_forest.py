import numpy as np
import pytest

from repro.supervised import RandomForestRegressor


@pytest.fixture
def regression_data(rng):
    X = rng.standard_normal((250, 6))
    y = X[:, 0] * 3 + np.sin(X[:, 1] * 2) + 0.05 * rng.standard_normal(250)
    return X, y


class TestRandomForest:
    def test_fit_predict(self, regression_data):
        X, y = regression_data
        rf = RandomForestRegressor(n_estimators=20, random_state=0).fit(X, y)
        assert rf.score(X, y) > 0.85
        assert len(rf.estimators_) == 20

    def test_deterministic_with_seed(self, regression_data):
        X, y = regression_data
        p1 = RandomForestRegressor(10, random_state=7).fit(X, y).predict(X)
        p2 = RandomForestRegressor(10, random_state=7).fit(X, y).predict(X)
        np.testing.assert_array_equal(p1, p2)

    def test_different_seeds_differ(self, regression_data):
        X, y = regression_data
        p1 = RandomForestRegressor(5, random_state=1).fit(X, y).predict(X)
        p2 = RandomForestRegressor(5, random_state=2).fit(X, y).predict(X)
        assert not np.allclose(p1, p2)

    def test_prediction_is_tree_mean(self, regression_data):
        X, y = regression_data
        rf = RandomForestRegressor(8, random_state=0).fit(X, y)
        stacked = np.mean([t.predict(X) for t in rf.estimators_], axis=0)
        np.testing.assert_allclose(rf.predict(X), stacked, rtol=1e-12)

    def test_feature_importances(self, rng):
        X = rng.standard_normal((300, 5))
        y = 10 * X[:, 3]
        rf = RandomForestRegressor(15, random_state=0).fit(X, y)
        assert rf.feature_importances_.argmax() == 3
        assert rf.feature_importances_.shape == (5,)

    def test_oob_score(self, regression_data):
        X, y = regression_data
        rf = RandomForestRegressor(30, oob_score=True, random_state=0).fit(X, y)
        assert 0.0 < rf.oob_score_ <= 1.0
        assert rf.oob_prediction_.shape == y.shape

    def test_oob_requires_bootstrap(self, regression_data):
        X, y = regression_data
        with pytest.raises(ValueError, match="bootstrap"):
            RandomForestRegressor(5, bootstrap=False, oob_score=True).fit(X, y)

    def test_no_bootstrap_mode(self, regression_data):
        X, y = regression_data
        rf = RandomForestRegressor(
            5, bootstrap=False, max_features=None, random_state=0
        ).fit(X, y)
        # Without bootstrap or feature subsampling, all trees see identical
        # data -> identical predictions.
        preds = [t.predict(X[:10]) for t in rf.estimators_]
        for p in preds[1:]:
            np.testing.assert_allclose(p, preds[0])

    def test_predictions_within_target_hull(self, regression_data):
        X, y = regression_data
        rf = RandomForestRegressor(10, random_state=0).fit(X, y)
        pred = rf.predict(X * 50)
        assert pred.min() >= y.min() - 1e-9
        assert pred.max() <= y.max() + 1e-9

    def test_invalid_n_estimators(self, regression_data):
        X, y = regression_data
        with pytest.raises(ValueError):
            RandomForestRegressor(0).fit(X, y)

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            RandomForestRegressor(2).fit(rng.random((5, 2)), rng.random(6))

    def test_unfitted_raises(self):
        from repro.utils.validation import NotFittedError

        with pytest.raises(NotFittedError):
            RandomForestRegressor().predict(np.ones((2, 2)))


class TestBlockFit:
    """fit_block/assemble_blocks rebuild the forest ``fit`` grows, bitwise."""

    ARRAYS = ("feature_", "threshold_", "children_left_", "children_right_", "value_")

    def assert_same_forest(self, a, b, X):
        assert len(a.estimators_) == len(b.estimators_)
        for t, u in zip(a.estimators_, b.estimators_):
            for name in self.ARRAYS:
                np.testing.assert_array_equal(getattr(t, name), getattr(u, name))
        np.testing.assert_array_equal(a.feature_importances_, b.feature_importances_)
        np.testing.assert_array_equal(a.predict(X), b.predict(X))

    @pytest.mark.parametrize("bounds", [(0, 11), (0, 4, 11), (0, 1, 2, 7, 11)])
    @pytest.mark.parametrize("bootstrap", [True, False])
    def test_any_partition_of_the_seeds(self, regression_data, bounds, bootstrap):
        X, y = regression_data

        def make():
            return RandomForestRegressor(11, bootstrap=bootstrap, random_state=5)

        whole = make().fit(X, y)
        seeds = make().tree_seeds()
        # Blocks fitted out of order, by independent clones, joined in order.
        blocks = {
            lo: make().fit_block(X, y, seeds[lo:hi])
            for lo, hi in reversed(list(zip(bounds, bounds[1:])))
        }
        joined = make().assemble_blocks([blocks[lo] for lo in bounds[:-1]], X.shape[1])
        self.assert_same_forest(joined, whole, X)

    def test_tree_seeds_are_the_seeds_fit_draws(self, regression_data):
        X, y = regression_data
        rf = RandomForestRegressor(6, random_state=3)
        assert rf.tree_seeds() == rf.tree_seeds()
        assert len(rf.tree_seeds()) == 6
        assert rf.tree_seeds() != RandomForestRegressor(6, random_state=4).tree_seeds()

    def test_fit_block_leaves_the_prototype_unfitted(self, regression_data):
        X, y = regression_data
        rf = RandomForestRegressor(4, random_state=0)
        trees = rf.fit_block(X, y, rf.tree_seeds()[:2])
        assert len(trees) == 2
        assert not hasattr(rf, "estimators_")

    def test_fit_block_validates_like_fit(self, rng):
        rf = RandomForestRegressor(2, random_state=0)
        with pytest.raises(ValueError):
            rf.fit_block(rng.random((5, 2)), rng.random(6), [1, 2])

    def test_assembled_forest_drops_a_stale_flat_cache(self, regression_data):
        X, y = regression_data
        rf = RandomForestRegressor(4, random_state=0).fit(X, y)
        first = rf.predict(X)
        other = RandomForestRegressor(4, random_state=9)
        rf.assemble_blocks([other.fit_block(X, y, other.tree_seeds())], X.shape[1])
        assert not np.array_equal(rf.predict(X), first)
        np.testing.assert_array_equal(rf.predict(X), other.fit(X, y).predict(X))
