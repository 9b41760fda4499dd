import numpy as np
import pytest

from repro.scheduling import (
    AnalyticCostModel,
    CostPredictor,
    dataset_meta_features,
    model_embedding,
    train_cost_predictor,
)
from repro.detectors import (
    HBOS,
    KNN,
    LOF,
    BaseDetector,
    IsolationForest,
    sample_model_pool,
)
from repro.metrics import spearmanr


class _Alien(BaseDetector):
    def _fit(self, X):
        return np.zeros(X.shape[0])

    def _score(self, X):
        return np.zeros(X.shape[0])


class TestMetaFeatures:
    def test_fixed_length_and_finite(self, rng):
        f = dataset_meta_features(rng.random((50, 4)))
        assert f.shape == (8,)
        assert np.isfinite(f).all()

    def test_scale_features_first(self, rng):
        f = dataset_meta_features(rng.random((50, 4)))
        assert f[0] == 50 and f[1] == 4 and f[2] == 200

    def test_constant_data_safe(self):
        f = dataset_meta_features(np.ones((20, 3)))
        assert np.isfinite(f).all()


class TestModelEmbedding:
    def test_distinct_families_distinct_embeddings(self):
        a = model_embedding(KNN())
        b = model_embedding(HBOS())
        assert a.shape == b.shape
        assert not np.allclose(a, b)

    def test_hyperparameters_encoded(self):
        a = model_embedding(KNN(n_neighbors=5))
        b = model_embedding(KNN(n_neighbors=50))
        assert not np.allclose(a, b)

    def test_unknown_family_slot(self):
        e = model_embedding(_Alien())
        assert e.sum() >= 1.0  # one-hot fires on the 'unknown' slot


class TestAnalyticCostModel:
    def test_proximity_scales_quadratically(self, rng):
        X_small = rng.random((100, 5))
        X_big = rng.random((1000, 5))
        model = AnalyticCostModel()
        c_small = model.forecast([KNN()], X_small)[0]
        c_big = model.forecast([KNN()], X_big)[0]
        assert c_big / c_small > 50  # ~n^2

    def test_hbos_cheaper_than_knn(self, rng):
        X = rng.random((2000, 10))
        c = AnalyticCostModel().forecast([HBOS(), KNN()], X)
        assert c[0] < c[1]

    def test_orders_families_sensibly(self, rng):
        X = rng.random((1500, 10))
        dets = [HBOS(), IsolationForest(n_estimators=50), KNN(), LOF()]
        c = AnalyticCostModel().forecast(dets, X)
        assert c[0] < c[2] and c[1] < c[2]  # fast families below kNN

    def test_unknown_gets_max(self, rng):
        X = rng.random((500, 5))
        c = AnalyticCostModel().forecast([HBOS(), _Alien(), KNN()], X)
        assert c[1] >= c.max() - 1e-9

    def test_all_unknown(self, rng):
        c = AnalyticCostModel().forecast([_Alien(), _Alien()], np.ones((10, 2)))
        assert (c > 0).all()


class TestCostPredictor:
    def test_fit_and_forecast_shapes(self, rng):
        models = sample_model_pool(10, max_n_neighbors=10, random_state=0)
        X = rng.random((200, 6))
        feats = CostPredictor.build_features(models, X)
        secs = rng.random(10)
        pred = CostPredictor(n_estimators=10, random_state=0).fit(feats, secs)
        out = pred.forecast(models, X)
        assert out.shape == (10,)
        assert (out >= 0).all()

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            CostPredictor().fit(rng.random((5, 3)), rng.random(4))
        with pytest.raises(ValueError):
            CostPredictor().fit(rng.random((5, 3)), -rng.random(5))

    def test_unfitted_raises(self, rng):
        from repro.utils.validation import NotFittedError

        with pytest.raises(NotFittedError):
            CostPredictor().forecast([KNN()], rng.random((10, 2)))


class TestTimingProtocol:
    def test_records_fastest_timed_fit_after_untimed_warm_up(self, monkeypatch):
        # A fake clock advances only inside HBOS.fit, by a scripted
        # duration per call: per cell, one warm-up then n_trials timed fits.
        import types

        import repro.scheduling.cost as cost

        now = [0.0]
        durations = iter([1.0, 5.0, 3.0, 4.0, 0.5, 6.0, 2.0, 7.0])
        real_fit = HBOS.fit

        def scripted_fit(self, X, y=None):
            now[0] += next(durations)
            return real_fit(self, X)

        monkeypatch.setattr(HBOS, "fit", scripted_fit)
        monkeypatch.setattr(
            cost, "time", types.SimpleNamespace(perf_counter=lambda: now[0])
        )
        _, report = train_cost_predictor(
            families=["HBOS"],
            n_grid=(60,),
            d_grid=(3,),
            models_per_family=2,
            n_trials=3,
            random_state=0,
        )
        # The minimum of the timed fits: not their sum, and never the
        # (faster) warm-up.
        assert report["seconds"].tolist() == [3.0, 2.0]
        assert next(durations, None) is None

    def test_needs_two_timed_fits(self):
        with pytest.raises(ValueError, match="n_trials"):
            train_cost_predictor(families=["HBOS"], n_trials=1)


@pytest.mark.slow
class TestTrainedPredictor:
    def test_rank_correlation_on_timings(self):
        # Scaled-down version of the paper's validation: the trained
        # predictor's forecasts must rank-correlate strongly with true
        # runtimes on held-out-ish data (§3.5 reports rho > 0.9).
        predictor, report = train_cost_predictor(
            families=["KNN", "LOF", "HBOS", "IsolationForest"],
            n_grid=(150, 400),
            d_grid=(5, 15),
            models_per_family=2,
            random_state=0,
        )
        # In-sample sanity: forecast vs measured.
        feats = report["features"]
        secs = report["seconds"]
        pred = np.expm1(predictor._rf.predict(feats))
        rho = spearmanr(pred, secs)
        assert rho > 0.8
