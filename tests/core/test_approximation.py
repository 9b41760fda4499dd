import inspect

import numpy as np
import pytest

from repro.core.approximation import Approximator, fit_approximators
from repro.detectors import HBOS, KNN, LOF, IsolationForest
from repro.detectors.registry import COSTLY_FAMILIES, FAMILIES
from repro.metrics import roc_auc_score
from repro.supervised import RandomForestRegressor, Ridge
from repro.utils.validation import NotFittedError


@pytest.fixture(scope="module")
def fitted(small_dataset_module):
    X, y = small_dataset_module
    return X, KNN(n_neighbors=5).fit(X)


@pytest.fixture(scope="module")
def small_dataset_module():
    from repro.data import make_outlier_dataset

    return make_outlier_dataset(300, 8, contamination=0.1, random_state=42)


class TestApproximator:
    def test_requires_fitted_detector(self):
        with pytest.raises(NotFittedError):
            Approximator(KNN())

    def test_passthrough_when_disabled(self, fitted):
        X, det = fitted
        a = Approximator(det, enabled=False).fit(X)
        assert not a.approximated
        np.testing.assert_allclose(
            a.decision_function(X[:10]), det.decision_function(X[:10])
        )

    def test_approximation_trains_regressor(self, fitted):
        X, det = fitted
        a = Approximator(det).fit(X)
        assert a.approximated
        s = a.decision_function(X[:20])
        assert s.shape == (20,)

    def test_approximation_tracks_pseudo_truth(self, fitted):
        X, det = fitted
        a = Approximator(det).fit(X)
        pred = a.decision_function(X)
        truth = det.decision_scores_
        corr = np.corrcoef(pred, truth)[0, 1]
        assert corr > 0.9

    def test_custom_regressor_cloned(self, fitted):
        X, det = fitted
        proto = Ridge(alpha=1.0)
        a = Approximator(det, proto).fit(X)
        assert a.regressor_ is not proto
        assert isinstance(a.regressor_, Ridge)

    def test_misaligned_train_rejected(self, fitted):
        X, det = fitted
        with pytest.raises(ValueError, match="aligned"):
            Approximator(det).fit(X[:50])

    def test_repr(self, fitted):
        X, det = fitted
        a = Approximator(det).fit(X)
        assert "approximated" in repr(a)


class TestFitApproximators:
    def test_costly_rule_default(self, small_dataset_module):
        X, _ = small_dataset_module
        dets = [
            KNN(n_neighbors=5).fit(X),
            HBOS().fit(X),
            LOF(n_neighbors=5).fit(X),
            IsolationForest(n_estimators=10, random_state=0).fit(X),
        ]
        approx = fit_approximators(dets, X)
        assert [a.approximated for a in approx] == [True, False, True, False]

    def test_explicit_flags_override(self, small_dataset_module):
        X, _ = small_dataset_module
        dets = [KNN(n_neighbors=5).fit(X), HBOS().fit(X)]
        approx = fit_approximators(dets, X, approx_flags=[False, True])
        assert [a.approximated for a in approx] == [False, True]

    def test_per_model_spaces(self, small_dataset_module):
        X, _ = small_dataset_module
        X2 = X[:, :4]
        dets = [KNN(n_neighbors=5).fit(X), KNN(n_neighbors=5).fit(X2)]
        approx = fit_approximators(dets, [X, X2])
        # Each regressor must accept its own space's width.
        assert approx[0].decision_function(X[:3]).shape == (3,)
        assert approx[1].decision_function(X2[:3]).shape == (3,)

    def test_alignment_errors(self, small_dataset_module):
        X, _ = small_dataset_module
        dets = [KNN(n_neighbors=5).fit(X)]
        with pytest.raises(ValueError):
            fit_approximators(dets, [X, X])
        with pytest.raises(ValueError):
            fit_approximators(dets, X, approx_flags=[True, False])


#: PSA's ROC budget: on every data draw, the approximator's test ROC sits
#: at most this far below its detector's (the paper's Table 3 claim that
#: the forest keeps, and often improves, the detector's accuracy).
PSA_ROC_BUDGET = 0.05


@pytest.fixture(scope="module")
def psa_splits():
    from repro.data import make_outlier_dataset, train_test_split

    return [
        train_test_split(
            *make_outlier_dataset(500, 10, contamination=0.1, random_state=seed),
            random_state=0,
        )
        for seed in range(5)
    ]


def _costly_families():
    abod_loses = pytest.mark.xfail(
        strict=True,
        reason="ABOD's scores (minus the angle variance) crowd near 0 with "
        "a long negative tail; the forest ranks them poorly and loses "
        "0.29-0.37 test ROC on two of the five draws",
    )
    return [
        pytest.param(f, marks=abod_loses) if f == "ABOD" else f
        for f in sorted(COSTLY_FAMILIES)
    ]


class TestPSARocBudget:
    @pytest.mark.parametrize("family", _costly_families())
    def test_approximator_roc_within_budget(self, psa_splits, family):
        cls = FAMILIES[family][0]
        seeded = "random_state" in inspect.signature(cls).parameters
        for Xtr, Xte, _, yte in psa_splits:
            det = (cls(random_state=0) if seeded else cls()).fit(Xtr)
            approx = Approximator(det, RandomForestRegressor(random_state=0))
            approx.fit(Xtr)
            assert approx.approximated
            roc_det = roc_auc_score(yte, det.decision_function(Xte))
            roc_psa = roc_auc_score(yte, approx.decision_function(Xte))
            assert roc_psa >= roc_det - PSA_ROC_BUDGET, (roc_det, roc_psa)
