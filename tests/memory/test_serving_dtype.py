"""float32 serving mode: pinned tolerances, reversibility, frozen default.

Every ensemble-level case runs on a fitted in-RAM model and on the same
model loaded from a v2 artifact, whose arrays are read-only memmapped
``ArenaView``s.
"""

import numpy as np
import pytest

from repro import SUOD
from repro.detectors import KNN, LOF, IsolationForest
from repro.memory.arena import ArenaView
from repro.memory.serving import (
    FLOAT32_KERNEL_ATOL,
    FLOAT32_KERNEL_RTOL,
    FLOAT32_SCORE_ATOL,
    serving_dtype,
    set_serving_dtype,
)
from repro.utils.persistence import load_ensemble, save_ensemble


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((500, 6))
    X[:10] += 5.0
    return X


@pytest.fixture(scope="module", params=["in_ram", "artifact"])
def ensemble(request, data, tmp_path_factory):
    pool = [
        IsolationForest(n_estimators=25, random_state=0),
        KNN(n_neighbors=8),
        LOF(n_neighbors=10),
    ]
    model = SUOD(pool, approx_flag_global=False, random_state=0).fit(data)
    if request.param == "in_ram":
        return model
    path = save_ensemble(model, tmp_path_factory.mktemp("serving") / "ens.repro")
    return load_ensemble(path)


class TestKernelTolerance:
    def test_flat_forest_cast_tolerance(self, data):
        from repro.kernels.trees import forest_value_sum

        est = IsolationForest(n_estimators=25, random_state=0).fit(data)
        flat = est._flat_forest()
        ref = forest_value_sum(flat, data)
        got = forest_value_sum(flat.cast(np.float32), data.astype(np.float32))
        assert got.dtype == np.float32
        np.testing.assert_allclose(
            got, ref, rtol=FLOAT32_KERNEL_RTOL, atol=FLOAT32_KERNEL_ATOL
        )

    def test_kdtree_cast_tolerance(self, data):
        from repro.neighbors.kdtree import KDTree

        tree = KDTree(data)
        dist, idx = tree.query(data[:64], 5)
        dist32, idx32 = tree.cast(np.float32).query(
            data[:64].astype(np.float32), 5
        )
        assert dist32.dtype == np.float32
        # Neighbor sets may differ only at float32-degenerate ties; on
        # this data they must not.
        assert np.array_equal(idx, idx32)
        np.testing.assert_allclose(
            dist32, dist, rtol=FLOAT32_KERNEL_RTOL, atol=FLOAT32_KERNEL_ATOL
        )


class TestServingDtype:
    def test_default_is_float64(self, ensemble):
        assert serving_dtype(ensemble) == np.dtype(np.float64)

    def test_ensemble_score_tolerance(self, ensemble, data):
        ref = ensemble.decision_function(data)
        try:
            set_serving_dtype(ensemble, np.float32)
            assert serving_dtype(ensemble) == np.dtype(np.float32)
            got = ensemble.decision_function(data)
            assert got.dtype == np.float64  # combination stays float64
            assert np.max(np.abs(got - ref)) <= FLOAT32_SCORE_ATOL
        finally:
            set_serving_dtype(ensemble, np.float64)

    def test_roundtrip_restores_bitwise(self, ensemble, data):
        ref = ensemble.decision_function(data)
        set_serving_dtype(ensemble, np.float32)
        set_serving_dtype(ensemble, np.float64)
        assert serving_dtype(ensemble) == np.dtype(np.float64)
        assert np.array_equal(ensemble.decision_function(data), ref)

    def test_restore_returns_the_original_arrays(self, ensemble, request):
        forests = [e for e in ensemble.base_estimators_ if hasattr(e, "_flat_forest")]
        before = [e._flat_forest() for e in forests]
        if request.node.callspec.params["ensemble"] == "artifact":
            for flat in before:
                assert isinstance(flat.threshold, ArenaView)
                assert not flat.threshold.flags.writeable
        set_serving_dtype(ensemble, np.float32)
        set_serving_dtype(ensemble, np.float64)
        assert all(e._flat_forest() is flat for e, flat in zip(forests, before))

    def test_cast_actually_reaches_arrays(self, ensemble):
        try:
            set_serving_dtype(ensemble, np.float32)
            touched = 0
            for est in ensemble.base_estimators_:
                flat = getattr(est, "_flat_cache", None)
                if flat is not None:
                    assert flat.threshold.dtype == np.float32
                    touched += 1
                nn = getattr(est, "_nn", None)
                if nn is not None:
                    assert nn._X.dtype == np.float32
                    touched += 1
            assert touched >= 2
        finally:
            set_serving_dtype(ensemble, np.float64)

    def test_unsupported_dtype_rejected(self, ensemble):
        with pytest.raises(ValueError, match="float32 or float64"):
            set_serving_dtype(ensemble, np.int32)

    def test_save_of_float32_model_rejected(self, ensemble, tmp_path):
        try:
            set_serving_dtype(ensemble, np.float32)
            with pytest.raises(ValueError, match="float64"):
                save_ensemble(ensemble, tmp_path / "f32.repro")
        finally:
            set_serving_dtype(ensemble, np.float64)
