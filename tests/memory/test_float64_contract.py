"""One dtype, one answer: every kernel computes in float64.

The package has no reduced-precision serving mode. Whatever dtype the
caller's rows arrive in, a kernel upcasts them to float64 and answers
exactly as it does for the upcast rows: float32 input is not a second,
approximate code path but the same bitwise answer. Every ensemble-level
case runs on a fitted in-RAM model and on the same model loaded from a
v2 artifact (read-only memmapped ``ArenaView`` arenas), with PSA on
(forest regressors stand in for the costly detectors) and off.
"""

import importlib

import numpy as np
import pytest

import repro.memory
from repro import SUOD
from repro.detectors import ABOD, KNN, LOF, IsolationForest
from repro.kernels import pairwise_angle_variance
from repro.kernels.trees import FlatForest, forest_apply, forest_value_sum
from repro.memory.arena import ArenaView, release_mappings
from repro.memory.outofcore import (
    RowBlockRing,
    block_rows_for_budget,
    open_rows,
    score_out_of_core,
)
from repro.neighbors import NearestNeighbors
from repro.neighbors.kdtree import KDTree
from repro.utils.persistence import load_ensemble, save_ensemble


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((400, 6))
    X[:10] += 5.0
    return X


@pytest.fixture(scope="module")
def rows32():
    # Not representable as the float64 training rows: the upcast is the
    # only float64 reading of these values.
    return np.random.default_rng(4).standard_normal((150, 6)).astype(np.float32)


@pytest.fixture(
    scope="module",
    params=[
        (source, psa)
        for source in ("in_ram", "artifact")
        for psa in ("psa", "exact")
    ],
    ids="-".join,
)
def ensemble(request, data, tmp_path_factory):
    source, psa = request.param
    pool = [
        IsolationForest(n_estimators=20, random_state=0),
        KNN(n_neighbors=8),
        LOF(n_neighbors=10),
        ABOD(n_neighbors=8),
    ]
    model = SUOD(pool, approx_flag_global=psa == "psa", random_state=0).fit(data)
    if source == "artifact":
        path = save_ensemble(model, tmp_path_factory.mktemp("f64") / "ens.repro")
        model = load_ensemble(path)
    yield model
    model.close()
    release_mappings()


def _forests(model):
    """Every flat forest the model scores with: detectors and regressors."""
    owners = list(model.base_estimators_)
    owners += [a.regressor_ for a in model.approximators_ if a.regressor_ is not None]
    return [o.forest_ for o in owners if hasattr(o, "forest_")]


class TestEnsemble:
    def test_float32_rows_score_as_their_float64_upcast(self, ensemble, rows32):
        up = rows32.astype(np.float64)
        got = ensemble.decision_function(rows32)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, ensemble.decision_function(up))
        np.testing.assert_array_equal(
            ensemble.decision_function_matrix(rows32),
            ensemble.decision_function_matrix(up),
        )

    def test_every_kernel_array_is_float64(self, ensemble, request):
        artifact = request.node.callspec.params["ensemble"][0] == "artifact"
        forests = _forests(ensemble)
        assert forests
        for flat in forests:
            assert flat.threshold.dtype == np.float64
            assert flat.leaf_value.dtype == np.float64
            if artifact:
                assert isinstance(flat.threshold, ArenaView)
                assert not flat.threshold.flags.writeable
        indexes = 0
        for est in ensemble.base_estimators_:
            nn = getattr(est, "_nn", None)
            if nn is not None:
                assert nn._X.dtype == np.float64
                if nn._tree is not None:
                    assert nn._tree._data.dtype == np.float64
                    assert nn._tree._split_val.dtype == np.float64
                indexes += 1
            if isinstance(est, ABOD):
                assert est._X.dtype == np.float64
        assert indexes >= 3

    def test_resaved_model_scores_bitwise(self, ensemble, rows32, tmp_path):
        # No save-time precision guard is left: any model saves, and what
        # loads is the float64 state it was saved from.
        ref = ensemble.decision_function(rows32)
        again = load_ensemble(save_ensemble(ensemble, tmp_path / "again.repro"))
        try:
            np.testing.assert_array_equal(again.decision_function(rows32), ref)
        finally:
            again.close()

    def test_out_of_core_float32_file(self, ensemble, rows32, tmp_path):
        # A float32 .npy streams through the float64 ring: the block copy
        # is the upcast, so scores equal one in-RAM pass of the upcast.
        path = tmp_path / "rows32.npy"
        np.save(path, rows32)
        X = open_rows(path)
        assert X.dtype == np.float32
        got = score_out_of_core(ensemble, X, block_rows=37)
        np.testing.assert_array_equal(
            got, ensemble.decision_function(rows32.astype(np.float64))
        )


class TestKernels:
    def test_forest_kernels_upcast_float32_rows(self, data, rows32):
        flat = IsolationForest(n_estimators=20, random_state=0).fit(data).forest_
        up = rows32.astype(np.float64)
        np.testing.assert_array_equal(
            forest_apply(flat, rows32), forest_apply(flat, up)
        )
        got = forest_value_sum(flat, rows32, init=1.5)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, forest_value_sum(flat, up, init=1.5))

    def test_kdtree_query_upcasts_float32_queries(self, data, rows32):
        tree = KDTree(data, leaf_size=8)
        dist, idx = tree.query(rows32, 7)
        assert dist.dtype == np.float64
        ref = tree.query(rows32.astype(np.float64), 7)
        np.testing.assert_array_equal(dist, ref[0])
        np.testing.assert_array_equal(idx, ref[1])

    def test_nearest_neighbors_upcasts_float32_rows(self, data, rows32):
        nn = NearestNeighbors(n_neighbors=5).fit(data.astype(np.float32))
        assert nn._X.dtype == np.float64
        ref = NearestNeighbors(n_neighbors=5).fit(
            data.astype(np.float32).astype(np.float64)
        )
        dist, idx = nn.kneighbors(rows32)
        assert dist.dtype == np.float64
        want = ref.kneighbors(rows32.astype(np.float64))
        np.testing.assert_array_equal(dist, want[0])
        np.testing.assert_array_equal(idx, want[1])

    def test_angle_kernel_answers_in_float64(self, rng, rows32):
        X = rng.standard_normal((300, 6))
        idx = rng.integers(0, 300, size=(rows32.shape[0], 6))
        got = pairwise_angle_variance(rows32, X, idx)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(
            got, pairwise_angle_variance(rows32.astype(np.float64), X, idx)
        )

    def test_ring_and_budget_count_float64_rows(self, rows32):
        ring = RowBlockRing(40, 6, n_buffers=3)
        assert ring.nbytes == 3 * 40 * 6 * 8
        block = ring.fill(rows32[:25])
        assert block.dtype == np.float64
        np.testing.assert_array_equal(block, rows32[:25].astype(np.float64))
        assert block_rows_for_budget(3 * 40 * 6 * 8, 6, ring_buffers=3) == 40


class TestRemovedServingMode:
    def test_serving_module_and_names_are_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.memory.serving")
        for name in (
            "set_serving_dtype",
            "serving_dtype",
            "FLOAT32_KERNEL_ATOL",
            "FLOAT32_KERNEL_RTOL",
            "FLOAT32_SCORE_ATOL",
        ):
            assert not hasattr(repro.memory, name)
            assert name not in repro.memory.__all__

    def test_no_dtype_options_on_kernels_or_ring(self):
        assert not hasattr(FlatForest, "cast")
        assert not hasattr(FlatForest, "dtype")
        assert not hasattr(KDTree, "cast")
        with pytest.raises(TypeError):
            RowBlockRing(4, 2, np.float32)
        with pytest.raises(TypeError):
            block_rows_for_budget(1024, 2, itemsize=4)
