"""Chunked (model × row-block) scoring through SUOD.

The contract under test: ``batch_size`` changes only the execution
grain, never the numbers — chunked scoring must be *bitwise* equal to
the unchunked sequential path, under every backend and schedule flag.
"""

import numpy as np
import pytest

from repro import SUOD
from repro.detectors import HBOS, KNN, LOF, IsolationForest
from repro.parallel import chunk_slices, n_chunks, scatter_chunk_results


@pytest.fixture(scope="module")
def data():
    from repro.data import make_outlier_dataset, train_test_split

    X, y = make_outlier_dataset(400, 12, contamination=0.1, random_state=7)
    return train_test_split(X, y, random_state=0)


def fresh_pool():
    return [
        KNN(n_neighbors=8),
        LOF(n_neighbors=10),
        HBOS(n_bins=15),
        IsolationForest(n_estimators=20, random_state=0),
    ]


@pytest.fixture(scope="module")
def reference(data):
    Xtr, Xte, ytr, yte = data
    clf = SUOD(fresh_pool(), random_state=3).fit(Xtr)
    return clf.decision_function_matrix(Xte), clf.decision_function(Xte)


class TestChunkHelpers:
    def test_slices_cover_in_order(self):
        slices = chunk_slices(10, 3)
        assert [(s.start, s.stop) for s in slices] == [(0, 3), (3, 6), (6, 9), (9, 10)]
        assert n_chunks(10, 3) == 4

    def test_empty_and_validation(self):
        assert chunk_slices(0, 5) == []
        assert n_chunks(0, 5) == 0
        with pytest.raises(ValueError):
            chunk_slices(10, 0)
        with pytest.raises(ValueError):
            chunk_slices(-1, 5)

    def test_scatter_roundtrip(self):
        matrix = np.arange(12, dtype=np.float64).reshape(3, 4)
        slices = chunk_slices(4, 2)
        owners = [(i, sl) for i in range(3) for sl in slices]
        chunks = [matrix[i, sl] for i, sl in owners]
        np.testing.assert_array_equal(
            scatter_chunk_results(chunks, owners, 3, 4), matrix
        )

    def test_scatter_shape_mismatch(self):
        with pytest.raises(ValueError):
            scatter_chunk_results([np.zeros(3)], [(0, slice(0, 2))], 1, 2)


class TestChunkedScoring:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(batch_size=17),
            dict(batch_size=64, n_jobs=2, backend="threads"),
            dict(batch_size=17, n_jobs=3, backend="threads"),
            dict(batch_size=17, n_jobs=3, backend="threads", bps_flag=False),
            dict(batch_size=17, n_jobs=2, backend="simulated"),
        ],
    )
    def test_bitwise_equal_to_sequential(self, data, reference, kwargs):
        Xtr, Xte, ytr, yte = data
        M0, s0 = reference
        clf = SUOD(fresh_pool(), random_state=3, **kwargs).fit(Xtr)
        np.testing.assert_array_equal(clf.decision_function_matrix(Xte), M0)
        np.testing.assert_array_equal(clf.decision_function(Xte), s0)

    def test_batch_larger_than_n_uses_per_model_grain(self, data, reference):
        Xtr, Xte, ytr, yte = data
        M0, _ = reference
        clf = SUOD(fresh_pool(), random_state=3, batch_size=10_000).fit(Xtr)
        M = clf.decision_function_matrix(Xte)
        np.testing.assert_array_equal(M, M0)
        # One task per model, not per chunk.
        assert clf.predict_result_.task_times.shape == (clf.n_models,)

    def test_chunked_task_count(self, data):
        Xtr, Xte, ytr, yte = data
        clf = SUOD(fresh_pool(), random_state=3, batch_size=50).fit(Xtr)
        clf.decision_function_matrix(Xte)
        expected = clf.n_models * n_chunks(Xte.shape[0], 50)
        assert clf.predict_result_.task_times.shape == (expected,)

    def test_predict_consistent_with_threshold(self, data):
        Xtr, Xte, ytr, yte = data
        clf = SUOD(
            fresh_pool(),
            random_state=3,
            batch_size=31,
            n_jobs=2,
            backend="threads",
        ).fit(Xtr)
        pred = clf.predict(Xte)
        assert set(np.unique(pred)) <= {0, 1}

    def test_chunked_telemetry_exposed(self, data):
        Xtr, Xte, ytr, yte = data
        clf = SUOD(
            fresh_pool(),
            random_state=3,
            batch_size=17,
            n_jobs=3,
            backend="threads",
        ).fit(Xtr)
        clf.decision_function(Xte)
        res = clf.predict_result_
        assert res.worker_times.shape == (3,)
        assert res.task_times.shape == (clf.n_models * n_chunks(Xte.shape[0], 17),)

    def test_batch_size_validation(self):
        with pytest.raises(ValueError, match="batch_size"):
            SUOD(fresh_pool(), batch_size=0)

    def test_score_task_failure_propagates(self, data):
        Xtr, Xte, ytr, yte = data
        clf = SUOD(
            fresh_pool(),
            random_state=3,
            batch_size=17,
            n_jobs=2,
            backend="threads",
            approx_flag_global=False,
        ).fit(Xtr)
        # Sabotage one fitted detector so its chunk tasks raise.
        clf.approximators_[0].detector.decision_function = None
        with pytest.raises(TypeError):
            clf.decision_function(Xte)

    def test_repr_mentions_batch_size(self):
        assert "batch_size=33" in repr(SUOD(fresh_pool(), batch_size=33))
