"""Out-of-core scoring: bitwise parity under a tiny budget.

The scored model is the fitted in-RAM ensemble or the same ensemble
loaded from a v2 artifact (memmapped arenas), on every real backend;
either way the streamed scores must equal one in-RAM pass of the fitted
model. KNN and LOF read the same unprojected space and share one
producer at fit. With PSA on, forests stand in for both at scoring;
with PSA off, every row block runs through one shared producer and its
two consumers.
"""

import os

import numpy as np
import pytest

from repro import SUOD
from repro.detectors import HBOS, KNN, LOF, IsolationForest
from repro.memory.outofcore import (
    RowBlockRing,
    block_rows_for_budget,
    open_rows,
    save_rows,
    score_out_of_core,
)
from repro.utils.persistence import load_ensemble, save_ensemble

BACKENDS = {"sequential": 1, "threads": 2, "shm_processes": 2}


def shm_segments() -> set:
    return {f for f in os.listdir("/dev/shm") if f.startswith("repro_shm_")}


@pytest.fixture(
    scope="module",
    params=[
        (backend, source, psa)
        for backend in BACKENDS
        for source in ("in_ram", "artifact")
        for psa in ("psa", "shared")
    ],
    ids="-".join,
)
def model_and_data(request, tmp_path_factory):
    backend, source, psa = request.param
    before = shm_segments()
    rng = np.random.default_rng(5)
    Xtr = rng.standard_normal((400, 6))
    Xtr[:8] += 5.0
    Xte = rng.standard_normal((1200, 6))
    model = SUOD(
        [
            IsolationForest(n_estimators=15, random_state=0),
            KNN(n_neighbors=8),
            LOF(n_neighbors=12),
            HBOS(),
        ],
        rp_flag_global=False,
        approx_flag_global=psa == "psa",
        n_jobs=BACKENDS[backend],
        backend=backend,
        random_state=0,
    ).fit(Xtr)
    assert model.sharing_fit_info_["queries_fused"] == 2
    ref = model.decision_function(Xte)
    # Scoring shares the producer exactly when PSA left KNN and LOF on.
    fused = 0 if psa == "psa" else 2
    assert model.sharing_predict_info_["queries_fused"] == fused
    tmp = tmp_path_factory.mktemp("ooc")
    path = save_rows(Xte, tmp / "rows.npy")
    if source == "artifact":
        model.close()
        model = load_ensemble(save_ensemble(model, tmp / "ens.repro"))
    yield model, Xte, path, ref, fused, before
    model.close()


class TestOutOfCore:
    def test_bitwise_parity_with_budget_smaller_than_dataset(self, model_and_data):
        model, Xte, path, ref, fused, before = model_and_data
        mapped = open_rows(path)
        assert not mapped.flags.writeable
        # Budget forces many blocks: dataset is ~56KB, budget 8KB.
        budget = Xte.nbytes // 7
        assert budget < Xte.nbytes
        got = score_out_of_core(model, mapped, memory_budget_bytes=budget)
        assert np.array_equal(got, ref)

    def test_explicit_block_rows_and_ragged_tail(self, model_and_data):
        model, Xte, path, ref, fused, before = model_and_data
        # 1200 % 17 != 0: exercises the short final block.
        got = score_out_of_core(model, open_rows(path), block_rows=17)
        assert np.array_equal(got, ref)
        assert model.sharing_predict_info_["queries_fused"] == fused

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
    def test_close_leaves_no_segments(self, model_and_data):
        model, Xte, path, ref, fused, before = model_and_data
        got = score_out_of_core(model, open_rows(path), block_rows=400)
        assert np.array_equal(got, ref)
        model.close()
        assert shm_segments() == before

    def test_ring_respects_budget(self):
        rows = block_rows_for_budget(64 * 1024, n_features=8, ring_buffers=2)
        ring = RowBlockRing(rows, 8, n_buffers=2)
        assert ring.nbytes <= 64 * 1024

    def test_ring_reuses_buffers(self):
        ring = RowBlockRing(4, 3, n_buffers=2)
        a = ring.fill(np.zeros((4, 3)))
        b = ring.fill(np.ones((4, 3)))
        c = ring.fill(np.full((2, 3), 2.0))
        assert c.base is a.base  # third fill reuses the first buffer
        assert b[0, 0] == 1.0
        with pytest.raises(ValueError, match="does not fit"):
            ring.fill(np.zeros((5, 3)))

    def test_rejects_non_2d(self, model_and_data):
        model = model_and_data[0]
        with pytest.raises(ValueError, match="2-D"):
            score_out_of_core(model, np.zeros(8))

    def test_empty_dataset(self, model_and_data):
        model = model_and_data[0]
        out = score_out_of_core(model, np.empty((0, 6)))
        assert out.shape == (0,)
