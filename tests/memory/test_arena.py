"""Arena artifact serving: memmap views, laziness, read-only contract."""

import pickle

import numpy as np
import pytest

from repro import SUOD
from repro.detectors import HBOS, KNN, LOF, IsolationForest
from repro.memory.arena import (
    ALIGNMENT,
    ArenaView,
    align_up,
    load_view,
    release_mappings,
)
from repro.utils.persistence import (
    load_ensemble,
    read_ensemble_header,
    save_ensemble,
)


@pytest.fixture(scope="module")
def pool_X():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((400, 6))
    X[:8] += 6.0
    return X


@pytest.fixture(scope="module")
def fitted(pool_X):
    pool = [
        IsolationForest(n_estimators=20, random_state=0),
        KNN(n_neighbors=8),
        LOF(n_neighbors=10),
        HBOS(),
    ]
    return SUOD(pool, approx_flag_global=False, random_state=0).fit(pool_X)


@pytest.fixture()
def artifact(fitted, tmp_path):
    release_mappings()
    yield save_ensemble(fitted, tmp_path / "ens.repro")
    release_mappings()


class TestArenaArtifact:
    def test_roundtrip_bitwise(self, fitted, artifact, pool_X):
        ref = fitted.decision_function(pool_X)
        loaded = load_ensemble(artifact)
        assert np.array_equal(loaded.decision_function(pool_X), ref)

    def test_header_records_arena_index(self, artifact):
        header = read_ensemble_header(artifact)
        specs = header["arenas"]
        assert len(specs) > 0
        for spec in specs:
            assert spec["offset"] % ALIGNMENT == 0
            expected = int(np.prod(spec["shape"])) * np.dtype(spec["dtype"]).itemsize
            assert spec["nbytes"] == expected

    def test_views_are_read_only_memmaps(self, artifact):
        loaded = load_ensemble(artifact)
        views = [
            est._flat_cache.threshold
            for est in loaded.base_estimators_
            if getattr(est, "_flat_cache", None) is not None
        ]
        assert views, "expected at least one served flat forest"
        for view in views:
            assert isinstance(view, ArenaView)
            assert not view.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                view[0] = 0.0

    def test_no_flat_rebuild_on_served_model(self, artifact, pool_X, monkeypatch):
        # The artifact ships ready-to-traverse flat arenas; a loaded
        # model must never pay the flatten cost again.
        import repro.detectors.iforest as iforest_mod

        loaded = load_ensemble(artifact)

        def boom(*a, **k):
            raise AssertionError("flatten_forest called on a served model")

        monkeypatch.setattr(iforest_mod, "flatten_forest", boom)
        loaded.decision_function(pool_X[:16])

    def test_view_pickles_by_reference(self, artifact):
        loaded = load_ensemble(artifact)
        view = next(
            est._flat_cache.threshold
            for est in loaded.base_estimators_
            if getattr(est, "_flat_cache", None) is not None
        )
        blob = pickle.dumps(view)
        # By reference: the pickle must not scale with the data.
        assert len(blob) < 1024
        clone = pickle.loads(blob)
        assert isinstance(clone, ArenaView)
        # equal_nan: leaf nodes carry NaN thresholds.
        assert np.array_equal(clone, view, equal_nan=True)
        # Derived views no longer describe a blob: they go by value.
        derived = view[1:]
        assert pickle.loads(pickle.dumps(derived)).base is not None

    def test_artifact_without_arenas_loads_bitwise(self, tmp_path):
        # 40 x 3 rows: no fitted array reaches the 1 KB arena threshold,
        # so the whole model rides inline in the pickle.
        X = np.random.default_rng(5).standard_normal((40, 3))
        small = SUOD(
            [HBOS(n_bins=5), KNN(n_neighbors=5)],
            approx_flag_global=False,
            random_state=0,
        ).fit(X)
        path = save_ensemble(small, tmp_path / "small.repro")
        assert read_ensemble_header(path)["arenas"] == []
        assert np.array_equal(
            load_ensemble(path).decision_function(X), small.decision_function(X)
        )

    def test_load_view_bounds_checked(self, artifact):
        header = read_ensemble_header(artifact)
        size = artifact.stat().st_size
        with pytest.raises(ValueError, match="exceeds"):
            load_view(artifact, size - 8, np.float64, (100,))
        assert header["arenas"]

    def test_align_up(self):
        assert align_up(0) == 0
        assert align_up(1) == ALIGNMENT
        assert align_up(ALIGNMENT) == ALIGNMENT
        assert align_up(ALIGNMENT + 1) == 2 * ALIGNMENT

    def test_shared_blob_identity_preserved(self, artifact):
        # Arrays deduped to one blob at save time come back as one
        # shared view object, not per-reference copies.
        loaded = load_ensemble(artifact)
        forests = [
            est
            for est in loaded.base_estimators_
            if getattr(est, "_flat_cache", None) is not None
        ]
        flat = forests[0]._flat_cache
        blob = pickle.dumps((flat.threshold, flat.threshold))
        a, b = pickle.loads(blob)
        assert a is b
