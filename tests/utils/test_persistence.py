import pickle

import numpy as np
import pytest

from repro.utils.persistence import (
    ENSEMBLE_SCHEMA_VERSION,
    load_ensemble,
    read_ensemble_header,
    save_ensemble,
)


class TestPersistence:
    """A single estimator, fitted or not, is a plain pickle."""

    def test_detector_roundtrip(self, tiny_X):
        from repro.detectors import KNN

        det = KNN(n_neighbors=5).fit(tiny_X)
        loaded = pickle.loads(pickle.dumps(det))
        np.testing.assert_array_equal(
            loaded.decision_function(tiny_X), det.decision_function(tiny_X)
        )

    def test_suod_roundtrip(self, tiny_X):
        from repro import SUOD
        from repro.detectors import HBOS, KNN

        clf = SUOD([KNN(n_neighbors=5), HBOS()], random_state=0).fit(tiny_X)
        expected = clf.decision_function(tiny_X)
        loaded = pickle.loads(pickle.dumps(clf))
        np.testing.assert_array_equal(loaded.decision_function(tiny_X), expected)

    def test_unfitted_roundtrip(self):
        from repro.detectors import LOF

        loaded = pickle.loads(pickle.dumps(LOF(n_neighbors=7)))
        assert loaded.n_neighbors == 7

    def test_version_recorded(self, tmp_path, tiny_X):
        import repro

        p = save_ensemble(_fitted_ensemble(tiny_X), tmp_path / "v.repro")
        assert read_ensemble_header(p)["library_version"] == repro.__version__


def _fitted_ensemble(tiny_X, **kwargs):
    from repro import SUOD
    from repro.detectors import HBOS, KNN, LOF

    defaults = dict(random_state=0)
    defaults.update(kwargs)
    pool = [KNN(n_neighbors=5), LOF(n_neighbors=6), HBOS(n_bins=10)]
    return SUOD(pool, **defaults).fit(tiny_X)


class TestEnsemblePersistence:
    def test_roundtrip_scores_bitwise_equal(self, tmp_path, tiny_X):
        clf = _fitted_ensemble(tiny_X)
        expected = clf.decision_function(tiny_X)
        loaded = load_ensemble(save_ensemble(clf, tmp_path / "ens.pkl"))
        np.testing.assert_array_equal(loaded.decision_function(tiny_X), expected)
        np.testing.assert_array_equal(loaded.predict(tiny_X), clf.predict(tiny_X))
        assert loaded.threshold_ == clf.threshold_

    def test_roundtrip_keeps_every_neighbor_index_order(self, tmp_path, tiny_X):
        # Each index is saved with the tree its order built at fit; the
        # artifact restores it as is and scores the same bits.
        from repro import SUOD
        from repro.detectors import KNN, LOF

        clf = SUOD(
            [
                LOF(n_neighbors=10, metric="manhattan"),
                LOF(n_neighbors=10, metric="minkowski", p=3.0),
                KNN(n_neighbors=8),
            ],
            rp_flag_global=False,
            approx_flag_global=False,
            random_state=3,
        ).fit(tiny_X)
        loaded = load_ensemble(save_ensemble(clf, tmp_path / "orders.repro"))
        orders = [est._nn._tree.p for est in loaded.base_estimators_]
        assert orders == [1.0, 3.0, 2.0]
        np.testing.assert_array_equal(
            loaded.decision_function_matrix(tiny_X),
            clf.decision_function_matrix(tiny_X),
        )
        np.testing.assert_array_equal(
            loaded.decision_function(tiny_X), clf.decision_function(tiny_X)
        )
        loaded.close()

    def test_roundtrip_keeps_approximators_and_projectors(self, tmp_path, tiny_X):
        clf = _fitted_ensemble(tiny_X)
        loaded = load_ensemble(save_ensemble(clf, tmp_path / "ens.pkl"))
        assert len(loaded.approximators_) == clf.n_models
        assert len(loaded.projectors_) == clf.n_models
        np.testing.assert_array_equal(loaded.approx_flags_, clf.approx_flags_)
        np.testing.assert_array_equal(loaded.rp_flags_, clf.rp_flags_)
        np.testing.assert_array_equal(
            loaded.train_score_matrix_, clf.train_score_matrix_
        )

    def test_run_telemetry_not_persisted(self, tmp_path, tiny_X):
        clf = _fitted_ensemble(tiny_X)
        clf.decision_function(tiny_X)
        assert clf.fit_plan_ is not None and clf.predict_plan_ is not None
        loaded = load_ensemble(save_ensemble(clf, tmp_path / "ens.pkl"))
        for attr in ("fit_plan_", "predict_plan_", "fit_result_", "predict_result_"):
            assert not hasattr(loaded, attr)

    def test_file_size_does_not_scale_with_scored_batch(self, tmp_path, tiny_X):
        clf = _fitted_ensemble(tiny_X)
        clf.decision_function(tiny_X)
        small = save_ensemble(clf, tmp_path / "small.pkl").stat().st_size
        big_batch = np.tile(tiny_X, (200, 1))
        clf.decision_function(big_batch)
        big = save_ensemble(clf, tmp_path / "big.pkl").stat().st_size
        # predict_result_ holds the last batch's per-task score arrays;
        # it must not leak into the deployment file.
        assert big == small

    @pytest.mark.parametrize("bps_flag", [True, False], ids=["bps", "generic"])
    def test_roundtrip_keeps_bps_flag(self, tmp_path, tiny_X, bps_flag):
        # ``bps_flag`` is all the scheduling state an artifact carries:
        # the reloaded ensemble schedules its batches with the same policy.
        clf = _fitted_ensemble(tiny_X, n_jobs=2, backend="threads", bps_flag=bps_flag)
        expected = clf.decision_function(tiny_X)
        loaded = load_ensemble(save_ensemble(clf, tmp_path / "ens.pkl"))
        try:
            assert loaded.bps_flag is bps_flag
            np.testing.assert_array_equal(loaded.decision_function(tiny_X), expected)
            info = loaded.predict_plan_.report_for("schedule").info
            assert info["policy"] == ("bps-lpt" if bps_flag else "generic")
            np.testing.assert_array_equal(
                loaded.predict_plan_.context.get("assignment"),
                clf.predict_plan_.context.get("assignment"),
            )
        finally:
            loaded.close()
            clf.close()

    def test_manifest_carries_no_scheduling_state(self, tmp_path, tiny_X):
        header = read_ensemble_header(
            save_ensemble(_fitted_ensemble(tiny_X), tmp_path / "ens.pkl")
        )
        assert header["schema_version"] == ENSEMBLE_SCHEMA_VERSION == 5
        assert set(header["manifest"]) == {
            "n_models",
            "n_features_in",
            "families",
            "n_projected",
            "n_approximated",
            "combination",
            "standardisation",
        }

    def test_unfitted_rejected(self, tmp_path):
        from repro import SUOD
        from repro.detectors import HBOS

        with pytest.raises(ValueError, match="fitted"):
            save_ensemble(SUOD([HBOS()]), tmp_path / "ens.pkl")

    def test_non_suod_rejected(self, tmp_path, tiny_X):
        from repro.detectors import KNN

        with pytest.raises(TypeError, match="pickle a single estimator"):
            save_ensemble(KNN(n_neighbors=5).fit(tiny_X), tmp_path / "ens.pkl")

    @staticmethod
    def _repack_v2(path, mutate, model=None):
        """Rewrite a v2 artifact with a tampered header (and model pickle).

        Speaks the raw container format (preamble struct, header
        pickle, model pickle, 64-byte-aligned blob region) so the
        mutated file is structurally valid — the loader must reject it
        on *semantics*, not on a parse error. ``model`` replaces the
        model pickle bytes; the blob region is kept as it was.
        """
        import struct

        preamble = struct.Struct("<8sQ")
        raw = path.read_bytes()
        magic, header_len = preamble.unpack_from(raw)
        header = pickle.loads(raw[preamble.size : preamble.size + header_len])
        body = preamble.size + header_len
        old_model = raw[body : body + header["model_nbytes"]]
        old_data_start = -(-(body + len(old_model)) // 64) * 64
        blobs = raw[old_data_start:]
        if model is None:
            model = old_model
        header["model_nbytes"] = len(model)
        mutate(header)
        header_bytes = pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL)
        data_start = -(-(preamble.size + len(header_bytes) + len(model)) // 64) * 64
        with open(path, "wb") as fh:
            fh.write(preamble.pack(magic, len(header_bytes)))
            fh.write(header_bytes)
            fh.write(model)
            fh.write(b"\0" * (data_start - fh.tell()))
            fh.write(blobs)

    def test_different_schema_version_rejected(self, tmp_path, tiny_X):
        p = save_ensemble(_fitted_ensemble(tiny_X), tmp_path / "ens.pkl")
        pristine = p.read_bytes()
        for bad in (ENSEMBLE_SCHEMA_VERSION + 1, ENSEMBLE_SCHEMA_VERSION - 1):
            p.write_bytes(pristine)
            self._repack_v2(p, lambda h: h.__setitem__("schema_version", bad))
            with pytest.raises(ValueError, match="schema version"):
                load_ensemble(p)

    def test_schema_4_artifact_asks_for_a_resave(self, tmp_path, tiny_X):
        # Schema 4 pickled SUOD's ``scheduler``/``cost_predictor`` and
        # manifested ``has_cost_predictor``; the file must be re-saved,
        # and the refusal names the versions, not a manifest mismatch.
        p = save_ensemble(_fitted_ensemble(tiny_X), tmp_path / "ens.pkl")

        def as_schema_4(header):
            header["schema_version"] = 4
            header["manifest"]["has_cost_predictor"] = False

        self._repack_v2(p, as_schema_4)
        with pytest.raises(
            ValueError, match="schema version 4; .* exactly version 5. Re-save"
        ):
            load_ensemble(p)

    def test_foreign_file_rejected(self, tmp_path):
        p = tmp_path / "foreign.pkl"
        with open(p, "wb") as fh:
            pickle.dump({"magic": "repro-model"}, fh)
        with pytest.raises(ValueError, match="not a repro ensemble"):
            load_ensemble(p)

    def test_manifest_mismatch_rejected(self, tmp_path, tiny_X):
        p = save_ensemble(_fitted_ensemble(tiny_X), tmp_path / "ens.pkl")

        def bump_models(header):
            header["manifest"]["n_models"] += 1

        self._repack_v2(p, bump_models)
        with pytest.raises(ValueError, match="integrity"):
            load_ensemble(p)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("offset", -64),
            ("offset", 8),
            ("shape", [-1]),
            ("nbytes", 8),
        ],
        ids=["negative-offset", "misaligned-offset", "negative-dim", "nbytes-mismatch"],
    )
    def test_tampered_arena_spec_rejected(self, tmp_path, tiny_X, field, value):
        p = save_ensemble(_fitted_ensemble(tiny_X), tmp_path / "ens.pkl")
        assert read_ensemble_header(p)["arenas"]
        self._repack_v2(p, lambda h: h["arenas"][0].__setitem__(field, value))
        with pytest.raises(ValueError, match="integrity"):
            load_ensemble(p)

    def test_arena_id_outside_the_index_rejected(self, tmp_path, tiny_X):
        p = save_ensemble(_fitted_ensemble(tiny_X), tmp_path / "ens.pkl")
        # The model still references the last blob; the index lost it.
        self._repack_v2(p, lambda h: h["arenas"].pop())
        with pytest.raises(ValueError, match="integrity"):
            load_ensemble(p)

    def test_negative_arena_id_rejected(self, tmp_path, tiny_X):
        import io

        class NegativeIds(pickle.Pickler):
            def persistent_id(self, obj):
                if isinstance(obj, np.ndarray):
                    return ("repro-arena", -1)
                return None

        p = save_ensemble(_fitted_ensemble(tiny_X), tmp_path / "ens.pkl")
        buf = io.BytesIO()
        NegativeIds(buf, pickle.HIGHEST_PROTOCOL).dump({"scores": np.zeros(3)})
        # -1 must not wrap around to the last blob of a valid index.
        self._repack_v2(p, lambda h: None, model=buf.getvalue())
        with pytest.raises(ValueError, match="integrity"):
            load_ensemble(p)

    def test_truncated_arena_region_rejected(self, tmp_path, tiny_X):
        p = save_ensemble(_fitted_ensemble(tiny_X), tmp_path / "ens.pkl")
        raw = p.read_bytes()
        p.write_bytes(raw[: len(raw) - 256])
        with pytest.raises(ValueError, match="integrity"):
            load_ensemble(p)

    def test_legacy_v1_named_in_error(self, tmp_path):
        p = tmp_path / "legacy.pkl"
        with open(p, "wb") as fh:
            pickle.dump(
                {"magic": "repro-ensemble", "schema_version": 1, "model": None}, fh
            )
        with pytest.raises(ValueError, match="schema version 1"):
            load_ensemble(p)
