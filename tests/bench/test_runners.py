"""Tests for the benchmark harness (runners at miniature scale)."""

import numpy as np
import pytest

from repro.bench import BenchConfig, format_table
from repro.bench.ablations import (
    run_approximator_ablation,
    run_jl_distortion,
    run_scheduler_ablation,
)
from repro.bench.runners import (
    run_claims_case,
    run_fig3_decision_surface,
    run_psa_comparison,
    run_table1_projection,
    run_table4_bps,
    run_table5_full_system,
)

TINY = BenchConfig(scale=0.03, max_n=220, trials=1, n_models=6)


class TestConfig:
    def test_env_parsing(self, monkeypatch):
        from repro.bench import get_config

        monkeypatch.setenv("REPRO_SCALE", "0.5")
        monkeypatch.setenv("REPRO_TRIALS", "3")
        cfg = get_config()
        assert cfg.scale == 0.5 and cfg.trials == 3

    def test_invalid_env(self, monkeypatch):
        from repro.bench import get_config

        monkeypatch.setenv("REPRO_SCALE", "2.0")
        with pytest.raises(ValueError):
            get_config()

    def test_describe_mentions_paper(self):
        assert "paper" in TINY.describe()


class TestFormatTable:
    def test_basic(self):
        out = format_table([{"a": 1, "b": 0.51234}, {"a": 22, "b": 3.0}], title="T")
        assert "T" in out and "0.512" in out and "22" in out

    def test_empty(self):
        assert "no rows" in format_table([], title="X")

    def test_column_selection(self):
        out = format_table([{"a": 1, "b": 2}], columns=["b"])
        assert "b" in out and "a" not in out.splitlines()[0]


class TestRunners:
    def test_table1_rows_complete(self):
        rows, meta = run_table1_projection(
            TINY,
            datasets=("Cardio",),
            detectors=("KNN",),
            methods=("original", "toeplitz"),
        )
        assert len(rows) == 2
        for r in rows:
            assert r["time"] > 0
            assert 0 <= r["roc"] <= 1

    def test_psa_rows(self):
        rows, meta = run_psa_comparison(TINY, datasets=("Cardio",))
        models = {r["model"] for r in rows}
        assert {"kNN", "LOF", "ABOD"} <= models
        for r in rows:
            assert 0 <= r["roc_orig"] <= 1 and 0 <= r["roc_appr"] <= 1

    def test_table4_reduction_fields(self):
        rows, meta = run_table4_bps(
            TINY, datasets=("Cardio",), m_list=(8,), t_list=(2,)
        )
        assert len(rows) == 1
        r = rows[0]
        assert r["generic"] > 0 and r["bps"] > 0
        assert r["redu_pct"] == pytest.approx(
            100 * (r["generic"] - r["bps"]) / r["generic"]
        )

    def test_table5_shape(self):
        rows, meta = run_table5_full_system(TINY, datasets=("Cardio",), t_list=(2, 4))
        assert len(rows) == 2
        for r in rows:
            for key in ("fit_B", "fit_S", "pred_B", "pred_S", "roc_avg_B", "roc_avg_S"):
                assert key in r

    def test_fig3(self):
        rows, meta = run_fig3_decision_surface(TINY)
        assert {r["model"] for r in rows} == {"ABOD", "FeatureBagging", "kNN", "LOF"}
        assert len(meta["surfaces"]) == 8
        for surface in meta["surfaces"].values():
            assert len(surface.splitlines()) == 20

    def test_claims_case(self):
        rows, meta = run_claims_case(TINY, n_workers=4)
        assert [r["system"] for r in rows] == ["baseline", "suod", "delta_pct"]
        assert rows[0]["fit_time"] > 0


class TestAblations:
    def test_jl_distortion_monotone(self):
        rows, _ = run_jl_distortion(TINY, d=32, n=80)
        fracs = sorted({r["k_frac"] for r in rows})
        lo = np.mean([r["median_distortion"] for r in rows if r["k_frac"] == fracs[0]])
        hi = np.mean([r["median_distortion"] for r in rows if r["k_frac"] == fracs[-1]])
        assert hi < lo

    def test_scheduler_ablation_policies(self):
        from repro.scheduling import list_schedulers

        rows, meta = run_scheduler_ablation(TINY, m=40, t=4)
        policies = {r["policy"] for r in rows}
        # Registry-driven: every registered policy + the oracle reference.
        assert policies == set(list_schedulers()) | {"bps_rank", "oracle_lpt"}
        assert meta["policies"] == list_schedulers() + ["bps_rank", "oracle_lpt"]
        assert all(r["vs_lower_bound"] >= 1.0 - 1e-9 for r in rows)

    def test_scheduler_trajectory_improves_by_batch_three(self):
        from repro.bench.ablations import run_scheduler_trajectory

        rows, meta = run_scheduler_trajectory(TINY, m=32, t=4, batches=3)
        assert meta["adaptive_batch3"] < meta["adaptive_batch1"]
        assert meta["adaptive_batch1"] == meta["static_final"]
        static = [r["makespan"] for r in rows if r["policy"] == "bps-lpt"]
        assert static == [static[0]] * 3

    def test_approximator_ablation(self):
        rows, _ = run_approximator_ablation(TINY, dataset="Cardio")
        apprs = {r["approximator"] for r in rows}
        assert {"(original)", "forest", "ridge"} <= apprs

