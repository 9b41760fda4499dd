import pytest

from repro.__main__ import EXPERIMENTS, main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_run_schedulers_ablation(self, capsys):
        assert main(["schedulers"]) == 0
        out = capsys.readouterr().out
        assert "A3" in out and "makespan" in out

    def test_scale_override(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.9")
        assert main(["jl", "--trials", "1"]) == 0
        out = capsys.readouterr().out
        assert "median_distortion" in out

    def test_invalid_experiment(self):
        with pytest.raises(SystemExit):
            main(["table99"])


class TestPlanCommand:
    _fast = ["--models", "4", "--n", "120", "--d", "6", "--n-jobs", "2"]

    def test_fit_plan_table(self, capsys):
        assert main(["plan", *self._fast]) == 0
        out = capsys.readouterr().out
        assert "fit plan" in out
        # All seven stages named, with the planning prefix done and the
        # training stages left pending (nothing was fitted).
        for stage in (
            "project",
            "forecast",
            "share",
            "schedule",
            "execute",
            "approximate",
            "combine",
        ):
            assert stage in out
        assert "pending" in out and "done" in out
        # Done stages show their info dict in the detail column — the
        # share stage's dedup summary in particular.
        assert "n_tasks_before=" in out and "bytes_published=" in out
        assert "forecast_cost" in out and "worker" in out
        assert "Planned per-worker load" in out

    def test_predict_plan_json(self, capsys):
        import json

        assert main(
            ["plan", "--phase", "predict", "--format", "json", *self._fast]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        plan = payload["predict"]
        assert [s["name"] for s in plan["stages"]] == [
            "project",
            "forecast",
            "share",
            "schedule",
            "execute",
            "combine",
        ]
        assert len(plan["assignment"]) == 4
        assert len(plan["forecast_costs"]) == 4
        assert all(isinstance(w, int) for w in plan["assignment"])

    def test_generic_split_has_no_costs(self, capsys):
        import json

        assert main(["plan", "--no-bps", "--format", "json", *self._fast]) == 0
        plan = json.loads(capsys.readouterr().out)["fit"]
        assert plan["forecast_costs"] is None
        assert len(plan["assignment"]) == 4

    def test_plan_listed(self, capsys):
        assert main(["list"]) == 0
        assert "plan" in capsys.readouterr().out


class TestScalingCommand:
    _fast = [
        "--workers",
        "1,2",
        "--n-train",
        "200",
        "--n-test",
        "600",
        "--models",
        "3",
        "--repeats",
        "1",
        "--predict-batches",
        "2",
    ]

    def test_table_output_and_identical_scores(self, capsys):
        assert main(["scaling", *self._fast]) == 0
        out = capsys.readouterr().out
        for backend in (
            "sequential",
            "threads",
            "work_stealing",
            "processes",
            "shm_processes",
        ):
            assert backend in out
        assert "scores identical across backends: True" in out

    def test_json_output_schema(self, capsys):
        import json

        assert main(["scaling", "--json", "-", *self._fast]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["meta"]["scores_identical"] is True
        assert payload["meta"]["predict_batches"] == 2
        assert {r["backend"] for r in payload["rows"]} == {
            "sequential",
            "threads",
            "work_stealing",
            "processes",
            "shm_processes",
        }
        for row in payload["rows"]:
            assert row["identical"] is True
            assert row["total_s"] > 0

    def test_scaling_listed(self, capsys):
        assert main(["list"]) == 0
        assert "scaling" in capsys.readouterr().out


class TestSchedulersCommand:
    def test_table_output_lists_registry_and_trajectory(self, capsys):
        from repro.scheduling import list_schedulers

        assert main(["schedulers", "--quick"]) == 0
        out = capsys.readouterr().out
        for name in list_schedulers():
            assert name in out
        assert "Static vs adaptive" in out
        assert "improved" in out

    def test_json_output_schema(self, capsys):
        import json

        from repro.scheduling import list_schedulers

        assert main(["schedulers", "--quick", "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {p["name"] for p in payload["policies"]} == set(list_schedulers())
        assert payload["meta"]["adaptive_improved_by_batch3"] is True
        traj = payload["trajectory"]
        assert {r["policy"] for r in traj} == set(list_schedulers())
        adaptive = {
            r["batch"]: r["makespan"] for r in traj if r["policy"] == "adaptive"
        }
        static = {r["batch"]: r["makespan"] for r in traj if r["policy"] == "bps-lpt"}
        # The acceptance trajectory: identical cold start, then the gap closes.
        assert adaptive[1] == static[1]
        assert adaptive[3] < adaptive[1]
        assert static[3] == static[1]
        abl = payload["ablation"]
        assert {r["policy"] for r in abl} == set(list_schedulers()) | {
            "bps_rank",
            "oracle_lpt",
        }

    def test_list_only(self, capsys):
        assert main(["schedulers", "--list"]) == 0
        out = capsys.readouterr().out
        assert "adaptive" in out and "uses_costs" in out
        assert "Static vs adaptive" not in out

    def test_list_json_emits_policies_only(self, capsys):
        import json

        assert main(["schedulers", "--list", "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"policies"}

    def test_too_few_batches_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["schedulers", "--batches", "2"])
        assert "must be >= 3" in capsys.readouterr().err

    def test_schedulers_listed(self, capsys):
        assert main(["list"]) == 0
        assert "Scheduler registry" in capsys.readouterr().out


class TestSharingCommand:
    # n_train must stay >= 256 so the auto engine resolves to kd_tree
    # and the share stage actually folds builds (the thing under test).
    _fast = [
        "--n-train",
        "400",
        "--n-test",
        "150",
        "--repeats",
        "1",
        "--n-jobs",
        "2",
    ]

    def test_table_output_and_exit_code(self, capsys):
        assert main(["sharing", *self._fast]) == 0
        out = capsys.readouterr().out
        assert "Shared-computation plane" in out
        assert "shared" in out and "redundant" in out
        assert "parity (shared vs redundant bitwise, all backends): True" in out
        assert "1 KD-tree build(s) for 4 detectors" in out

    def test_json_payload(self, capsys):
        import json

        assert main(["sharing", "--json", "-", *self._fast]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"meta", "rows"}
        meta = payload["meta"]
        assert meta["parity_ok"] is True
        assert meta["builds_ok"] is True
        assert meta["gates_ok"] is True
        assert meta["kdtree_builds_shared"] == meta["distinct_keys"] == 1
        assert meta["kdtree_builds_redundant"] == meta["n_detectors"]
        assert meta["sharing"]["queries_fused"] == meta["n_detectors"]
        assert {(r["backend"], r["mode"]) for r in payload["rows"]} == {
            ("sequential", "shared"),
            ("sequential", "redundant"),
            ("threads", "shared"),
            ("threads", "redundant"),
        }

    def test_gate_failure_exits_nonzero(self, monkeypatch):
        def broken(cfg, **kwargs):
            rows = [
                {
                    "backend": "sequential",
                    "n_jobs": 1,
                    "mode": "shared",
                    "fit_s": 0.1,
                    "predict_s": 0.1,
                    "total_s": 0.2,
                }
            ]
            meta = {
                "config": "broken",
                "sharing": {},
                "fit_speedup": 2.0,
                "total_speedup": 2.0,
                "n_detectors": 4,
                "distinct_keys": 1,
                "kdtree_builds_shared": 1,
                "kdtree_builds_redundant": 4,
                "parity_ok": False,
                "builds_ok": True,
                "gates_ok": False,
            }
            return rows, meta

        monkeypatch.setattr("repro.bench.runners.run_sharing_benchmark", broken)
        assert main(["sharing"]) == 1

    def test_sharing_listed(self, capsys):
        assert main(["list"]) == 0
        assert "Shared-computation plane benchmark" in capsys.readouterr().out


class TestApproxCommand:
    _fast = ["--n-train", "150", "--d", "10", "--repeats", "1"]

    def test_table_output_and_exit_code(self, capsys):
        assert main(["approx", *self._fast]) == 0
        out = capsys.readouterr().out
        assert "PSA wave" in out
        assert "blocks_per_model" in out and "busy_share" in out
        assert "parity (serial vs parallel bitwise): True" in out

    def test_json_payload(self, capsys):
        import json

        assert main(["approx", "--json", "-", *self._fast]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"meta", "rows"}
        assert payload["meta"]["parity_ok"] is True
        assert payload["meta"]["gates_ok"] is True
        assert payload["meta"]["n_approximated"] == 9
        serial, parallel = payload["rows"]
        assert (serial["n_jobs"], parallel["n_jobs"]) == (1, 2)
        assert serial["tasks"] == 9 and serial["tasks_per_worker"] == [9]
        # Nine forests on two workers: two tree blocks each, 9 : 9.
        assert parallel["blocks_per_model"] == 2
        assert parallel["tasks_per_worker"] == [9, 9]
        assert len(parallel["busy_share"]) == 2

    def test_gate_failure_exits_nonzero(self, monkeypatch):
        def broken(cfg, **kwargs):
            rows = [
                {
                    "n_jobs": 1,
                    "approximate_s": 1.0,
                    "approximate_speedup": 1.0,
                    "fit_s": 1.2,
                    "tasks": 9,
                    "blocks_per_model": 1,
                    "tasks_per_worker": [9],
                    "busy_share": [1.0],
                }
            ]
            meta = {
                "config": "broken",
                "approximate_speedup": 1.0,
                "fit_speedup": 1.0,
                "n_approximated": 9,
                "parity_ok": False,
                "gates_ok": False,
            }
            return rows, meta

        monkeypatch.setattr("repro.bench.runners.run_approx_benchmark", broken)
        assert main(["approx"]) == 1

    def test_approx_listed_and_registered(self, capsys):
        from repro.__main__ import BENCH_SUITES

        assert "approx" in BENCH_SUITES
        assert main(["list"]) == 0
        assert "PSA parallel-wave benchmark" in capsys.readouterr().out


class TestKernelsCommand:
    _fast = [
        "--repeats",
        "1",
        "--n-index",
        "400",
        "--n-query",
        "80",
        "--trees",
        "8",
        "--serve-batch",
        "30",
        "--serve-batches",
        "2",
    ]

    def test_table_output_and_exit_code(self, capsys):
        assert main(["kernels", *self._fast]) == 0
        out = capsys.readouterr().out
        assert "Compute kernels" in out
        assert "knn_query" in out and "iforest_scoring" in out
        assert "bitwise-identical: True" in out

    def test_json_payload(self, capsys):
        import json

        assert main(["kernels", "--json", "-", *self._fast]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"meta", "rows"}
        assert payload["meta"]["all_identical"] is True
        kernels = {r["kernel"] for r in payload["rows"]}
        assert {
            "knn_query",
            "lof_scores",
            "iforest_scoring",
            "forest_predict",
            "gbm_predict",
            "tree_fit_split_search",
            "abod_angle_variance",
        } == kernels

    def test_parity_failure_exits_nonzero(self, monkeypatch):
        def broken(cfg, **kwargs):
            rows = [
                {
                    "kernel": "knn_query",
                    "reference_s": 1.0,
                    "vectorized_s": 0.5,
                    "speedup": 2.0,
                    "identical": False,
                }
            ]
            meta = {
                "config": "broken",
                "all_identical": False,
                "knn_query_speedup": 2.0,
                "iforest_speedup": 2.0,
                "serve_batch": 64,
            }
            return rows, meta

        monkeypatch.setattr("repro.bench.runners.run_kernel_benchmarks", broken)
        assert main(["kernels"]) == 1

    def test_kernels_listed(self, capsys):
        assert main(["list"]) == 0
        assert "Compute-kernel microbenchmarks" in capsys.readouterr().out
