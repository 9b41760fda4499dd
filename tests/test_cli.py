import pytest

from repro.__main__ import EXPERIMENTS, main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_list_names_only_experiments_and_subcommands(self, capsys):
        from repro.__main__ import SUBCOMMANDS

        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        listed = {line.split()[0] for line in lines if line.strip()}
        assert listed == set(EXPERIMENTS) | set(SUBCOMMANDS)

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
