"""Operator bad input is exit status 2: one line on stderr, no traceback.

The convention under test: 0 = success, 1 = a gate failed (parity,
scheduler trajectory, …), 2 = the operator handed the CLI something
unusable (missing artifact, unwritable --json path, unknown command).
Every subcommand funnels these through CLIError in repro.__main__.
"""

import pytest

from repro.__main__ import SUBCOMMANDS, main


def _assert_exit_2(capsys, argv, needle):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") or err.startswith("analyze:"), err
    assert needle in err
    assert "Traceback" not in err
    assert err.count("\n") == 1  # exactly one line


class TestRegistries:
    def test_subcommands_are_exactly_the_four(self):
        assert set(SUBCOMMANDS) == {"plan", "schedulers", "serve", "analyze"}

    @pytest.mark.parametrize(
        "name",
        ["scaling", "kernels", "sharing", "approx", "memory", "service", "bench-all"],
    )
    def test_removed_benchmark_names_exit_2_via_argparse(self, name, capsys):
        with pytest.raises(SystemExit) as err:
            main([name, "--quick"])
        assert err.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestJsonWriteFailures:
    def test_unwritable_json_path_exits_2(self, capsys):
        # schedulers is the subcommand that writes through _emit_json.
        _assert_exit_2(
            capsys,
            ["schedulers", "--quick", "--json", "/no/such/dir/out.json"],
            "cannot write JSON",
        )

    def test_json_dash_still_works(self, capsys):
        assert main(["schedulers", "--quick", "--json", "-"]) == 0
        assert '"meta"' in capsys.readouterr().out


class TestArtifactPathValidation:
    def test_serve_rejects_missing_artifact(self, capsys):
        _assert_exit_2(
            capsys,
            ["serve", "--artifact", "/no/such/ensemble.repro"],
            "does not exist",
        )


class TestAnalyzePaths:
    def test_missing_path_exits_2(self, capsys):
        _assert_exit_2(
            capsys,
            ["analyze", "/no/such/module.py"],
            "no such file or directory",
        )

    def test_mixed_missing_paths_all_reported(self, capsys):
        assert main(["analyze", "src/repro/serving", "/missing/a", "/missing/b"]) == 2
        err = capsys.readouterr().err
        assert "/missing/a" in err and "/missing/b" in err


class TestArgparseStillOwnsUsageErrors:
    def test_unknown_flag_exits_via_argparse(self):
        with pytest.raises(SystemExit) as err:
            main(["serve", "--no-such-flag"])
        assert err.value.code == 2
