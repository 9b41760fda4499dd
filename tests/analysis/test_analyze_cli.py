"""``python -m repro analyze``: exit codes, JSON artifact, filters."""

import json
import textwrap
from pathlib import Path

import pytest

from repro.__main__ import main

REPO_ROOT = Path(__file__).resolve().parents[2]

BAD = textwrap.dedent(
    """
    def f(x):
        return x == 0.5
    """
)


@pytest.fixture
def bad_tree(tmp_path):
    pkg = tmp_path / "src" / "repro" / "detectors"
    pkg.mkdir(parents=True)
    (pkg / "fixture.py").write_text(BAD, encoding="utf-8")
    return tmp_path


def test_analyze_listed_in_cli_index(capsys):
    assert main(["list"]) == 0
    assert "analyze" in capsys.readouterr().out


def test_clean_tree_exits_zero(capsys, bad_tree):
    clean = bad_tree / "src" / "repro" / "detectors" / "clean.py"
    clean.write_text("x = 1\n", encoding="utf-8")
    code = main(
        ["analyze", str(clean), "--root", str(bad_tree), "--no-baseline"]
    )
    assert code == 0
    assert "clean" in capsys.readouterr().out


def test_findings_exit_nonzero_with_locations(capsys, bad_tree):
    code = main(["analyze", str(bad_tree), "--root", str(bad_tree), "--no-baseline"])
    assert code == 1
    out = capsys.readouterr().out
    assert "src/repro/detectors/fixture.py:3" in out
    assert "float-equality" in out


def test_rule_filter_narrows(capsys, bad_tree):
    code = main(
        [
            "analyze",
            str(bad_tree),
            "--root",
            str(bad_tree),
            "--no-baseline",
            "--rule",
            "arena-dispose",
        ]
    )
    assert code == 0  # the only finding is float-equality


def test_unknown_rule_exits_two(capsys, bad_tree):
    code = main(["analyze", str(bad_tree), "--rule", "nope"])
    assert code == 2


def test_json_report_schema(tmp_path, bad_tree):
    out_path = tmp_path / "report.json"
    code = main(
        [
            "analyze",
            str(bad_tree),
            "--root",
            str(bad_tree),
            "--no-baseline",
            "--json",
            str(out_path),
        ]
    )
    assert code == 1
    payload = json.loads(out_path.read_text())
    assert payload["files_scanned"] == 1
    assert payload["counts_by_rule"] == {"float-equality": 1}
    finding = payload["findings"][0]
    assert finding["rule"] == "float-equality"
    assert finding["path"] == "src/repro/detectors/fixture.py"
    assert finding["line"] == 3
    assert finding["severity"] == "error"
    assert finding["hint"]


def test_update_baseline_then_gate_passes(bad_tree, capsys):
    baseline = bad_tree / "baseline.json"
    assert (
        main(
            [
                "analyze",
                str(bad_tree),
                "--root",
                str(bad_tree),
                "--baseline",
                str(baseline),
                "--update-baseline",
            ]
        )
        == 0
    )
    assert baseline.exists()
    code = main(
        [
            "analyze",
            str(bad_tree),
            "--root",
            str(bad_tree),
            "--baseline",
            str(baseline),
        ]
    )
    assert code == 0


def test_list_rules_catalogue(capsys):
    assert main(["analyze", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in (
        "contiguous-reduction",
        "asarray-order",
        "unordered-accumulation",
        "float-equality",
        "shared-state-mutation",
        "payload-arg-mutation",
        "arena-dispose",
        "registry-overwrite",
        "unseeded-random",
        "frozen-reference",
        "redundant-structure",
    ):
        assert rule in out


def test_gate_run_on_real_tree_is_clean(capsys):
    # The exact invocation the CI analyze job performs.
    code = main(
        [
            "analyze",
            str(REPO_ROOT / "src" / "repro"),
            "--root",
            str(REPO_ROOT),
            "--json",
            "-",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"] == []
