"""Smoke tests of the benchmark itself (not part of tier-1).

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.validate import load_manifest, validate  # noqa: E402

WORKLOADS = [row["name"] for row in load_manifest()["workloads"]]


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=ROOT,
    )


def test_manifest_is_valid():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "validate.py")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_validator_catches_drift():
    manifest = load_manifest()
    manifest["end_to_end"] = [
        row for row in manifest["end_to_end"] if row["name"] != "setup_s"
    ]
    manifest["per_layer"][0]["unit"] = "furlongs"
    manifest["paths"].append("src")
    errors = "\n".join(validate(manifest))
    assert "setup_s is missing" in errors
    assert "furlongs" in errors
    assert "paths must list only perfbench/" in errors


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, declared", [("0", END_TO_END), ("1", PER_LAYER)])
def test_quick_run_prints_every_declared_metric(workload, trace, declared):
    done = run("--workload", workload, "--quick", "--seed", "3", "--trace", trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(declared)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == declared[name][0]
    if trace == "1":
        spans = json.loads(
            (ROOT / "perfbench" / "out" / f"trace-{workload}.json").read_text()
        )
        assert {"name", "start", "end", "parent", "workload"} <= set(spans["spans"][0])


def test_supervisor_ends_what_a_run_leaves_behind():
    leak = (
        "import subprocess, sys\n"
        "p = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'],"
        " start_new_session=True)\n"
        "print(p.pid)"
    )
    script = (
        "import sys\n"
        "from perfbench import supervise\n"
        "supervise.GRACE_S = 0.5\n"
        f"sys.exit(supervise.supervise([sys.executable, '-c', {leak!r}], 30.0))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=ROOT,
    )
    assert done.returncode == 3, done.stdout + done.stderr
    assert not Path(f"/proc/{int(done.stdout)}").exists()


def test_unknown_workload_exits_nonzero():
    assert run("--workload", "nope", "--quick").returncode != 0
