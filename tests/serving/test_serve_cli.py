"""The `python -m repro serve` process: boot, score, SIGTERM drain."""

import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.__main__ import main
from repro.serving import ScoringClient


def _serve_env():
    env = dict(os.environ)
    src_root = str(Path(repro.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, env.get("PYTHONPATH")) if p
    )
    return env


@pytest.fixture
def serve_proc(serving_artifact):
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--artifact",
            serving_artifact,
            "--port",
            "0",
            "--tenant-limit",
            "hot=1:1",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_serve_env(),
    )
    yield proc
    if proc.poll() is None:
        proc.kill()
        proc.wait()


class TestServeProcess:
    def test_ready_score_throttle_and_sigterm_drain(
        self, serve_proc, serving_model, serving_rows
    ):
        ready = serve_proc.stdout.readline()
        match = re.match(r"REPRO-SERVE READY .*port=(\d+)", ready)
        assert match, f"unexpected first line: {ready!r}"
        port = int(match.group(1))
        assert f"pid={serve_proc.pid}" in ready

        with ScoringClient("127.0.0.1", port) as client:
            reply = client.score(serving_rows[:8]).require_ok()
            offline = serving_model.decision_function(serving_rows[:8])
            assert reply.scores.tobytes() == offline.tobytes()
            # The throttled tenant gets its token, then 429s.
            assert client.score(serving_rows[:1], tenant="hot").ok
            throttled = client.score(serving_rows[:1], tenant="hot")
            assert (throttled.code, throttled.error) == (429, "rate_limited")

        serve_proc.send_signal(signal.SIGTERM)
        out, _ = serve_proc.communicate(timeout=60)
        assert serve_proc.returncode == 0
        drained = [
            line for line in out.splitlines() if line.startswith("REPRO-SERVE DRAINED")
        ]
        assert len(drained) == 1
        assert "served_ok=2" in drained[0]
        assert "rejected=1" in drained[0]


class TestServeBadInput:
    def test_missing_artifact_exits_2(self, capsys):
        assert main(["serve", "--artifact", "/no/such/file.repro"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "does not exist" in err
        assert "Traceback" not in err

    def test_directory_artifact_exits_2(self, tmp_path, capsys):
        assert main(["serve", "--artifact", str(tmp_path)]) == 2
        assert "is a directory" in capsys.readouterr().err

    def test_corrupt_artifact_exits_2(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.repro"
        bogus.write_bytes(b"definitely not an ensemble artifact")
        assert main(["serve", "--artifact", str(bogus)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_malformed_tenant_limit_exits_2(self, serving_artifact, capsys):
        for spec in ("hot", "hot=", "hot=abc", "hot=1:xyz", "hot=-1"):
            code = main(
                ["serve", "--artifact", serving_artifact, "--tenant-limit", spec]
            )
            assert code == 2, spec
            assert "--tenant-limit" in capsys.readouterr().err

    def test_truncated_artifact_exits_2(self, serving_artifact, tmp_path, capsys):
        data = Path(serving_artifact).read_bytes()
        truncated = tmp_path / "truncated.repro"
        truncated.write_bytes(data[: len(data) // 2])
        assert main(["serve", "--artifact", str(truncated)]) == 2
        assert "error:" in capsys.readouterr().err


class TestServingScoresAreFinite:
    def test_artifact_scores_match_fitted_model(
        self, serving_artifact, serving_model, serving_rows
    ):
        """The artifact the serve tests boot from is itself faithful."""
        from repro.utils.persistence import load_ensemble

        loaded = load_ensemble(serving_artifact)
        a = loaded.decision_function(serving_rows)
        b = serving_model.decision_function(serving_rows)
        assert np.array_equal(a, b)
