"""The `python -m repro serve` process: boot, score, SIGTERM drain."""

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.__main__ import main
from repro.serving import ScoringClient
from repro.serving.protocol import IncompleteFrame
from tests.serving.conftest import child_pids


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


class TestProcessGroupSignal:
    def test_killpg_sigterm_under_load_drains_and_leaves_no_process(
        self, serving_artifact, serving_model, serving_rows
    ):
        """SIGTERM to the server's whole process group (as a terminal or
        a supervisor sends it) reaches the scoring workers too: they
        ignore it, the parent drains, and every scored request is
        delivered before the group empties."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--artifact",
             serving_artifact, "--port", "0", "--rate", "1e9", "--burst", "1e9"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=_serve_env(),
            start_new_session=True,
        )
        try:
            ready = proc.stdout.readline()
            match = re.match(r"REPRO-SERVE READY .*port=(\d+)", ready)
            assert match, f"unexpected first line: {ready!r}"
            port = int(match.group(1))
            # Requests big enough (tens of ms each) that the signal finds
            # a batch in flight on a worker.
            rows = np.tile(serving_rows, (128, 1))
            offline = serving_model.decision_function(rows)
            outcomes = [[] for _ in range(2)]

            def load(out):
                with ScoringClient("127.0.0.1", port) as client:
                    while True:
                        try:
                            reply = client.score(rows)
                        except (OSError, IncompleteFrame):
                            return  # the drain closed the connection
                        same = not reply.ok or (
                            reply.scores.tobytes() == offline.tobytes()
                        )
                        out.append(reply.code if same else "differs")

            threads = [threading.Thread(target=load, args=(o,)) for o in outcomes]
            for t in threads:
                t.start()
            deadline = time.monotonic() + 30.0
            while sum(len(o) for o in outcomes) < 20 and time.monotonic() < deadline:
                time.sleep(0.01)
            os.killpg(proc.pid, signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
            for t in threads:
                t.join(timeout=30)
            assert proc.returncode == 0
            drained = [
                ln for ln in out.splitlines() if ln.startswith("REPRO-SERVE DRAINED")
            ]
            assert len(drained) == 1
            codes = [code for o in outcomes for code in o]
            assert set(codes) <= {200, 503}  # ok, or refused while draining
            # Every reply the server wrote reached its client, the 503s
            # for frames read during the drain included.
            assert f"served_ok={codes.count(200)} " in drained[0]
            assert f"rejected={codes.count(503)} " in drained[0]
            assert drained[0].endswith(" errors=0 dropped_responses=0")
            deadline = time.monotonic() + 10.0
            while True:  # the group empties once the workers are joined
                try:
                    os.killpg(proc.pid, 0)
                except ProcessLookupError:
                    break
                assert time.monotonic() < deadline, "a process outlived the drain"
                time.sleep(0.05)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (an unreaped zombie is not)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rpartition(")")[2].split()[0] != "Z"
    except OSError:
        return False


class TestServerKilled:
    def test_workers_exit_once_the_server_is_gone(self, serve_proc):
        """A SIGKILLed server never joins its workers; they notice the
        lost parent and exit instead of lingering as orphans."""
        assert serve_proc.stdout.readline().startswith("REPRO-SERVE READY")
        children = child_pids(serve_proc.pid)
        assert children
        serve_proc.kill()
        serve_proc.wait()
        deadline = time.monotonic() + 10.0
        while any(_running(pid) for pid in children):
            assert time.monotonic() < deadline, "a worker outlived its server"
            time.sleep(0.05)


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
