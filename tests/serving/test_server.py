"""End-to-end server behaviour over real sockets (in-process thread)."""

import asyncio
import os
import signal
import socket
import time

import numpy as np
import pytest

from repro.core.suod import SUOD
from repro.data import make_outlier_dataset
from repro.detectors import KNN, IsolationForest
from repro.serving import (
    ScoringClient,
    ServerConfig,
    ServerThread,
    read_frame_sync,
    write_frame_sync,
)
from repro.serving.protocol import IncompleteFrame, encode_array


@pytest.fixture(
    scope="module",
    params=[
        {"batch_wait_ms": 2.0},
        # Per-request execution: every batch is exactly one request.
        {"batch_max_rows": 1, "batch_wait_ms": 0.0},
    ],
    ids=["micro-batched", "per-request"],
)
def server(request, serving_model):
    config = ServerConfig(
        port=0,
        tenant_limits={"hot": (1.0, 1.0)},
        **request.param,
    )
    with ServerThread(serving_model, config) as handle:
        yield handle


@pytest.fixture
def client(server):
    with ScoringClient("127.0.0.1", server.port) as c:
        yield c


class TestScoring:
    def test_scores_bitwise_match_offline(self, client, serving_model, serving_rows):
        reply = client.score(serving_rows).require_ok()
        offline = serving_model.decision_function(serving_rows)
        assert reply.scores.tobytes() == offline.tobytes()

    def test_single_row_request(self, client, serving_model, serving_rows):
        reply = client.score(serving_rows[:1]).require_ok()
        offline = serving_model.decision_function(serving_rows[:1])
        assert reply.scores.tobytes() == offline.tobytes()

    def test_empty_request_is_ok(self, client):
        reply = client.score(np.empty((0, 6))).require_ok()
        assert reply.scores.shape == (0,)

    def test_pipelined_requests_on_one_connection(
        self, client, serving_model, serving_rows
    ):
        offline = serving_model.decision_function(serving_rows)
        for start in range(0, 12, 4):
            reply = client.score(serving_rows[start : start + 4]).require_ok()
            assert reply.scores.tobytes() == offline[start : start + 4].tobytes()

    def test_ping_and_stats(self, client):
        assert client.ping()
        stats = client.stats()
        assert stats["served_ok"] >= 0
        assert "batcher" in stats and "admission" in stats


class TestRejections:
    def test_shape_mismatch_wrong_width(self, client):
        reply = client.score(np.ones((2, 3)))
        assert (reply.code, reply.error) == (400, "shape_mismatch")

    def test_shape_mismatch_one_dimensional(self, client):
        reply = client.score(np.ones(6))
        assert (reply.code, reply.error) == (400, "shape_mismatch")

    def test_rate_limited_tenant_sees_429(self, client, serving_rows):
        hot = [
            client.score(serving_rows[:1], tenant="hot") for _ in range(4)
        ]
        codes = [r.code for r in hot]
        assert codes[0] == 200
        assert codes.count(429) == 3
        assert all(r.error == "rate_limited" for r in hot[1:])
        # The default tenant is not collateral damage.
        assert client.score(serving_rows[:1]).ok

    def test_deadline_below_floor_rejected_up_front(self, client, serving_rows):
        reply = client.score(serving_rows[:1], deadline_ms=0.25)
        assert (reply.code, reply.error) == (400, "deadline_too_tight")

    def test_unknown_op(self, client):
        header, _ = client._request({"op": "explode", "id": 1})
        assert header["code"] == 400 and header["error"] == "unknown_op"

    def test_bad_payload(self, client):
        header, _ = client._request(
            {"op": "score", "id": 2}, b"\x00not an npy\x00"
        )
        assert header["code"] == 400 and header["error"] == "bad_payload"

    def test_scoring_failure_returns_500(self, serving_model):
        class Broken:
            n_features_in_ = serving_model.n_features_in_

            @staticmethod
            def decision_function(X):
                raise RuntimeError("detector exploded")

        with ServerThread(Broken(), ServerConfig(port=0)) as handle:
            with ScoringClient("127.0.0.1", handle.port) as c:
                reply = c.score(np.ones((1, Broken.n_features_in_)))
        assert (reply.code, reply.error) == (500, "scoring_failed")


class TestOversizedPayload:
    def test_413_then_close(self, serving_model, serving_rows):
        config = ServerConfig(port=0, max_payload_bytes=256)
        with ServerThread(serving_model, config) as handle:
            with ScoringClient("127.0.0.1", handle.port) as c:
                reply = c.score(serving_rows)  # .npy body far over 256 B
                assert (reply.code, reply.error) == (413, "payload_too_large")
                # The stream cannot be resynchronised: server closes it.
                with pytest.raises(Exception):
                    c.score(serving_rows[:1]).require_ok()
            # A fresh, small request still works.
            with ScoringClient("127.0.0.1", handle.port) as c2:
                assert c2.ping()


class TestDisconnectMidBatch:
    @pytest.mark.parametrize(
        "cpus, batch_requests",
        [(1, 2), (2, 1)],
        ids=["one-worker-one-batch", "two-workers-two-batches"],
    )
    def test_batch_completes_for_remaining_requests(
        self, serving_model, serving_rows, monkeypatch, cpus, batch_requests
    ):
        """A client vanishing mid-batch must not poison its batchmates.

        One worker scores both requests in one batch; two workers are
        dealt one whole request each, and both batches complete.
        """
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        config = ServerConfig(port=0, batch_wait_ms=400.0)
        offline = serving_model.decision_function(serving_rows[:2])
        with ServerThread(serving_model, config) as handle:
            addr = ("127.0.0.1", handle.port)
            quitter = socket.create_connection(addr, timeout=10)
            stayer = socket.create_connection(addr, timeout=10)
            try:
                # Both requests land inside the same 400 ms batch window.
                write_frame_sync(
                    quitter,
                    {"op": "score", "id": 1, "tenant": "q"},
                    encode_array(serving_rows[:1]),
                )
                write_frame_sync(
                    stayer,
                    {"op": "score", "id": 2, "tenant": "s"},
                    encode_array(serving_rows[1:2]),
                )
                time.sleep(0.05)  # let both frames reach the queue
                quitter.close()  # vanish before the batch executes
                header, payload = read_frame_sync(stayer)
            finally:
                stayer.close()
            deadline = time.monotonic() + 10.0
            stats = handle.server.describe_stats()
            while (
                stats["served_ok"] + stats["dropped_responses"] < 3
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
                stats = handle.server.describe_stats()
        assert header["status"] == "ok"
        assert header["batch_requests"] == batch_requests
        assert stats["workers"] == cpus
        assert stats["batcher"]["batches"] == 3 - batch_requests
        from repro.serving.protocol import decode_array

        assert decode_array(payload).tobytes() == offline[1:2].tobytes()
        # Both requests were scored; the quitter's write was dropped,
        # counted, and harmless.
        assert stats["served_ok"] == 2
        assert stats["dropped_responses"] == 1


class TestWorkerKilledMidBatch:
    def test_batch_fails_next_request_ok_and_client_sees_eof(
        self, serving_model, serving_rows, tmp_path
    ):
        """SIGKILL the worker scoring a batch: that batch answers 500,
        the rebuilt pool answers the next request, and the respawned
        workers hold no client socket open."""
        pid_file = tmp_path / "worker.pid"

        class SlowOnPoison:
            n_features_in_ = serving_model.n_features_in_

            @staticmethod
            def decision_function(X):
                if X[0, 0] == 1e9:  # the poison row: wait to be killed
                    pid_file.write_text(str(os.getpid()))
                    time.sleep(60.0)
                return serving_model.decision_function(X)

        poison = np.full((1, serving_model.n_features_in_), 1e9)
        with ServerThread(SlowOnPoison(), ServerConfig(port=0)) as handle:
            addr = ("127.0.0.1", handle.port)
            with ScoringClient(*addr) as first:
                assert first.score(serving_rows[:2]).ok
                doomed = socket.create_connection(addr, timeout=10)
                write_frame_sync(
                    doomed, {"op": "score", "id": 1}, encode_array(poison)
                )
                deadline = time.monotonic() + 10.0
                while not pid_file.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                os.kill(int(pid_file.read_text()), signal.SIGKILL)
                header, _ = read_frame_sync(doomed)
                assert (header["code"], header["error"]) == (500, "scoring_failed")
                # The next batch forks a new pool while both connections
                # are open; its workers must not keep them alive.
                reply = first.score(serving_rows[:4]).require_ok()
                offline = serving_model.decision_function(serving_rows[:4])
                assert reply.scores.tobytes() == offline.tobytes()
                # A frame with a bad magic makes the server answer 400
                # and close: the client sees EOF while the workers live.
                doomed.sendall(b"XXXX" + bytes(12))
                header, _ = read_frame_sync(doomed)
                assert header["error"] == "bad_frame"
                with pytest.raises(IncompleteFrame) as eof:
                    read_frame_sync(doomed)
                assert eof.value.clean_eof
                doomed.close()
                stats = handle.server.describe_stats()
                handle.shutdown()
                with pytest.raises(IncompleteFrame) as eof:
                    read_frame_sync(first._sock)
                assert eof.value.clean_eof
        assert stats["errors"] == 1 and stats["served_ok"] == 2
        assert stats["batcher"]["failed_requests"] == 1


class TestModelWithItsOwnPool:
    @pytest.mark.parametrize("backend", ["threads", "shm_processes"])
    def test_serves_bitwise_and_drains(self, serving_rows, backend):
        """A model fitted with ``n_jobs=2`` holds a pool of its own; no
        scoring worker may inherit it (a forked executor has lost its
        threads, so a batch sent there would never return)."""
        X, _ = make_outlier_dataset(
            n_samples=240, n_features=6, contamination=0.1, random_state=11
        )
        model = SUOD(
            [
                IsolationForest(n_estimators=20, max_samples=64, random_state=0),
                KNN(n_neighbors=5),
            ],
            approx_flag_global=False,
            n_jobs=2,
            backend=backend,
            random_state=0,
        ).fit(X)
        try:
            offline = model.decision_function(serving_rows)
            with ServerThread(model, ServerConfig(port=0)) as handle:
                with ScoringClient("127.0.0.1", handle.port, timeout=20) as c:
                    for start in range(0, 48, 16):
                        rows = serving_rows[start : start + 16]
                        reply = c.score(rows).require_ok()
                        expected = offline[start : start + 16]
                        assert reply.scores.tobytes() == expected.tobytes()
                handle.shutdown()
                stats = handle.server.describe_stats()
        finally:
            model.close()
        assert stats["served_ok"] == 3 and stats["errors"] == 0


class TestDrain:
    def test_frame_read_as_the_drain_ends_is_answered_before_close(
        self, serving_model, serving_rows
    ):
        """A frame read once the batcher has stopped gets its 503 out
        before the drain closes the connection under it."""
        with ServerThread(serving_model, ServerConfig(port=0)) as handle:
            server = handle.server
            sock = socket.create_connection(("127.0.0.1", handle.port), timeout=10)
            close_batcher, serve_score = server.batcher.close, server._serve_score
            # The frame's task answers only once the drain goes on past
            # the batcher: the reply and the close are then in one race.
            gate = asyncio.Event()

            async def gated_serve_score(*args):
                await gate.wait()
                await serve_score(*args)

            async def close_then_read_one_more_frame():
                await close_batcher()
                write_frame_sync(
                    sock, {"op": "score", "id": 7}, encode_array(serving_rows[:1])
                )
                while not server._inflight:  # the server has read the frame
                    await asyncio.sleep(0.001)
                gate.set()

            server._serve_score = gated_serve_score
            server.batcher.close = close_then_read_one_more_frame
            try:
                write_frame_sync(sock, {"op": "ping", "id": 1})  # accepted
                assert read_frame_sync(sock)[0]["status"] == "ok"
                handle.shutdown()
                header, _ = read_frame_sync(sock)
            finally:
                sock.close()
            stats = server.describe_stats()
        assert (header["code"], header["error"]) == (503, "draining")
        assert stats["rejected"] == 1 and stats["dropped_responses"] == 0

    def test_shutdown_answers_before_exit(self, serving_model, serving_rows):
        with ServerThread(serving_model, ServerConfig(port=0)) as handle:
            with ScoringClient("127.0.0.1", handle.port) as c:
                c.score(serving_rows[:2]).require_ok()
            handle.shutdown()
            stats = handle.server.describe_stats()
        assert stats["draining"] is True
        assert stats["served_ok"] == 1
        # Idempotent: a second shutdown on a drained server is a no-op.
        handle.server.request_shutdown()
