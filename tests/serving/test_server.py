"""End-to-end server behaviour over real sockets (in-process thread)."""

import socket
import time

import numpy as np
import pytest

from repro.serving import (
    ScoringClient,
    ServerConfig,
    ServerThread,
    read_frame_sync,
    write_frame_sync,
)
from repro.serving.protocol import encode_array


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
    def test_batch_completes_for_remaining_requests(
        self, serving_model, serving_rows
    ):
        """A client vanishing mid-batch must not poison its batchmates."""
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
        assert header["batch_requests"] == 2  # the quitter rode along
        from repro.serving.protocol import decode_array

        assert decode_array(payload).tobytes() == offline[1:2].tobytes()
        # Both requests were scored; the quitter's write was dropped,
        # counted, and harmless.
        assert stats["served_ok"] == 2
        assert stats["dropped_responses"] == 1


class TestDrain:
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
