"""The scoring server: asyncio front-end over the batch scoring library.

One process, three cooperating layers:

- **acceptor** — an ``asyncio.start_server`` loop reads length-prefixed
  frames off each connection (:mod:`repro.serving.protocol`), runs
  admission (:mod:`repro.serving.admission`), and queues admitted
  requests; each request is served by its own task, so one connection
  can pipeline many requests and a slow batch never blocks the reader.
- **batcher** — the :class:`~repro.serving.batcher.MicroBatcher` drains
  the queue into cost-model-sized micro-batches and scores each with a
  single ``decision_function`` call in one of its N forked worker
  processes (N = the CPUs this process may use), up to N batches at
  once. The workers are forked before the listener opens.
- **lifecycle** — ``run_until_shutdown`` installs SIGTERM/SIGINT
  handlers; shutdown is a *drain*: the listening socket closes first,
  every queued and in-flight request still gets its response, then the
  batcher joins its workers and remaining connections are torn down. A
  deployment can therefore roll the service without dropping accepted
  work.

The model is typically a v2 arena artifact via
:func:`repro.utils.persistence.load_ensemble`, whose kernel arenas are
read-only memmaps: the forked workers score off the parent's one
page-cache copy of them.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.serving.admission import AdmissionController
from repro.serving.batcher import (
    CostModelBatchPolicy,
    DeadlineExpired,
    MicroBatcher,
)
from repro.serving.protocol import (
    DEFAULT_MAX_PAYLOAD,
    IncompleteFrame,
    PayloadTooLarge,
    ProtocolError,
    decode_array,
    encode_array,
    encode_frame,
    read_frame,
)

__all__ = ["ServerConfig", "ScoringServer", "ServerThread"]


@dataclass
class ServerConfig:
    """Every serving-plane knob in one place (CLI flags mirror these)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port; read it back from the server
    # batching policy
    batch_max_rows: int = 4096
    batch_wait_ms: float = 5.0
    target_latency_ms: float = 50.0
    # admission control
    rate: float = 1000.0
    burst: float = 2000.0
    tenant_limits: dict[str, tuple[float, float]] = field(default_factory=dict)
    max_queue_rows: int = 65536
    # protocol / deadlines
    max_payload_bytes: int = DEFAULT_MAX_PAYLOAD
    default_deadline_ms: float | None = None
    drain_timeout_s: float = 30.0


@dataclass
class _ServerStats:
    served_ok: int = 0
    rejected: int = 0
    errors: int = 0
    dropped_responses: int = 0
    connections_total: int = 0


class ScoringServer:
    """Micro-batching scoring service around one fitted ensemble."""

    def __init__(self, model, config: ServerConfig | None = None):
        self.model = model
        self.config = config or ServerConfig()
        self.n_features = getattr(model, "n_features_in_", None)
        self.admission = AdmissionController(
            rate=self.config.rate,
            burst=self.config.burst,
            tenant_limits=self.config.tenant_limits,
            max_queue_rows=self.config.max_queue_rows,
        )
        self.batcher = MicroBatcher(
            model.decision_function,
            policy=CostModelBatchPolicy(
                target_latency_s=self.config.target_latency_ms / 1000.0,
                max_rows=self.config.batch_max_rows,
            ),
            max_wait_s=self.config.batch_wait_ms / 1000.0,
        )
        self.stats = _ServerStats()
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._draining = False
        self._shutdown = None
        self._inflight: set[asyncio.Task] = set()
        self._readers: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        self._started_t = time.monotonic()

    # -- lifecycle ------------------------------------------------------
    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> "ScoringServer":
        if self._server is not None:
            raise RuntimeError("server already started")
        self._shutdown = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        await self.batcher.start()  # forks: no socket exists yet
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        return self

    def request_shutdown(self) -> None:
        """Signal- and thread-safe trigger for the drain (idempotent)."""
        if self._shutdown is None:
            return
        if self._loop is not None and not self._loop.is_closed():
            # Works from signal handlers and foreign threads alike: the
            # event must be set on the loop's own thread to wake it.
            self._loop.call_soon_threadsafe(self._shutdown.set)
        else:
            self._shutdown.set()

    async def drain(self) -> None:
        """Stop accepting, answer everything accepted, then stop."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._inflight:
            done, pending = await asyncio.wait(
                self._inflight, timeout=self.config.drain_timeout_s
            )
            for task in pending:
                task.cancel()
        await self.batcher.close()
        # Stop reading, then let the 503s answering frames read during
        # the drain go out before the connections close under them.
        for task in list(self._readers):
            task.cancel()
        if self._readers:
            await asyncio.wait(self._readers)
        if self._inflight:
            await asyncio.wait(self._inflight, timeout=self.config.drain_timeout_s)
        for writer in list(self._writers):
            writer.close()

    async def run_until_shutdown(self, *, announce=None) -> None:
        """Start, announce readiness, serve until SIGTERM/SIGINT, drain."""
        await self.start()
        loop = asyncio.get_running_loop()
        installed = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_shutdown)
                installed.append(sig)
            except (NotImplementedError, RuntimeError):  # non-Unix loop
                pass
        try:
            if announce is not None:
                announce(self)
            await self._shutdown.wait()
            await self.drain()
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)

    # -- connection handling --------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        self.stats.connections_total += 1
        self._writers.add(writer)
        task = asyncio.current_task()
        self._readers.add(task)
        stopped_by_drain = False
        try:
            await self._read_loop(reader, writer, asyncio.Lock())
        except asyncio.CancelledError:
            if not self._draining:
                raise
            stopped_by_drain = True  # drain() closes it once replies are out
        finally:
            self._readers.discard(task)
            if not stopped_by_drain:
                self._writers.discard(writer)
                writer.close()
                with contextlib.suppress(OSError, ConnectionError):
                    await writer.wait_closed()

    async def _read_loop(self, reader, writer, lock) -> None:
        while True:
            try:
                frame = await read_frame(
                    reader, max_payload=self.config.max_payload_bytes
                )
            except PayloadTooLarge as exc:
                # The oversized body was never read, so the stream cannot
                # be resynchronised: answer 413 and close.
                await self._respond(
                    writer,
                    lock,
                    {
                        "status": "error",
                        "code": 413,
                        "error": "payload_too_large",
                        "detail": str(exc),
                    },
                )
                return
            except IncompleteFrame:
                return  # peer vanished mid-frame; nothing to answer
            except ProtocolError as exc:
                await self._respond(
                    writer,
                    lock,
                    {
                        "status": "error",
                        "code": 400,
                        "error": "bad_frame",
                        "detail": str(exc),
                    },
                )
                return
            if frame is None:
                return  # clean EOF between frames
            header, payload = frame
            op = header.get("op")
            if op == "score":
                task = asyncio.get_running_loop().create_task(
                    self._serve_score(header, payload, writer, lock)
                )
                self._inflight.add(task)
                task.add_done_callback(self._inflight.discard)
            elif op == "ping":
                await self._respond(
                    writer,
                    lock,
                    {"op": "ping", "id": header.get("id"), "status": "ok"},
                )
            elif op == "stats":
                await self._respond(
                    writer,
                    lock,
                    {
                        "op": "stats",
                        "id": header.get("id"),
                        "status": "ok",
                        "stats": self.describe_stats(),
                    },
                )
            else:
                await self._respond(
                    writer,
                    lock,
                    {
                        "id": header.get("id"),
                        "status": "error",
                        "code": 400,
                        "error": "unknown_op",
                        "detail": f"unsupported op {op!r}",
                    },
                )

    async def _serve_score(self, header, payload, writer, lock) -> None:
        reply = {"op": "score", "id": header.get("id")}
        tenant = str(header.get("tenant", "default"))
        try:
            X = decode_array(payload)
        except ProtocolError as exc:
            self.stats.errors += 1
            await self._respond(
                writer,
                lock,
                {**reply, "status": "error", "code": 400, "error": "bad_payload",
                 "detail": str(exc)},
            )
            return
        if X.ndim != 2 or (
            self.n_features is not None and X.shape[1] != self.n_features
        ):
            self.stats.errors += 1
            await self._respond(
                writer,
                lock,
                {
                    **reply,
                    "status": "error",
                    "code": 400,
                    "error": "shape_mismatch",
                    "detail": (
                        f"expected (n, {self.n_features}) float rows, "
                        f"got shape {list(X.shape)}"
                    ),
                },
            )
            return
        rows = np.ascontiguousarray(X, dtype=np.float64)
        if rows.shape[0] == 0:
            await self._respond(
                writer,
                lock,
                {**reply, "status": "ok", "batch_rows": 0, "batch_requests": 0,
                 "queue_ms": 0.0, "exec_ms": 0.0},
                encode_array(np.empty(0, dtype=np.float64)),
            )
            return
        if self._draining:
            self.stats.rejected += 1
            await self._respond(
                writer,
                lock,
                {**reply, "status": "error", "code": 503, "error": "draining",
                 "detail": "server is draining; retry against another replica"},
            )
            return
        deadline_ms = header.get("deadline_ms", self.config.default_deadline_ms)
        decision = self.admission.admit(
            tenant, rows.shape[0], self.batcher.queued_rows, deadline_ms
        )
        if not decision.admitted:
            self.stats.rejected += 1
            await self._respond(
                writer,
                lock,
                {**reply, "status": "error", "code": decision.code,
                 "error": decision.reason, "tenant": tenant},
            )
            return
        future = self.batcher.submit(
            rows,
            tenant=tenant,
            deadline_s=None if deadline_ms is None else deadline_ms / 1000.0,
        )
        try:
            result = await future
        except DeadlineExpired as exc:
            self.stats.rejected += 1
            await self._respond(
                writer,
                lock,
                {**reply, "status": "error", "code": 408,
                 "error": "deadline_expired", "detail": str(exc)},
            )
            return
        except Exception as exc:
            self.stats.errors += 1
            await self._respond(
                writer,
                lock,
                {**reply, "status": "error", "code": 500,
                 "error": "scoring_failed", "detail": f"{type(exc).__name__}: {exc}"},
            )
            return
        self.stats.served_ok += 1
        await self._respond(
            writer,
            lock,
            {
                **reply,
                "status": "ok",
                "batch_rows": result.batch_rows,
                "batch_requests": result.batch_requests,
                "queue_ms": result.queue_s * 1000.0,
                "exec_ms": result.exec_s * 1000.0,
            },
            encode_array(result.scores),
        )

    async def _respond(self, writer, lock, header, payload: bytes = b"") -> None:
        """Write one response frame; a vanished client is not an error.

        A client that disconnects mid-batch must not poison the batch:
        its rows were already scored with everyone else's, so the only
        casualty is this write — counted, swallowed, and the loop moves
        on to the next response.
        """
        frame = encode_frame(header, payload)
        async with lock:
            try:
                writer.write(frame)
                await writer.drain()
            except (ConnectionError, OSError):
                self.stats.dropped_responses += 1

    # -- observability ---------------------------------------------------
    def describe_stats(self) -> dict:
        return {
            "uptime_s": time.monotonic() - self._started_t,
            "draining": self._draining,
            "n_features": self.n_features,
            "served_ok": self.stats.served_ok,
            "rejected": self.stats.rejected,
            "errors": self.stats.errors,
            "dropped_responses": self.stats.dropped_responses,
            "connections_total": self.stats.connections_total,
            # Scoring processes; batcher.exec_s_total sums over them.
            "workers": self.batcher.n_workers,
            "queued_rows": self.batcher.queued_rows,
            "queued_requests": self.batcher.queued_requests,
            "batcher": self.batcher.stats.to_dict(),
            "admission": self.admission.stats(),
        }


class ServerThread:
    """A :class:`ScoringServer` on a daemon thread with its own loop.

    For embedding (tests, benchmarks, notebooks): the caller's thread
    stays synchronous, the server runs its event loop elsewhere, and
    ``shutdown()`` performs the same drain SIGTERM would.

    Usage::

        with ServerThread(model, config) as handle:
            client = ScoringClient("127.0.0.1", handle.port)
            ...
    """

    def __init__(self, model, config: ServerConfig | None = None):
        self.server = ScoringServer(model, config)
        self._ready = threading.Event()
        self._port: int | None = None
        self._error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._main, name="repro-serve", daemon=True
        )

    def _main(self) -> None:
        try:
            asyncio.run(self.server.run_until_shutdown(announce=self._announce))
        except BaseException as exc:  # surfaced to the joining thread
            self._error = exc
            self._ready.set()

    def _announce(self, server: ScoringServer) -> None:
        self._port = server.port
        self._ready.set()

    def start(self, timeout: float = 30.0) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout):
            raise TimeoutError("server did not become ready in time")
        if self._error is not None:
            raise RuntimeError("server failed to start") from self._error
        return self

    @property
    def port(self) -> int:
        if self._port is None:
            raise RuntimeError("server is not ready")
        return self._port

    def shutdown(self, timeout: float = 30.0) -> None:
        self.server.request_shutdown()
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise TimeoutError("server drain did not finish in time")

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        if self._thread.is_alive():
            self.shutdown()
