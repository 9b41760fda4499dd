"""The two serve workloads: a real server process and an asyncio load generator.

The server is ``python -m repro serve`` on port 0 with admission limits
lifted above the offered load (admission stays on the path, rejects
nothing). The load generator is this process: ``CONNECTIONS`` pipelined
sockets speaking ``repro.serving.protocol`` frames. Every wait is
bounded, the server is stopped in ``finally``, and a phase that gets
stuck turns into counted failures, never a hung run.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench.batch import timed_fits
from perfbench.measure import Samples, now, proc_status_mb, windows
from perfbench.spans import Tracer
from perfbench.workloads import Workload
from repro import save_ensemble
from repro.metrics.ranking import roc_auc_score
from repro.serving.protocol import (
    decode_array,
    encode_array,
    encode_frame,
    read_frame,
)

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
CONNECT_TIMEOUT_S = 10.0
#: Load-generator sockets: one per core of the 2-core box.
CONNECTIONS = 2
#: Added to a phase's planned length before it is declared stuck.
PHASE_GRACE_S = 30.0
_READY = re.compile(r"^REPRO-SERVE READY host=\S+ port=(\d+) pid=(\d+)")


class ServerProcess:
    """``python -m repro serve`` as a child; stdout drained by a thread."""

    def __init__(self, artifact: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC_ROOT), env.get("PYTHONPATH")) if p
        )
        self.lines: list[str] = []
        self.port: int | None = None
        self.pid: int | None = None
        self._ready = threading.Event()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--artifact", str(artifact)]
            + ["--port", "0", "--rate", "1e9", "--burst", "1e9"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        self._pump = threading.Thread(target=self._drain_stdout, daemon=True)
        self._pump.start()

    def _drain_stdout(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line.rstrip("\n"))
            match = _READY.match(line)
            if match:
                self.port, self.pid = int(match.group(1)), int(match.group(2))
                self._ready.set()
        self._ready.set()  # EOF: wake the waiter even if READY never came

    def wait_ready(self) -> int:
        if not self._ready.wait(READY_TIMEOUT_S) or self.port is None:
            tail = "\n".join(self.lines[-20:])
            raise RuntimeError(f"server never printed its READY line:\n{tail}")
        return self.port

    def stop(self) -> bool:
        """SIGTERM and wait; ``True`` iff it drained and exited 0."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            return False
        self._pump.join(timeout=STOP_TIMEOUT_S)
        drained = any(ln.startswith("REPRO-SERVE DRAINED") for ln in self.lines)
        return code == 0 and drained

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._pump.join(timeout=STOP_TIMEOUT_S)


class Connection:
    """One pipelined socket; a pump task resolves replies by request id."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer
        self.waiters: dict[int, asyncio.Future] = {}
        self.pump = asyncio.get_running_loop().create_task(self._pump())

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection("127.0.0.1", port), CONNECT_TIMEOUT_S
        )
        sock = writer.get_extra_info("socket")
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return cls(reader, writer)

    async def _pump(self) -> None:
        error: BaseException = ConnectionError("server closed the connection")
        try:
            while True:
                frame = await read_frame(self.reader)
                if frame is None:
                    break
                arrived = now()
                waiter = self.waiters.pop(frame[0].get("id"), None)
                if waiter is not None and not waiter.done():
                    waiter.set_result((frame[0], frame[1], arrived))
        except (OSError, ValueError) as exc:  # ProtocolError is a ValueError
            error = exc
        for waiter in self.waiters.values():
            if not waiter.done():
                waiter.set_exception(error)
        self.waiters.clear()

    def send(self, request_id: int, header: dict, payload: bytes = b""):
        """Write one request; the returned future resolves to
        ``(reply header, reply payload, arrival time)``."""
        waiter = asyncio.get_running_loop().create_future()
        if self.pump.done():
            waiter.set_exception(ConnectionError("connection is closed"))
            return waiter
        self.waiters[request_id] = waiter
        self.writer.write(encode_frame({**header, "id": request_id}, payload))
        return waiter

    async def close(self) -> None:
        self.pump.cancel()
        self.writer.close()
        try:
            await asyncio.wait_for(self.writer.wait_closed(), CONNECT_TIMEOUT_S)
        except (OSError, asyncio.TimeoutError):
            pass


@dataclass
class Request:
    """One request as the client saw it (times on the client clock)."""

    block: int  # which pre-encoded payload it carried
    due: float  # when it was scheduled to be sent (closed loop: sent)
    sent: float
    done: float = float("nan")
    header: dict | None = None
    payload: bytes = b""
    error: str | None = None


@dataclass
class Phase:
    name: str
    t_start: float = 0.0
    requests: list = field(default_factory=list)


_SCORE = {"op": "score", "tenant": "perfbench"}


def _record(request: Request, waiter: asyncio.Future) -> None:
    """Done-callback: copy a reply (or its failure) onto the request."""
    if waiter.cancelled():
        return
    error = waiter.exception()
    if error is not None:
        request.error = repr(error)
    else:
        request.header, request.payload, request.done = waiter.result()


class LoadGenerator:
    """Open- and closed-loop phases over a fixed set of connections."""

    def __init__(self, connections, payloads):
        self.connections = connections
        self.payloads = payloads
        self._ids = itertools.count(1)

    def _send(self, conn: Connection, request: Request) -> asyncio.Future:
        waiter = conn.send(next(self._ids), _SCORE, self.payloads[request.block])
        waiter.add_done_callback(functools.partial(_record, request))
        return waiter

    async def _bounded(self, phase: Phase, body, planned_s: float) -> Phase:
        """Run ``body`` under the phase's one timeout; a stuck phase
        leaves its unanswered requests marked as failures."""
        phase.t_start = now()
        try:
            await asyncio.wait_for(body, planned_s + PHASE_GRACE_S)
        except asyncio.TimeoutError:
            for request in phase.requests:
                if request.header is None and request.error is None:
                    request.error = "timed out"
        return phase

    async def open_loop(self, name: str, rps: float, seconds: float) -> Phase:
        """Send on a fixed schedule regardless of replies (independent
        users); latency is later taken from each request's *due* time."""
        phase = Phase(name)
        n_requests = max(2, int(rps * seconds))

        async def body():
            t0 = now() + 0.02
            pending = []
            for i in range(n_requests):
                due = t0 + i / rps
                delay = due - now()
                if delay > 0.0:
                    await asyncio.sleep(delay)
                conn = self.connections[i % len(self.connections)]
                request = Request(i % len(self.payloads), due, now())
                phase.requests.append(request)
                pending.append(self._send(conn, request))
                await conn.writer.drain()
            await asyncio.gather(*pending, return_exceptions=True)

        return await self._bounded(phase, body(), seconds)

    async def closed_loop(
        self, name: str, inflight: int, *, seconds=None, count=None
    ) -> Phase:
        """``inflight`` callers per connection, each waiting for its reply
        before sending the next request; ends after ``seconds`` or after
        ``count`` requests, whichever is given."""
        phase = Phase(name)
        serial = itertools.count()

        async def caller(conn, t_stop):
            while True:
                i = next(serial)
                if (count is not None and i >= count) or (
                    t_stop is not None and now() >= t_stop
                ):
                    return
                sent = now()
                request = Request(i % len(self.payloads), sent, sent)
                phase.requests.append(request)
                waiter = self._send(conn, request)
                await conn.writer.drain()
                try:
                    await waiter
                except (OSError, ValueError):
                    return  # a dead connection must not spin

        async def body():
            t_stop = None if seconds is None else now() + seconds
            await asyncio.gather(
                *(
                    caller(conn, t_stop)
                    for conn in self.connections
                    for _ in range(inflight)
                )
            )

        return await self._bounded(phase, body(), seconds or 0.0)

    async def stats(self) -> dict:
        """The server's ``stats`` op (empty on any failure)."""
        waiter = self.connections[0].send(next(self._ids), {"op": "stats"})
        try:
            header, _, _ = await asyncio.wait_for(waiter, CONNECT_TIMEOUT_S)
        except (OSError, ValueError, asyncio.TimeoutError):
            return {}
        return header.get("stats", {})


#: Spans of one server lifetime that count as set-up, not as measurement.
SETUP_SPANS = (
    "memory.save_ensemble",
    "server.boot",
    "loadgen.connect",
    "loadgen.warmup",
    "server.drain",
)


@dataclass
class ServeSession:
    """Everything one server lifetime produced; timings live in ``tracer``."""

    tracer: Tracer
    phases: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    rss_warm_mb: float = float("nan")
    rss_end_mb: float = float("nan")
    peak_rss_mb: float = float("nan")
    clean_exit: bool = False

    def seconds(self, span_name: str) -> float:
        return sum(self.tracer.duration(span_name))

    @property
    def setup_s(self) -> float:
        return sum(self.seconds(name) for name in SETUP_SPANS)


@dataclass(frozen=True)
class Plan:
    """What the load generator does against one server."""

    warmup_requests: int
    open_rps: float
    open_s: float
    inflight: int
    closed_s: float


def plan_for(wl: Workload, seconds: float, rows: int, *, traced: bool) -> Plan:
    """A round's plan. The untraced pass of a workload without an open
    phase (``open_share == 0``) skips it; the traced pass always runs a
    short one so the open-loop layer metrics exist on every workload."""
    per_round = seconds / wl.rounds
    open_share = wl.open_share or (0.25 if traced else 0.0)
    return Plan(
        warmup_requests=300 if rows == 1 else 24,
        open_rps=wl.open_rps,
        open_s=per_round * open_share,
        inflight=wl.inflight,
        closed_s=per_round * wl.closed_share,
    )


async def _drive(port: int, pid: int, payloads, plan: Plan, session: ServeSession):
    span = session.tracer.span
    connections = []
    try:
        with span("loadgen.connect"):
            for _ in range(CONNECTIONS):
                connections.append(await Connection.open(port))
        gen = LoadGenerator(connections, payloads)
        with span("loadgen.warmup"):
            session.phases["warmup"] = await gen.closed_loop(
                "warmup", plan.inflight, count=plan.warmup_requests
            )
        session.rss_warm_mb = proc_status_mb(pid, "VmRSS")
        with span("loadgen.closed"):
            session.phases["closed"] = await gen.closed_loop(
                "closed", plan.inflight, seconds=plan.closed_s
            )
        # The open loop follows the saturating closed loop so that the
        # server's batch-size policy (an EMA with memory) has been
        # calibrated under load before latency is taken.
        if plan.open_s > 0.0:
            with span("loadgen.open"):
                session.phases["open"] = await gen.open_loop(
                    "open", plan.open_rps, plan.open_s
                )
        session.stats = await gen.stats()
        session.rss_end_mb = proc_status_mb(pid, "VmRSS")
        session.peak_rss_mb = proc_status_mb(pid, "VmHWM")
    finally:
        for conn in connections:
            await conn.close()


def serve_session(model, payloads, plan: Plan, out_dir: Path, tracer: Tracer):
    """Save ``model``, boot a server on it, run ``plan``, drain the server."""
    session = ServeSession(tracer)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        artifact = Path(tmp) / "ensemble.repro"
        with tracer.span("memory.save_ensemble"):
            save_ensemble(model, artifact)
        server = None
        try:
            with tracer.span("server.boot"):
                server = ServerProcess(artifact)
                port = server.wait_ready()
            asyncio.run(_drive(port, server.pid, payloads, plan, session))
            with tracer.span("server.drain"):
                session.clean_exit = server.stop()
        finally:
            if server is not None:
                server.kill()
    return session


class OfflineReference:
    """Offline ``decision_function`` scores the served ones must equal.

    Scoring is row-separable bitwise for calls of two or more rows, so
    one full-array call serves as the reference for every reply whose
    micro-batch held several rows. A micro-batch of exactly one row is
    compared with an offline one-row call instead: with eight or more
    models ``SUOD`` combines an ``(m, 1)`` matrix through numpy's
    pairwise-summation path and the last bit differs from the ``(m, n)``
    path on ~40 % of rows (README, "Findings"). The reply header's
    ``batch_rows`` says which case a reply is.
    """

    def __init__(self, model, X_test, rows: int):
        self.model, self.X_test, self.rows = model, X_test, rows
        self.full = model.decision_function(X_test)
        self._alone: dict[int, np.ndarray] = {}

    def expected(self, block: int, batch_rows: int) -> np.ndarray:
        lo = block * self.rows
        if batch_rows > 1:
            return self.full[lo : lo + self.rows]
        if block not in self._alone:
            self._alone[block] = self.model.decision_function(
                self.X_test[lo : lo + self.rows]
            )
        return self._alone[block]


def check_replies(phase: Phase, reference, samples: Samples) -> None:
    """Each reply must be ``ok`` and bitwise equal to ``reference``
    (an :class:`OfflineReference`); with ``reference=None`` only the
    status and the finiteness of the scores are checked."""
    for request in phase.requests:
        if request.header is None:
            samples.check(False, f"{phase.name}: no reply ({request.error})")
        elif request.header.get("status") != "ok":
            samples.check(False, f"{phase.name}: reply {request.header}")
        else:
            scores = decode_array(request.payload)
            if reference is None:
                samples.check(
                    bool(np.isfinite(scores).all()), f"{phase.name}: non-finite"
                )
                continue
            want = reference.expected(request.block, request.header["batch_rows"])
            samples.check(
                np.array_equal(scores, want),
                f"{phase.name}: scores differ from offline "
                f"(batch_rows={request.header['batch_rows']})",
            )


def check_session(session: ServeSession, samples: Samples) -> None:
    """Server-side gates: nothing rejected, clean drain and exit."""
    samples.check(
        session.stats.get("rejected", -1) == 0,
        f"admission.rejected = {session.stats.get('rejected')!r}",
    )
    samples.check(session.clean_exit, "server did not drain and exit 0")


def phase_windows(phase: Phase, rows: int, size: int):
    """``(rows/s, p50 ms)`` per window of ``size`` answered requests;
    latency runs from a request's due time to its reply."""
    answered = [r for r in phase.requests if r.header is not None]
    return windows(
        [r.done for r in answered],
        [(r.done - r.due) * 1000.0 for r in answered],
        rows,
        phase.t_start,
        size,
    )


def encode_blocks(X_test, rows: int) -> list[bytes]:
    """One ``.npy`` payload per consecutive ``rows``-row block."""
    return [
        encode_array(np.ascontiguousarray(X_test[i : i + rows], dtype=np.float64))
        for i in range(0, len(X_test) - rows + 1, rows)
    ]


def run_serve(
    wl: Workload, seed: int, seconds: float, quick: bool, out_dir: Path
) -> Samples:
    """All rounds of a serve workload, reduced by the caller."""
    samples = Samples()
    rows = (wl.quick_shape if quick else wl.shape).request_rows
    plan = plan_for(wl, seconds, rows, traced=False)
    timed = "open" if plan.open_s > 0.0 else "closed"
    for _ in range(wl.rounds):
        t0 = now()
        X_train, X_test, y_test = wl.data(seed, quick)
        payloads = encode_blocks(X_test, rows)
        setup = now() - t0
        model, around = timed_fits(wl, seed, X_train, samples)
        reference = OfflineReference(model, X_test, rows)  # untimed
        session = serve_session(model, payloads, plan, out_dir, Tracer(wl.name))
        samples.setup_s.append(setup + around + session.setup_s)
        samples.rss_mb.append(session.peak_rss_mb)
        for phase in session.phases.values():
            check_replies(phase, reference, samples)
        check_session(session, samples)
        rates = phase_windows(session.phases["closed"], rows, wl.window_requests)
        samples.window_rows_per_s += [rate for rate, _ in rates]
        latencies = phase_windows(session.phases[timed], rows, wl.window_requests)
        samples.window_p50_ms += [p50 for _, p50 in latencies]
    samples.check_roc_auc(roc_auc_score(y_test, reference.full))
    return samples
