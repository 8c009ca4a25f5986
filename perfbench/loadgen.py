"""Load generators: closed-loop session clients and the open-loop
``status`` ladder.

Closed loop: each client thread owns one connection and its own list of
sessions, and sends its next request only after the previous reply.

Open loop: requests are due on a fixed schedule whatever the server
does, from two connections. One stays open and carries one request at
a time, as the protocol's clients do (``CometClient`` serializes its
calls); the other opens a fresh connection (connect + TLS + HMAC auth)
for each request marked so, one at a time. Latency runs from a
request's due time, so a request due while its connection still waits
for a reply queues behind it and a server stall is charged to every
request it delays. How late the generator itself got to a request, apart
from such waits, is measured, reported, and taken out of that request's
latency; a rung where it exceeds its limit is not reported.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import ssl
import threading
import time
from dataclasses import dataclass, field

from repro.security import ROLE_CLIENT, compute_mac
from repro.service import CometClient, CometClientError

#: Seconds a single closed-loop request may take before it counts as a
#: timeout failure.
REQUEST_TIMEOUT_S = 120.0
#: Seconds the open-loop generator waits for a reply before counting
#: it as failed.
DRAIN_TIMEOUT_S = 10.0
#: Requests still unsent this long after a rung's last due time are shed.
SHED_AFTER_S = 0.05

#: Status fields that change with wall-clock time, not with the session.
VOLATILE_STATUS = ("elapsed_seconds", "running")


class Tally:
    """Thread-safe count of attempted and failed operations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._lock = threading.Lock()

    def add(self, ok: bool, what: str = "") -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(what)
        return ok


@dataclass
class SessionSpec:
    """One session a closed-loop client drives through its life."""

    name: str
    params: dict
    #: Counted in ``f1_gain_pp``; driven to completion even past the
    #: deadline.
    required: bool = False
    #: Left open (and checkpointed) for the restart phase.
    keep: bool = False


@dataclass
class Transcript:
    """Everything the server answered for one session (the output check
    compares it with an in-process reference)."""

    spec: SessionSpec
    recommend: list | None = None
    records: list = field(default_factory=list)
    status: dict | None = None
    finished: bool = False


def stable_status(status: dict) -> dict:
    return {k: v for k, v in status.items() if k not in VOLATILE_STATUS}


def open_client(port: int, security: dict | None = None) -> CometClient:
    security = security or {}
    return CometClient(
        port,
        timeout=REQUEST_TIMEOUT_S,
        tls=security.get("cafile"),
        auth_token=security.get("token"),
    )


def _call(client: CometClient, tally: Tally, request: dict) -> dict | None:
    """One request; ``None`` (and a failure) for ok:false or transport errors."""
    try:
        response = client.call(request)
    except (OSError, ValueError) as exc:
        tally.add(False, f"{request.get('action')}: {exc!r}")
        raise ConnectionError(str(exc)) from exc
    if tally.add(bool(response.get("ok")), f"{request}: {response.get('error')}"):
        return response["result"]
    return None


def drive_session(
    client: CometClient,
    spec: SessionSpec,
    tally: Tally,
    step_log: list,
    deadline: float | None = None,
) -> Transcript:
    """create -> recommend k=3 -> step until finished -> status [-> close].

    ``step_log`` collects the seconds each ``step`` took.
    Sessions that are not ``required`` stop stepping at ``deadline``.
    """
    out = Transcript(spec)
    if _call(client, tally, {"action": "create", "name": spec.name, "params": spec.params}) is None:
        return out
    result = _call(client, tally, {"action": "recommend", "name": spec.name, "k": 3})
    out.recommend = None if result is None else result["candidates"]
    while not out.finished:
        if deadline is not None and not spec.required and time.perf_counter() >= deadline:
            break
        started = time.perf_counter()
        result = _call(client, tally, {"action": "step", "name": spec.name})
        took = time.perf_counter() - started
        if result is None:
            break
        step_log.append(took)
        out.records.append(result["record"])
        out.finished = bool(result["finished"])
    result = _call(client, tally, {"action": "status", "name": spec.name})
    out.status = None if result is None else stable_status(result)
    if not spec.keep:
        _call(client, tally, {"action": "close", "name": spec.name})
    return out


def closed_loop(
    port: int,
    plans: list[list[SessionSpec]],
    seconds: float,
    tally: Tally,
    security: dict | None = None,
) -> tuple[list[Transcript], list, float]:
    """One thread and connection per plan; each runs its sessions in
    order until ``seconds`` have passed and its required sessions are done.

    Returns (transcripts, step log, wall seconds of the timed window).
    """
    transcripts: list[Transcript] = []
    step_log: list = []
    lock = threading.Lock()
    started = time.perf_counter()
    deadline = started + seconds
    ends: list[float] = []

    def client_loop(plan: list[SessionSpec]) -> None:
        mine: list[Transcript] = []
        log: list = []
        pending_required = sum(1 for s in plan if s.required)
        try:
            client = open_client(port, security)
        except (OSError, CometClientError) as exc:
            tally.add(False, f"connect: {exc!r}")
        else:
            with client:
                try:
                    for spec in plan:
                        if time.perf_counter() >= deadline and pending_required == 0:
                            break
                        mine.append(drive_session(client, spec, tally, log, deadline))
                        pending_required -= spec.required
                except ConnectionError:
                    pass  # counted as a failure where it happened
        with lock:
            transcripts.extend(mine)
            step_log.extend(log)
            ends.append(time.perf_counter())

    threads = [
        threading.Thread(target=client_loop, args=(plan,), daemon=True)
        for plan in plans
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return transcripts, step_log, max(ends) - started


# ---------------------------------------------------------------------- #
# open loop
# ---------------------------------------------------------------------- #
@dataclass
class Planned:
    """One scheduled ``status`` request of a rung."""

    due: float
    #: The encoded request line.
    payload: bytes
    #: Open a fresh connection (connect + TLS + auth) for this request.
    reconnect: bool
    #: Fields the reply must carry (per-session status), or the number
    #: of sessions a service-level status must list.
    expect: dict | int
    #: When the generator got to it, and how late it was through its
    #: own fault (not counting waits the server caused).
    sent_at: float = 0.0
    late: float = 0.0


@dataclass
class RungResult:
    rate: float
    #: (due, latency, fresh connection) per request; a failed request's
    #: latency is inf.
    samples: list = field(default_factory=list)
    lateness: list = field(default_factory=list)
    sent_at: list = field(default_factory=list)
    failed: int = 0
    reconnects: int = 0
    #: Requests still queued in the generator when the rung ended (the
    #: server fell behind); never sent, so neither attempted nor failed.
    shed: int = 0

    def add(self, planned: Planned, replied: float) -> None:
        """Record a reply (``replied`` is inf for a failure). Latency
        runs from the due time, less the generator's own lateness."""
        if not math.isfinite(replied):
            self.failed += 1
        latency = replied - planned.due - planned.late
        self.samples.append((planned.due, latency, planned.reconnect))
        self.sent_at.append(planned.sent_at)
        self.lateness.append(planned.late)

    @property
    def latencies(self) -> list:
        return [latency for _, latency, _ in self.samples]

    def achieved_rps(self) -> float:
        """The rate the generator actually sent at."""
        span = max(self.sent_at) - min(self.sent_at)
        return (len(self.sent_at) - 1) / span if span > 0 else 0.0

    def backlog_grew(self, limit: float) -> bool:
        """Whether either connection's queue grew over the rung: the
        median latency of its last fifth exceeds twice that of its
        first fifth plus ``limit`` (judged on 20 or more requests)."""
        for fresh in (False, True):
            ordered = [lat for _, lat, f in sorted(self.samples) if f == fresh]
            fifth = len(ordered) // 5
            if fifth < 4:
                continue
            first = sorted(ordered[:fifth])[fifth // 2]
            last = sorted(ordered[-fifth:])[fifth // 2]
            if last > 2 * first + limit:
                return True
        return False


def _check_status(reply: bytes, expect: dict | int) -> bool:
    try:
        response = json.loads(reply)
    except ValueError:
        return False
    if not response.get("ok"):
        return False
    result = response["result"]
    if isinstance(expect, int):
        return len(result.get("sessions", ())) == expect
    return all(result.get(k) == v for k, v in expect.items())


class _Slot:
    """One connection of the open-loop generator."""

    def __init__(self, port: int, security: dict | None, out: RungResult) -> None:
        self.port = port
        self.security = security or {}
        self.out = out
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None
        self.inflight: list[Planned] = []
        self.idle = asyncio.Event()
        self.idle.set()
        self.read_task: asyncio.Task | None = None
        self.tls: ssl.SSLContext | None = None
        if self.security.get("cafile"):
            self.tls = ssl.create_default_context(cafile=self.security["cafile"])

    async def connect(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1",
            self.port,
            ssl=self.tls,
            server_hostname="127.0.0.1" if self.tls else None,
            limit=1 << 22,
        )
        token = self.security.get("token")
        if token:
            self.writer.write(b'{"action":"auth"}\n')
            challenge = json.loads(await self.reader.readline())
            nonce = challenge["result"]["nonce"]
            proof = {"action": "auth", "mac": compute_mac(token, ROLE_CLIENT, nonce)}
            self.writer.write(json.dumps(proof).encode() + b"\n")
            if not json.loads(await self.reader.readline()).get("ok"):
                raise ConnectionError("auth rejected")
        self.read_task = asyncio.ensure_future(self._read_loop(self.reader))

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (OSError, ssl.SSLError):
                pass
        if self.read_task is not None:
            self.read_task.cancel()
            try:
                await self.read_task
            except (asyncio.CancelledError, OSError, ssl.SSLError):
                pass
        self.writer = self.reader = self.read_task = None

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            now = time.perf_counter()
            if not line:
                return
            planned = self.inflight.pop(0)
            ok = _check_status(line, planned.expect)
            self.out.add(planned, now if ok else math.inf)
            if not self.inflight:
                self.idle.set()

    async def run(self, schedule: list[Planned], end: float) -> None:
        """Send ``schedule`` on one connection kept open throughout, one
        request in flight at a time as the protocol's clients do; a
        request due while the previous one is unanswered waits for it.
        What is still unsent at ``end`` is shed."""
        server_wait_end = 0.0
        await self.connect()
        for i, planned in enumerate(schedule):
            if time.perf_counter() > end:
                self.out.shed += len(schedule) - i
                break
            delay = planned.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            if self.inflight:
                try:
                    await asyncio.wait_for(self.idle.wait(), DRAIN_TIMEOUT_S)
                except asyncio.TimeoutError:
                    self._lose_inflight()
                server_wait_end = time.perf_counter()
            planned.sent_at = time.perf_counter()
            planned.late = max(0.0, planned.sent_at - max(planned.due, server_wait_end))
            self.inflight.append(planned)
            self.idle.clear()
            self.writer.write(planned.payload)
        try:
            await asyncio.wait_for(self.idle.wait(), DRAIN_TIMEOUT_S)
        except asyncio.TimeoutError:
            pass
        self._lose_inflight()
        await self.close()

    async def run_fresh(self, schedule: list[Planned], end: float) -> None:
        """Each request on a fresh connection: connect + TLS + auth, send,
        read the reply, close - one at a time, so a slow handshake
        queues the fresh requests behind it. What is still unsent at
        ``end`` is shed."""
        server_wait_end = 0.0
        for i, planned in enumerate(schedule):
            if time.perf_counter() > end:
                self.out.shed += len(schedule) - i
                break
            delay = planned.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            planned.sent_at = time.perf_counter()
            planned.late = max(0.0, planned.sent_at - max(planned.due, server_wait_end))
            try:
                await asyncio.wait_for(self._one_shot(planned), DRAIN_TIMEOUT_S)
            except (OSError, ssl.SSLError, ValueError, KeyError, asyncio.TimeoutError):
                self._lose_inflight()
            await self.close()
            self.out.reconnects += 1
            server_wait_end = time.perf_counter()

    async def _one_shot(self, planned: Planned) -> None:
        await self.connect()
        self.inflight.append(planned)
        self.idle.clear()
        self.writer.write(planned.payload)
        await self.idle.wait()

    def _lose_inflight(self) -> None:
        for planned in self.inflight:
            self.out.add(planned, math.inf)
        self.inflight.clear()
        self.idle.set()


async def _run_rung(port, security, rate, schedule) -> RungResult:
    out = RungResult(rate)
    kept, fresh = _Slot(port, security, out), _Slot(port, security, out)
    end = schedule[-1].due + SHED_AFTER_S
    try:
        await asyncio.gather(
            kept.run([p for p in schedule if not p.reconnect], end),
            fresh.run_fresh([p for p in schedule if p.reconnect], end),
        )
    finally:
        await kept.close()
        await fresh.close()
    return out


def run_rung(port, security, rate, plan_fn) -> RungResult:
    """Run one open-loop rung from two connections: one kept open, the
    other opening a fresh connection for each request marked
    ``reconnect``. ``plan_fn(start)`` returns the schedule."""

    async def main() -> RungResult:
        return await _run_rung(port, security, rate, plan_fn(time.perf_counter() + 0.2))

    # A collector pause in the generator would read as generator lateness.
    gc.collect()
    gc.disable()
    try:
        return asyncio.run(main())
    finally:
        gc.enable()
