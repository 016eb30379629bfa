"""The ``gateway_64`` serving workload.

It runs two phases on one warm server:

* an **open loop** at a fixed interval, each request timed from the
  moment it was due, so a stall shows as latency of the requests queued
  behind it rather than as a lower offered load;
* a **closed loop** for throughput: both connections busy for the rest
  of the time, cut into passes of a fixed number of completions.

The two alternate, ``CYCLES`` times each per run.

The generator runs on its own thread and event loop; the program only
ever sees the generated inputs.
"""

from __future__ import annotations

import asyncio
import collections
import threading

import numpy as np

from repro.serve import (
    AsgiHttpServer,
    FFTServer,
    Gateway,
    GatewayPolicy,
    HttpClient,
    SubmitBody,
)

from pbench import oracle
from pbench.trace import _now

__all__ = ["GatewayWorkload", "PhaseResult"]


class PhaseResult:
    """What one run of the two phases observed."""

    def __init__(self) -> None:
        self.latencies: list[float] = []  # open loop, seconds from due time
        self.lags: list[float] = []  # generator lateness per open-loop send
        self.passes: list[tuple[float, int]] = []  # closed loop: (seconds, correct)
        self.attempted = 0
        self.failed = 0  # refused, errored or wrong output
        self.stats_before = None
        self.stats_after = None
        self.sim_seconds = 0.0


class GatewayWorkload:
    """``POST /v1/fft/wait`` of 64^3 single-precision grids over HTTP.

    The gateway runs ``AsgiHttpServer`` on its own thread and event loop;
    the generator drives two keep-alive connections from another thread
    and loop, so its timers are not starved by the server's work.
    """

    name = "gateway_64"
    #: Grid edge of the one plan key (single precision, forward).
    N = 64
    N_INPUTS = 4
    TENANTS = 4
    CONNECTIONS = 2
    #: Share of the measured time spent in the open loop, and its rate.
    OPEN_SHARE = 0.5
    OPEN_RPS = 12.0
    #: Open/closed phase pairs per run: both phases sample the whole run,
    #: not one stretch of a machine whose speed drifts over seconds.
    CYCLES = 4
    PASS_REQUESTS = 16
    MAX_JOBS = 64

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.tracer = None
        self._rid = 0

    def next_rid(self) -> int:
        self._rid += 1
        return self._rid

    def plan_shapes(self) -> list[tuple[int, int, int]]:
        return [(self.N,) * 3]

    def run(self, seconds: float, tracer=None) -> PhaseResult:
        self.tracer = tracer
        res = PhaseResult()
        res.stats_before = self.server.stats()
        sim0 = self.server.simulator.elapsed
        for _ in range(self.CYCLES):
            self.open_loop(seconds * self.OPEN_SHARE / self.CYCLES, res)
            self.closed_loop(seconds * (1 - self.OPEN_SHARE) / self.CYCLES, res)
        res.stats_after = self.server.stats()
        res.sim_seconds = self.server.simulator.elapsed - sim0
        self.tracer = None
        return res

    def setup(self) -> None:
        shape = (self.N,) * 3
        self.inputs = [
            (self.rng.standard_normal(shape) + 1j * self.rng.standard_normal(shape))
            .astype(np.complex64)
            for _ in range(self.N_INPUTS)
        ]
        self.bodies = [SubmitBody(shape, x).encode() for x in self.inputs]
        self.server = FFTServer(backend="auto")
        # Completed jobs stay pollable up to max_jobs, each holding its
        # 2 MB result; the default (65536) would let resident memory grow
        # with requests served instead of measuring the serving path.
        self.gateway = Gateway(self.server, policy=GatewayPolicy(max_jobs=self.MAX_JOBS))
        self.server_loop = _LoopThread("gateway")
        self.httpd = self.server_loop.run(AsgiHttpServer(self.gateway).start())
        self.gen_loop = _LoopThread("loadgen")
        port = self.httpd.port
        self.clients = [HttpClient("127.0.0.1", port) for _ in range(self.CONNECTIONS)]
        for c in self.clients:
            self.gen_loop.run(c.connect())
        resp = self.gen_loop.run(
            self.clients[0].request(
                "POST", "/v1/fft/wait", {"x-tenant": "tenant0"}, self.bodies[0]
            )
        )
        if resp.status != 200:
            raise RuntimeError(f"warm-up request answered {resp.status}: {resp.body[:200]!r}")

    def prepare(self) -> None:
        self.refs = [
            oracle.reference(x, "single", "backward", False).tobytes()
            for x in self.inputs
        ]

    def close(self) -> None:
        for c in self.clients:
            self.gen_loop.run(c.aclose())
        self.gen_loop.stop()
        self.server_loop.run(self.httpd.aclose())
        self.server_loop.stop()
        self.server.close()

    def _script(self, n: int):
        idxs = self.rng.integers(self.N_INPUTS, size=n)
        tenants = self.rng.integers(self.TENANTS, size=n)
        return [(int(i), f"tenant{t}") for i, t in zip(idxs, tenants)]

    async def _send(self, client, idx: int, tenant: str, res: PhaseResult):
        rid = self.next_rid()
        headers = {"x-tenant": tenant, "x-bench-rid": str(rid)}
        res.attempted += 1
        try:
            resp = await client.request("POST", "/v1/fft/wait", headers, self.bodies[idx])
        except (ConnectionError, asyncio.IncompleteReadError):
            res.failed += 1
            return rid, False
        if resp.status != 200 or resp.body != self.refs[idx]:
            res.failed += 1
            return rid, False
        return rid, True

    def open_loop(self, seconds: float, res: PhaseResult) -> None:
        script = self._script(max(1, int(seconds * self.OPEN_RPS)))

        async def generate() -> None:
            free: asyncio.Queue = asyncio.Queue()
            for c in self.clients:
                free.put_nowait(c)
            interval = 1.0 / self.OPEN_RPS
            t0 = _now() + 0.01

            async def one(client, due, idx, tenant):
                try:
                    rid, ok = await self._send(client, idx, tenant, res)
                finally:
                    free.put_nowait(client)
                done = _now()
                if ok:
                    res.latencies.append(done - due)
                    if self.tracer is not None:
                        self.tracer.record("request", due, done, (rid,))

            tasks = []
            for k, (idx, tenant) in enumerate(script):
                due = t0 + k * interval
                delay = due - _now()
                if delay > 0:
                    await asyncio.sleep(delay)
                res.lags.append(max(0.0, _now() - due))
                # A busy system delays the send, never the due time.
                client = await free.get()
                tasks.append(asyncio.create_task(one(client, due, idx, tenant)))
            await asyncio.gather(*tasks)

        self.gen_loop.run(generate())

    def closed_loop(self, seconds: float, res: PhaseResult) -> None:
        async def generate() -> None:
            start = _now()
            done: list[float] = []
            script: collections.deque = collections.deque()

            async def connection(client) -> None:
                while _now() - start < seconds:
                    if not script:
                        script.extend(self._script(self.PASS_REQUESTS))
                    idx, tenant = script.popleft()
                    if (await self._send(client, idx, tenant, res))[1]:
                        done.append(_now())

            await asyncio.gather(*(connection(c) for c in self.clients))
            res.passes.extend(_passes(start, done, self.PASS_REQUESTS))

        self.gen_loop.run(generate())


class _LoopThread:
    """An asyncio event loop running on its own daemon thread."""

    def __init__(self, name: str) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, name=f"pbench-{name}", daemon=True
        )
        self.thread.start()

    def run(self, coro, timeout: float = 170.0):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout)

    def stop(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        if not self.thread.is_alive():
            self.loop.close()


def _passes(start: float, done: list[float], size: int) -> list[tuple[float, int]]:
    """Closed-loop passes: how long each successive ``size`` correct completions took.

    The loop runs without a barrier between passes (one would resynchronise
    the connections and drain the coalescer every pass); a pass is cut
    from the stream of completion times instead.
    """
    done = sorted(done)
    marks = [start] + done[size - 1 :: size]
    if len(marks) < 2:  # not one full pass: report what completed
        return [((done[-1] if done else _now()) - start, len(done))]
    return [(b - a, size) for a, b in zip(marks, marks[1:])]
