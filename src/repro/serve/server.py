"""`FFTServer`: the service front door over the simulated FFT stack.

Many concurrent clients submit :class:`~repro.serve.request.FFTRequest`
objects; one dispatcher keeps the (simulated) device saturated::

    submit() ──admission──► PendingQueue ──coalesce──► FairScheduler
                                 │                          │
                       typed rejections              batch per plan key
                                 ▲ re-queue                 │
                                 │ (worker loss)            ▼
                             FFTFuture ◄──results── BatchedGpuFFT3D
                                                    (one per worker x plan key)

Key properties:

* **One device thread per worker.**  All simulator work happens on the
  dispatcher (or the caller of :meth:`FFTServer.run_pending` in
  synchronous mode), so the engines and the simulated timeline need no
  internal locking.
* **Deterministic results.**  A request's transform rides the exact
  same plan objects as a standalone
  :class:`~repro.core.api.GpuFFT3D`/:class:`~repro.core.batch.BatchedGpuFFT3D`
  run — results are bit-identical to the unserved path regardless of
  which batch the coalescer formed or which worker (or re-dispatch)
  executed it.
* **Typed failure surface.**  Everything the server refuses or abandons
  is a :mod:`repro.serve.errors` class and a metrics counter; no
  request is ever both rejected and executed, and every admitted
  request resolves — worker deaths re-queue their in-flight work
  instead of stranding it.
* **Worker health.**  Each worker owns a circuit breaker driven by
  batch outcomes and synthetic probes
  (:class:`~repro.serve.health.HealthMonitor`): a dying card is ejected,
  cools down, is probed, and re-admitted through probation; while every
  card is out the server degrades to the host path rather than stall.
* **Observability.**  With a ``profiler=`` attached, every dispatch is
  traced through the simulator (spans tagged ``serve_batch``) and the
  ``serve.*`` metric family (queue depth, waits, batch sizes, shed and
  expiry counts, re-queues, per-worker health) lands in the same
  registry as the device-level metrics.
"""

from __future__ import annotations

import os
import queue as _queue
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import count
from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.batch import BatchedGpuFFT3D
from repro.core.estimator import estimate_batch_pipelined
from repro.core.resilient import ResilienceReport, RetryPolicy
from repro.gpu.faults import DeviceLostError, FaultError, FaultInjector
from repro.gpu.simulator import DeviceSimulator
from repro.gpu.specs import DeviceSpec, GEFORCE_8800_GTX
from repro.obs.metrics import MetricsRegistry
from repro.serve.admission import AdmissionController, AdmissionPolicy
from repro.serve.coalescer import CoalescePolicy, Coalescer
from repro.serve.errors import (
    DeadlineExpiredError,
    DrainingError,
    InfeasibleDeadlineError,
    RejectedError,
    RequeueExhaustedError,
    ServeError,
    ServerClosedError,
)
from repro.serve.health import HealthMonitor, HealthPolicy, run_probe
from repro.serve.queueing import PendingQueue, Ticket
from repro.serve.request import FFTFuture, FFTRequest, PlanKey
from repro.serve.scheduler import FairScheduler, SchedulerPolicy

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.obs.profiler import Profiler

__all__ = ["ServeStats", "FFTServer"]

#: Parking interval for the dispatcher when nothing is ripe; bounds how
#: late it notices drain/stop flags set without a queue notification.
_PARK_S = 0.05


@dataclass
class ServeStats:
    """Point-in-time account of everything the server has decided.

    Counters are lifetime totals; ``queue_depth``/``inflight`` are the
    live values at snapshot time.  ``rejected`` is keyed by the typed
    error's ``reason`` slug, ``per_tenant_completed`` by tenant id,
    ``worker_health`` by worker id (empty with health monitoring off).
    """

    submitted: int = 0
    completed: int = 0
    expired: int = 0
    failed: int = 0
    batches: int = 0
    #: Requests returned to the queue after a worker/batch failure.
    requeued: int = 0
    rejected: dict[str, int] = field(default_factory=dict)
    per_tenant_completed: dict[str, int] = field(default_factory=dict)
    queue_depth: int = 0
    inflight: int = 0
    device_elapsed_s: float = 0.0
    #: Simulated seconds per worker card; with ``n_workers == 1`` this is
    #: ``{0: device_elapsed_s}``.
    worker_elapsed_s: dict[int, float] = field(default_factory=dict)
    #: Health state per worker (``healthy``/``degraded``/``ejected``/
    #: ``probation``); empty when health monitoring is disabled.
    worker_health: dict[int, str] = field(default_factory=dict)

    @property
    def rejected_total(self) -> int:
        """Admission rejections across every reason."""
        return sum(self.rejected.values())

    @property
    def accepted(self) -> int:
        """Requests that made it past admission."""
        return self.submitted - self.rejected_total


class FFTServer:
    """Dynamic-batching, multi-tenant front door for 3-D FFT requests.

    Parameters
    ----------
    device / simulator / precision-free:
        The simulated card all dispatches share; one is created when not
        given.  Plan parameters come per-request.
    admission:
        :class:`~repro.serve.admission.AdmissionPolicy` (quotas, deadline
        feasibility); ``max_depth`` bounds the pending queue.
    coalesce:
        :class:`~repro.serve.coalescer.CoalescePolicy` — batch cap and
        the max-wait window.  ``max_batch=1`` is the request-at-a-time
        baseline.
    scheduler:
        :class:`~repro.serve.scheduler.SchedulerPolicy` (hopeless-drop).
    n_streams:
        Pipeline depth handed to each per-key batch engine.
    n_workers:
        Independent dispatch workers.  The default of 1 keeps today's
        single-device behavior exactly.  With more, each worker owns its
        own simulated card (``simulator`` / the implicit front simulator
        is worker 0's, and remains the admission/deadline clock) and its
        own engines, so independent coalesced batches execute
        concurrently; results stay bit-identical because each batch
        rides the same plan objects regardless of which worker runs it.
    serial_dispatch:
        With ``n_workers > 1``, skip the thread pool and execute every
        batch inline on the dispatching thread, claiming workers
        round-robin.  Fault streams, health transitions and worker
        assignment then depend only on submission order — the mode the
        seeded chaos drill (:mod:`repro.serve.chaos`) runs in.
    pooling:
        Forwarded to every engine: True (default) runs the
        workspace-pooled zero-allocation host path, False the seed
        allocate-per-step path (results are bit-identical; see
        ``benchmarks/bench_hostpath.py``).
    fault_injector / retry_policy:
        Fault injection and retry bounds forwarded to every engine.
        With ``n_workers > 1`` a single injector is
        :meth:`~repro.gpu.faults.FaultInjector.split` into independently
        seeded per-worker children (injector state models a single
        card); a sequence of exactly ``n_workers`` injectors scopes each
        worker explicitly.  Per-batch recovery (retries, host
        degradation) is the engines' existing resilient machinery;
        device losses surface to the health layer when it is on.
    health:
        Worker health monitoring.  ``None`` (default) enables it with
        the default :class:`~repro.serve.health.HealthPolicy`; pass a
        policy to tune thresholds, or ``False`` to disable (legacy
        behavior: engines absorb device losses internally and nothing is
        ever ejected or re-queued).
    profiler:
        Optional :class:`repro.obs.Profiler`; serve metrics land in its
        registry and dispatches are traced via the shared simulator.
    start:
        When True (default) a daemon dispatcher thread runs the queue;
        when False the caller drives dispatch with :meth:`run_pending`
        (fully deterministic — used by tests and benchmarks).
    max_resident_plans:
        Engines (and their device buffers) kept warm at once; least
        recently used engines past the bound release their buffers.
    clock:
        Wall-clock source for the coalescing window (injectable for
        tests).
    backend:
        Compute backend forwarded to every engine (``"numpy"`` default,
        ``"numba"``/``"cjit"``/``"auto"`` — :mod:`repro.jit`).  The
        numba and cjit kernels release the GIL, so with ``n_workers > 1``
        the per-worker compute permits become real parallel compute
        instead of interleaved interpretation.
    """

    def __init__(
        self,
        device: DeviceSpec = GEFORCE_8800_GTX,
        simulator: DeviceSimulator | None = None,
        admission: AdmissionPolicy | None = None,
        coalesce: CoalescePolicy | None = None,
        scheduler: SchedulerPolicy | None = None,
        max_depth: int = 256,
        n_streams: int = 3,
        n_workers: int = 1,
        serial_dispatch: bool = False,
        pooling: bool = True,
        fault_injector: FaultInjector | Sequence[FaultInjector] | None = None,
        retry_policy: RetryPolicy | None = None,
        health: HealthPolicy | bool | None = None,
        profiler: Profiler | None = None,
        start: bool = True,
        name: str = "serve",
        max_resident_plans: int = 8,
        clock: Callable[[], float] = time.monotonic,
        backend: str = "numpy",
    ):
        self.device = device
        self.backend = backend
        if n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        self.n_workers = n_workers
        self.serial_dispatch = serial_dispatch
        # One injector per worker: a single injector models a single
        # card, so with several workers it is split into independently
        # seeded children (or the caller scopes each worker explicitly).
        self._injectors: list[FaultInjector | None]
        if fault_injector is None:
            self._injectors = [None] * n_workers
        elif isinstance(fault_injector, FaultInjector):
            self._injectors = (
                [fault_injector]
                if n_workers == 1
                else fault_injector.split(n_workers)
            )
        else:
            injectors = list(fault_injector)
            if len(injectors) != n_workers:
                raise ValueError(
                    f"need exactly one fault injector per worker: got "
                    f"{len(injectors)} for n_workers={n_workers}"
                )
            self._injectors = injectors
        self._fault_injector = self._injectors[0]
        self.simulator = simulator or DeviceSimulator(
            device, fault_injector=self._injectors[0]
        )
        # Worker 0 owns the front simulator (the admission/deadline
        # clock); extra workers each get an independent card.
        self._sims: list[DeviceSimulator] = [self.simulator] + [
            DeviceSimulator(device, fault_injector=self._injectors[wid])
            for wid in range(1, n_workers)
        ]
        self.queue = PendingQueue(max_depth=max_depth)
        self.coalescer = Coalescer(coalesce)
        self.scheduler = FairScheduler(scheduler)
        self._admission = AdmissionController(admission)
        self.n_streams = n_streams
        self.pooling = pooling
        self._retry_policy = retry_policy
        self.profiler = profiler
        self.metrics: MetricsRegistry = (
            profiler.metrics if profiler is not None else MetricsRegistry()
        )
        if profiler is not None:
            for sim in self._sims:
                profiler.attach(sim)
        self._name = name
        self._clock = clock
        if max_resident_plans < 1:
            raise ValueError("max_resident_plans must be at least 1")
        self._max_resident_plans = max_resident_plans
        # Engines are scoped (worker id, plan key): each worker drives
        # its own card, so buffers are never shared across threads.
        self._engines: dict[tuple[int, PlanKey], BatchedGpuFFT3D] = {}
        self._engine_use: dict[tuple[int, PlanKey], int] = {}
        self._engines_lock = threading.Lock()
        self._busy_wids: set[int] = set()
        self._use_counter = count()
        self._costs: dict[PlanKey, tuple[float, float]] = {}
        self._cost_lock = threading.Lock()
        self._state = threading.Condition()
        self._stats = ServeStats()
        self._inflight = 0
        self._completion_seq = count()
        self._batch_ids = count()
        self._closed = False
        self._draining = False
        self._stop = threading.Event()
        self._pool: ThreadPoolExecutor | None = None
        self._free_wids: _queue.SimpleQueue[int] = _queue.SimpleQueue()
        self._rr_wid = 0  # next serial-mode worker (round-robin cursor)
        # Workers beyond the host's cores would only thrash caches during
        # the numeric sections; they still overlap queueing, transfers
        # and bookkeeping, but the heavy compute is capped at core count.
        self._compute_permits = threading.BoundedSemaphore(
            max(1, min(n_workers, os.cpu_count() or 1))
        )
        if n_workers > 1 and not serial_dispatch:
            self._pool = ThreadPoolExecutor(
                max_workers=n_workers, thread_name_prefix=f"{name}-worker"
            )
            for wid in range(n_workers):
                self._free_wids.put(wid)
        if health is False:
            self._health: HealthMonitor | None = None
        else:
            policy = health if isinstance(health, HealthPolicy) else HealthPolicy()
            self._health = HealthMonitor(
                n_workers,
                policy,
                metrics=self.metrics,
                sims=self._sims,
                # Transition trace events touch a worker's timeline, so
                # they are only safe when one thread drives everything.
                trace_events=not start and self._pool is None,
            )
        self._thread: threading.Thread | None = None
        if start:
            self._thread = threading.Thread(
                target=self._dispatch_loop, name=f"{name}-dispatcher", daemon=True
            )
            self._thread.start()

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------

    def submit(self, request: FFTRequest) -> FFTFuture:
        """Admit one request; returns its future or raises a typed error.

        Thread-safe.  Admission (queue bound, tenant quota, deadline
        feasibility, drain state) runs atomically with the enqueue: a
        raised :class:`~repro.serve.errors.RejectedError` guarantees the
        request was never queued and will never execute.
        """
        if self._closed:
            raise ServerClosedError("server is closed")
        if not isinstance(request, FFTRequest):
            raise TypeError("submit() takes an FFTRequest")
        key = request.plan_key()
        solo_s, amortized_s = self._cost(key)
        device_now = self.simulator.elapsed
        ticket = Ticket(
            request=request,
            future=FFTFuture(request),
            key=key,
            admit_device_s=device_now,
            admit_wall_s=self._clock(),
            deadline_device_s=(
                None
                if request.deadline_s is None
                else device_now + request.deadline_s
            ),
            est_solo_s=solo_s,
            est_amortized_s=amortized_s,
        )
        with self._state:
            self._stats.submitted += 1
            draining = self._draining
        self.metrics.counter("serve.submitted", "requests").inc()
        if draining:
            raise self._rejected(
                DrainingError(
                    "server is draining; admission resumes when it completes"
                )
            )
        try:
            self.queue.push(ticket, admission=self._admission)
        except RejectedError as exc:
            raise self._rejected(exc) from None
        self.metrics.gauge("serve.queue.depth", "requests").set(self.queue.depth)
        return ticket.future

    def _rejected(self, exc: RejectedError) -> RejectedError:
        """Account one admission rejection; returns ``exc`` for raising."""
        with self._state:
            reasons = self._stats.rejected
            reasons[exc.reason] = reasons.get(exc.reason, 0) + 1
        self.metrics.counter(
            "serve.rejected", "requests", {"reason": exc.reason}
        ).inc()
        self.metrics.counter("serve.rejected", "requests").inc()
        return exc

    def stats(self) -> ServeStats:
        """Snapshot of the server's lifetime counters and live depths."""
        with self._state:
            snap = ServeStats(
                submitted=self._stats.submitted,
                completed=self._stats.completed,
                expired=self._stats.expired,
                failed=self._stats.failed,
                batches=self._stats.batches,
                requeued=self._stats.requeued,
                rejected=dict(self._stats.rejected),
                per_tenant_completed=dict(self._stats.per_tenant_completed),
                inflight=self._inflight,
            )
        snap.queue_depth = self.queue.depth
        snap.device_elapsed_s = self.simulator.elapsed
        snap.worker_elapsed_s = {
            wid: sim.elapsed for wid, sim in enumerate(self._sims)
        }
        if self._health is not None:
            snap.worker_health = self._health.states()
        return snap

    @property
    def health(self) -> HealthMonitor | None:
        """The worker health monitor (None when disabled)."""
        return self._health

    def eject_worker(self, wid: int, reason: str = "operator") -> None:
        """Open ``wid``'s breaker immediately (operator / chaos action).

        The worker takes no further batches until its cool-down expires
        and a synthetic probe passes; in-flight work on it re-queues
        through the normal failure path when it surfaces.
        """
        if self._health is None:
            raise RuntimeError(
                "worker ejection needs health monitoring (health=False given)"
            )
        if not 0 <= wid < self.n_workers:
            raise ValueError(f"no such worker: {wid}")
        self._health.eject(wid, reason)

    def resilience_report(self) -> ResilienceReport:
        """Fleet-wide resilience account folded over every engine."""
        report = ResilienceReport()
        for engine in self._engines.values():
            report.absorb(engine.resilience)
        return report.capture_timeline(self.simulator)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def draining(self) -> bool:
        """True while admission is paused (drain in progress or held)."""
        with self._state:
            return self._draining

    def begin_drain(self) -> None:
        """Pause admission now (idempotent): submits reject as draining.

        The operator half of :meth:`drain` without the wait — queued and
        in-flight work keeps executing, but nothing new is admitted
        until :meth:`end_drain`.  The gateway projects this state as
        HTTP 503 ``draining`` at the door.
        """
        with self._state:
            self._draining = True
        self.queue.wake()

    def end_drain(self) -> None:
        """Re-open admission after :meth:`begin_drain` (idempotent)."""
        with self._state:
            self._draining = False
        self.queue.wake()

    def drain(self, timeout: float | None = None) -> bool:
        """Gracefully quiesce: pause admission, finish everything queued.

        While draining, :meth:`submit` rejects with
        :class:`~repro.serve.errors.DrainingError`; queued and in-flight
        requests (including any re-queued off failing workers) run to
        completion, then final gauge values are flushed to the metrics
        registry.  Returns True when the server emptied within
        ``timeout`` (None waits indefinitely); on False the server keeps
        running and admission reopens either way.

        In synchronous mode (``start=False``) this dispatches on the
        caller's thread instead of waiting for one.
        """
        self.begin_drain()
        try:
            if self._thread is None:
                self.run_pending()
                with self._state:
                    ok = self._inflight == 0
                ok = ok and self.queue.depth == 0
            else:
                self.queue.wake()
                deadline = None if timeout is None else self._clock() + timeout
                while True:
                    with self._state:
                        idle = self._inflight == 0
                    if idle and self.queue.depth == 0:
                        ok = True
                        break
                    if deadline is not None and self._clock() > deadline:
                        ok = False
                        break
                    time.sleep(0.001)
        finally:
            self.end_drain()
        self.metrics.gauge("serve.queue.depth", "requests").set(self.queue.depth)
        self.metrics.counter(
            "serve.drains", "drains", {"outcome": "complete" if ok else "timeout"}
        ).inc()
        return ok

    def run_pending(self) -> int:
        """Synchronously dispatch everything queued; returns batch count.

        The deterministic drive mode: with ``start=False`` the queue is
        only consumed here, so batch formation is a pure function of
        submission order and the policies.
        """
        n = 0
        while True:
            if self._dispatch_once(draining=True):
                n += 1
                continue
            if self._pool is None:
                return n
            # Pooled workers may still be executing; batches re-queue
            # work only before inflight drops, so once inflight drains
            # an empty queue means we're done.
            with self._state:
                if self._inflight == 0:
                    if self.queue.depth == 0:
                        return n
                else:
                    self._state.wait(0.005)

    def close(self, discard: bool = False) -> None:
        """Stop accepting work and shut down (idempotent).

        By default queued requests are drained to completion first; with
        ``discard=True`` they fail with
        :class:`~repro.serve.errors.ServerClosedError` instead.  Either
        way no future is ever stranded: anything still pending after the
        dispatcher and workers stop (e.g. work re-queued by a dying
        worker during shutdown) is swept and resolved with
        ``ServerClosedError``.  Engines release their device buffers.
        """
        if self._closed:
            return
        self._closed = True
        if discard:
            self._discard_pending()
        if self._thread is not None:
            self._stop.set()
            self.queue.wake()
            self._thread.join()
            self._thread = None
        else:
            self.run_pending()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        # Final sweep: a worker that died mid-shutdown may have put its
        # batch back on the queue after the dispatcher exited.
        self._discard_pending()
        for engine in self._engines.values():
            engine.close()

    def _discard_pending(self) -> None:
        for key in self.queue.keys():
            tickets = self.queue.tickets(key)
            self.queue.remove_many(key, tickets)
            for t in tickets:
                self._finish_failed(t, ServerClosedError("server closed"))

    def __enter__(self) -> "FFTServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------

    def _cost(self, key: PlanKey) -> tuple[float, float]:
        """(solo, batch-amortized) predicted seconds for one transform."""
        with self._cost_lock:
            cached = self._costs.get(key)
            if cached is not None:
                return cached
        est = estimate_batch_pipelined(
            self.device,
            key.shape,
            key.precision,
            batch=max(self.coalescer.policy.max_batch, 1),
            n_streams=self.n_streams,
            memsystem=self.simulator.memsystem,
        )
        solo = est.h2d_seconds + est.kernel_seconds + est.d2h_seconds
        amortized = est.per_entry_seconds if est.batch else solo
        with self._cost_lock:
            return self._costs.setdefault(key, (solo, amortized))

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _engine_for(self, wid: int, key: PlanKey) -> BatchedGpuFFT3D:
        """The execution engine for one batch (shared plans via the cache).

        One engine per (worker, plan key) serves every batch size; a
        singleton batch sizes the engine to one V/WORK slot pair.
        """
        suffix = f"-w{wid}" if self.n_workers > 1 else ""
        with self._engines_lock:
            ekey = (wid, key)
            self._engine_use[ekey] = next(self._use_counter)
            engine = self._engines.get(ekey)
            if engine is None:
                engine = self._engines[ekey] = BatchedGpuFFT3D(
                    key.shape,
                    device=self.device,
                    simulator=self._sims[wid],
                    precision=key.precision,
                    norm=key.norm,
                    fault_injector=self._injectors[wid],
                    retry_policy=self._retry_policy,
                    n_streams=self.n_streams,
                    profiler=self.profiler,
                    pooling=self.pooling,
                    raise_on_device_loss=self._health is not None,
                    name=f"{self._name}-{key.slug}{suffix}",
                    backend=self.backend,
                )
            return engine

    def _evict_cold_engines(self) -> None:
        """Release device buffers of least-recently-used warm engines.

        Engines of workers currently mid-batch are never touched — their
        device buffers are live on another thread.
        """
        with self._engines_lock:
            warm = sorted(
                self._engine_use, key=self._engine_use.get, reverse=True
            )
            for ekey in warm[self._max_resident_plans :]:
                if ekey[0] in self._busy_wids:
                    continue
                engine = self._engines.get(ekey)
                if engine is not None:
                    engine.close()

    def _claim_worker_serial(self) -> tuple[int, str]:
        """Deterministic round-robin claim for pool-less dispatch.

        Walks the workers from the round-robin cursor until the health
        monitor admits one (``run`` or ``probe``); when every breaker is
        open and cooling the cursor's worker is returned in ``host``
        mode — the batch runs on the host path, which needs no card.
        """
        if self._health is None:
            wid = self._rr_wid
            self._rr_wid = (wid + 1) % self.n_workers
            return wid, "run"
        first = self._rr_wid
        for i in range(self.n_workers):
            wid = (first + i) % self.n_workers
            verdict = self._health.claim(wid)
            if verdict != "reject":
                self._rr_wid = (wid + 1) % self.n_workers
                return wid, verdict
        self._rr_wid = (first + 1) % self.n_workers
        return first, "host"

    def _claim_worker_pooled(self) -> tuple[int, str]:
        """Blocking claim for pooled dispatch: a free, admissible worker.

        Takes the next free worker; if its breaker rejects while some
        other worker could still take traffic, the card is handed back
        and the claim waits for a better one.  When no worker in the
        fleet is admissible the rejected card is used in ``host`` mode
        so the batch makes progress without touching any device.
        """
        wid = self._free_wids.get()
        if self._health is None:
            return wid, "run"
        while True:
            verdict = self._health.claim(wid)
            if verdict != "reject":
                return wid, verdict
            if not self._health.any_dispatchable():
                return wid, "host"
            self._free_wids.put(wid)
            time.sleep(0.0005)
            wid = self._free_wids.get()

    def _dispatch_once(self, draining: bool = False) -> bool:
        """Run one scheduling cycle; True when any decision was made."""
        heads = self.queue.head_info()
        if not heads:
            return False
        decisions = self.coalescer.ripe(heads, self._clock(), draining=draining)
        if not decisions:
            return False
        by_key = {d.key: d for d in decisions}
        candidates = {key: self.queue.tickets(key) for key in by_key}
        key = self.scheduler.select_key(candidates)
        if key is None:
            return False
        device_now = self.simulator.elapsed
        viable, hopeless = self.scheduler.split_hopeless(
            candidates[key], device_now
        )
        if hopeless:
            self.queue.remove_many(key, hopeless)
            for t in hopeless:
                budget = (t.deadline_device_s or 0.0) - t.admit_device_s
                self._finish_expired(
                    t,
                    DeadlineExpiredError(
                        f"deadline of {budget * 1e3:.3f} ms passed before "
                        f"dispatch (queued {device_now - t.admit_device_s:+.6f} s "
                        "on the device clock)"
                    ),
                )
        batch = self.scheduler.select_batch(
            viable, self.coalescer.policy.max_batch
        )
        if not batch:
            return bool(hopeless)
        self.queue.remove_many(key, batch)
        if self._health is not None:
            self._health.advance()
        with self._state:
            self._inflight += len(batch)
        if self._pool is None:
            wid, mode = self._claim_worker_serial()
            try:
                self._execute_batch(
                    wid, key, batch, by_key[key].reason, device_now, mode
                )
            finally:
                with self._state:
                    self._inflight -= len(batch)
                    self._state.notify_all()
        else:
            self._pool.submit(
                self._batch_job, key, batch, by_key[key].reason, device_now
            )
        self.metrics.gauge("serve.queue.depth", "requests").set(self.queue.depth)
        return True

    def _batch_job(
        self, key: PlanKey, batch: list[Ticket], reason: str, device_now: float
    ) -> None:
        """One pooled worker's batch: claim a card, execute, hand it back."""
        wid, mode = self._claim_worker_pooled()
        with self._engines_lock:
            self._busy_wids.add(wid)
        try:
            self._execute_batch(wid, key, batch, reason, device_now, mode)
        finally:
            with self._engines_lock:
                self._busy_wids.discard(wid)
            self._free_wids.put(wid)
            with self._state:
                self._inflight -= len(batch)
                self._state.notify_all()
            self.queue.wake()

    def _execute_batch(
        self,
        wid: int,
        key: PlanKey,
        batch: list[Ticket],
        reason: str,
        device_now: float,
        mode: str = "run",
    ) -> None:
        """Execute one batch on worker ``wid`` in ``mode``.

        ``mode`` is the health monitor's claim verdict: ``run`` (normal),
        ``probe`` (synthetic probe first — a failing probe re-queues the
        batch without touching the suspect card), or ``host`` (every
        card is out; run the reference host path).  Whatever happens,
        every ticket in ``batch`` ends up resolved or back on the queue.
        """
        handled: set[int] = set()
        try:
            self._execute_batch_inner(
                wid, key, batch, reason, device_now, mode, handled
            )
        except Exception as exc:  # noqa: BLE001 - nothing may strand a future
            for t in batch:
                if id(t) not in handled and not t.future.done():
                    self._finish_failed(t, exc)

    def _execute_batch_inner(
        self,
        wid: int,
        key: PlanKey,
        batch: list[Ticket],
        reason: str,
        device_now: float,
        mode: str,
        handled: set[int],
    ) -> None:
        batch_id = next(self._batch_ids)
        now_wall = self._clock()
        sim = self._sims[wid]
        health = self._health
        if mode == "probe" and health is not None:
            ok, why = run_probe(
                sim, health.policy.probe_shape, label=f"{self._name}-probe-w{wid}"
            )
            health.record_probe(wid, ok, why)
            if not ok:
                self._requeue_batch(
                    wid,
                    batch,
                    FaultError(f"worker {wid} failed its recovery probe ({why})"),
                    handled,
                )
                return
        force_host = mode == "host"
        if force_host and health is not None:
            health.note_forced_host(wid)
        tags = {"serve_batch": batch_id}
        if self.n_workers > 1:
            tags["worker"] = wid
        try:
            engine = self._engine_for(wid, key)
            sig_before = engine.resilience.signature()
            with self._compute_permits, sim.annotate(**tags):
                stacked = engine.execute(
                    [t.request.x for t in batch],
                    inverse=key.inverse,
                    force_host=force_host,
                )
            outs = [stacked[i] for i in range(len(batch))]
            absorbed = engine.resilience.signature() != sig_before
        except FaultError as exc:
            # The worker's card failed under the batch (device loss with
            # health on, or a probe-visible fault): eject/degrade the
            # worker and put the work back for the survivors.
            if health is not None:
                health.record_failure(
                    wid, exc, fatal=isinstance(exc, DeviceLostError)
                )
            self._requeue_batch(wid, batch, exc, handled)
            return
        except Exception as exc:  # noqa: BLE001 - typed surface for clients
            for t in batch:
                handled.add(id(t))
                self._finish_failed(t, exc)
            return
        if health is not None and not force_host:
            health.record_success(wid, absorbed_faults=absorbed)
        finish = sim.elapsed
        with self._state:
            self._stats.batches += 1
        self.metrics.counter("serve.batches", "batches").inc()
        if self.n_workers > 1:
            self.metrics.counter(
                "serve.batches", "batches", {"worker": str(wid)}
            ).inc()
            self.metrics.gauge(
                "serve.worker.elapsed.seconds", "s", {"worker": str(wid)}
            ).set(finish)
        self.metrics.counter(
            "serve.coalesce", "batches", {"reason": reason}
        ).inc()
        self.metrics.histogram("serve.batch.size", "requests").observe(
            len(batch)
        )
        for t, out in zip(batch, outs):
            t.future.batch_id = batch_id
            t.future.batch_size = len(batch)
            t.future.worker = wid
            t.future.faulted = absorbed or force_host or t.requeues > 0
            t.future.queue_wait_s = device_now - t.admit_device_s
            t.future.finish_device_s = finish
            self.metrics.histogram("serve.queue.wait.seconds", "s").observe(
                device_now - t.admit_device_s
            )
            self.metrics.histogram("serve.first_dispatch.seconds", "s").observe(
                max(0.0, now_wall - t.admit_wall_s)
            )
            self.metrics.histogram("serve.latency.seconds", "s").observe(
                finish - t.admit_device_s
            )
            self.metrics.counter("serve.completed", "requests").inc()
            self.metrics.counter(
                "serve.completed", "requests", {"tenant": t.tenant}
            ).inc()
            with self._state:
                self._stats.completed += 1
                per = self._stats.per_tenant_completed
                per[t.tenant] = per.get(t.tenant, 0) + 1
            handled.add(id(t))
            t.future._resolve(out, next(self._completion_seq))
        self._evict_cold_engines()

    def _requeue_batch(
        self,
        wid: int,
        batch: list[Ticket],
        exc: BaseException,
        handled: set[int],
    ) -> None:
        """Return a failed batch to the queue without losing anything.

        Each ticket spends one unit of its re-dispatch budget; a ticket
        over budget resolves with
        :class:`~repro.serve.errors.RequeueExhaustedError`, one whose
        deadline is no longer feasible (re-checked against the front
        clock, as at admission) with
        :class:`~repro.serve.errors.InfeasibleDeadlineError`.  Everyone
        else goes back to the *front* of its key's queue for the
        surviving workers — admission is not re-run; these requests
        already passed it.
        """
        budget = self._health.policy.max_requeues if self._health is not None else 0
        device_now = self.simulator.elapsed
        requeued = 0
        for t in batch:
            handled.add(id(t))
            t.requeues += 1
            t.future.requeues = t.requeues
            t.future.faulted = True
            if t.requeues > budget:
                self.metrics.counter(
                    "serve.requeue.dropped", "requests", {"reason": "budget"}
                ).inc()
                self._finish_failed(
                    t,
                    RequeueExhaustedError(
                        f"request failed {t.requeues} dispatch attempts "
                        f"(budget {budget}); last failure: {exc}"
                    ),
                )
                continue
            if (
                t.deadline_device_s is not None
                and device_now + t.est_solo_s > t.deadline_device_s
            ):
                self.metrics.counter(
                    "serve.requeue.dropped", "requests", {"reason": "deadline"}
                ).inc()
                self._finish_expired(
                    t,
                    InfeasibleDeadlineError(
                        f"deadline infeasible after worker failure: needs "
                        f"{t.est_solo_s * 1e3:.3f} ms but only "
                        f"{max(0.0, (t.deadline_device_s - device_now)) * 1e3:.3f} ms "
                        "remain on the device clock"
                    ),
                )
                continue
            self.queue.requeue(t)
            requeued += 1
        if requeued:
            if self._health is not None:
                self._health.note_requeue(wid, requeued)
            with self._state:
                self._stats.requeued += requeued
            self.metrics.counter("serve.requeue.requests", "requests").inc(
                requeued
            )
        self.metrics.gauge("serve.queue.depth", "requests").set(self.queue.depth)

    def _finish_expired(self, t: Ticket, exc: ServeError) -> None:
        with self._state:
            self._stats.expired += 1
        self.metrics.counter("serve.expired", "requests").inc()
        t.future._fail(exc, next(self._completion_seq))

    def _finish_failed(self, t: Ticket, exc: BaseException) -> None:
        with self._state:
            self._stats.failed += 1
        self.metrics.counter("serve.failed", "requests").inc()
        t.future._fail(exc, next(self._completion_seq))

    # ------------------------------------------------------------------
    # Dispatcher thread
    # ------------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            stop = self._stop.is_set()
            with self._state:
                draining = self._draining or stop
            if self._dispatch_once(draining=draining):
                continue
            if stop and self.queue.depth == 0:
                with self._state:
                    busy = self._inflight > 0
                if not busy:
                    return
                # Pooled batches may still re-queue work; wait them out.
                with self._state:
                    self._state.wait(0.005)
                continue
            heads = self.queue.head_info()
            if not heads:
                self.queue.wait_for_work(_PARK_S)
                continue
            timeout = self.coalescer.next_timeout(heads, self._clock())
            park = _PARK_S if timeout is None else min(max(timeout, 1e-4), _PARK_S)
            self.queue.park(park)
