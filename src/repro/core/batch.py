"""Batched, stream-pipelined execution of same-shape 3-D transforms.

One transform serializes three phases on the simulated clock: upload,
five kernels, download.  A workload that runs *many* same-shape
transforms (a docking search scores one ligand grid per rotation; a
multi-GPU rank drains a queue of slabs) can overlap them instead — the
paper's Section 4.4 observation ("the latest devices support
asynchronous transfers") applied batch-wide:

    H2D(i+1)  ||  kernels(i)  ||  D2H(i-1)

:class:`BatchedGpuFFT3D` drives that pipeline through the simulator's
stream/engine model (:mod:`repro.gpu.simulator`): each of ``n_streams``
buffer slots owns a numbered stream; entry ``i`` runs on slot ``i %
n_streams``, so the stream order enforces the buffer-reuse hazard (entry
``i`` cannot upload before entry ``i - n_streams`` finished downloading)
while the three engines overlap across streams.  With the default three
slots the steady-state cost per cube is the *largest* of the three phase
times instead of their sum.

This is the only in-core engine: :class:`~repro.core.api.GpuFFT3D` runs
each in-core transform here as a batch of one (a single slot, so the
same schedule as a purely synchronous transform).

The plan itself is shared: construction goes through the process-wide
:data:`~repro.core.plan_cache.PLAN_CACHE`, so a thousand-rotation search
pays for twiddle tables and kernel specs exactly once.

Faults are first-class and *entry-scoped*: transfers are checksummed and
retried, rejected launches retried with backoff, ECC upsets caught by the
Parseval check and retried, and an unrecoverable fault degrades only the
afflicted entry to the host transform — entries ``i±1`` keep their
pipelined results.  Device loss resets the card, re-allocates the slots
and resumes with the first unfinished entry (completed entries live in
host memory and are unaffected).
"""

from __future__ import annotations

from itertools import count
from typing import TYPE_CHECKING

import numpy as np

from repro.core.out_of_core import OutOfCorePlan
from repro.core.plan_cache import PLAN_CACHE
from repro.core.workspace import Workspace
from repro.core.resilient import (
    ResilienceReport,
    ResilientExecutor,
    RetryPolicy,
    energy_preserved,
    host_transform,
)
from repro.fft.normalization import apply_norm
from repro.gpu.faults import (
    AllocationError,
    CorruptionError,
    DeviceLostError,
    FaultError,
    FaultInjector,
)
from repro.gpu.simulator import DeviceArray, DeviceMemoryError, DeviceSimulator
from repro.gpu.specs import DeviceSpec, GEFORCE_8800_GTX
from repro.util.validation import as_complex_array

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.obs.profiler import Profiler

__all__ = ["BatchedGpuFFT3D", "gpu_fft3d_batch"]

#: Monotonic ids so slot buffer names never collide across batch engines
#: sharing one simulator.
_BATCH_IDS = count()


def bind_device(
    plan,
    simulator: DeviceSimulator | None,
    fault_injector: FaultInjector | None,
    retry_policy: RetryPolicy | None,
    verify: bool | None,
    profiler: Profiler | None,
    pooling: bool,
) -> None:
    """Give ``plan`` its simulator, fault scope, retry machinery and arena.

    Shared by every device plan constructor (``plan.device`` and
    ``plan._buf`` must be set).  A plan-owned simulator carries the
    injector directly; on a shared simulator it is scoped to the plan's
    own transforms (``plan._injector``, entered through
    :meth:`DeviceSimulator.fault_scope`) so sibling plans stay clean.
    """
    plan._injector = None
    if simulator is None:
        simulator = DeviceSimulator(plan.device, fault_injector=fault_injector)
    elif fault_injector is not None:
        if simulator.faults is not None and simulator.faults is not fault_injector:
            raise ValueError(
                "simulator already has a different fault injector; "
                "plans sharing a simulator must share one injector"
            )
        if simulator.faults is None:
            plan._injector = fault_injector
    plan.simulator = simulator
    plan.retry_policy = retry_policy or RetryPolicy()
    plan.resilience = ResilienceReport()
    plan._executor = ResilientExecutor(simulator, plan.retry_policy, plan.resilience)
    plan._verify = (
        (fault_injector is not None or simulator.faults is not None)
        if verify is None
        else verify
    )
    plan.profiler = profiler
    if profiler is not None:
        profiler.attach(simulator)
    plan.workspace = None
    if pooling:
        plan.workspace = Workspace(
            name=plan._buf,
            metrics=profiler.metrics if profiler is not None else None,
        )


class _Slot:
    """One pipeline stage: a stream plus its V/WORK device buffers."""

    __slots__ = ("stream", "v", "w")

    def __init__(self, stream: int, v: DeviceArray, w: DeviceArray):
        self.stream = stream
        self.v = v
        self.w = w


class BatchedGpuFFT3D:
    """Run batches of same-shape transforms through one pipelined plan.

    Parameters mirror :class:`~repro.core.api.GpuFFT3D` plus:

    n_streams:
        Pipeline depth — how many entries may be in flight at once (each
        holds a V + WORK buffer pair on the card).  Three suffices to
        keep all three engines busy; the engine shrinks the depth
        automatically if device memory cannot hold that many slots.
    profiler:
        Optional :class:`repro.obs.Profiler` attached to the simulator;
        every pipelined operation is captured as a span tagged with this
        engine's plan id and the batch entry index it belongs to.
    name:
        Optional stable plan id (buffer prefix + trace tag); defaults to
        a process-unique ``batchN``.
    raise_on_device_loss:
        When True a :class:`~repro.gpu.faults.DeviceLostError` propagates
        to the caller (after the engine forgets its dead slots) instead
        of being recovered in-engine by reset-and-resume.  The serving
        layer uses this so a card loss surfaces as a *batch* failure it
        can answer with worker ejection and loss-free re-queueing onto
        surviving cards; standalone callers keep the default in-engine
        recovery.
    backend:
        Hot-path implementation (``"numpy"``/``"numba"``/``"cjit"``/
        ``"auto"``), resolved exactly as in
        :class:`~repro.core.api.GpuFFT3D` — compiled backends degrade
        cleanly to NumPy and never change results beyond the documented
        ulp bound (DESIGN.md §18).

    The batched path is in-core only: grids larger than device memory
    take the out-of-core path via :class:`~repro.core.api.GpuFFT3D`.
    """

    def __init__(
        self,
        shape: tuple[int, int, int] | int,
        device: DeviceSpec = GEFORCE_8800_GTX,
        simulator: DeviceSimulator | None = None,
        precision: str = "single",
        norm: str = "backward",
        fault_injector: FaultInjector | None = None,
        retry_policy: RetryPolicy | None = None,
        verify: bool | None = None,
        n_streams: int = 3,
        profiler: Profiler | None = None,
        name: str | None = None,
        pooling: bool = True,
        raise_on_device_loss: bool = False,
        backend: str = "numpy",
    ):
        if isinstance(shape, int):
            shape = (shape, shape, shape)
        if n_streams < 1:
            raise ValueError("n_streams must be at least 1")
        ooc = OutOfCorePlan(shape, device, precision=precision)
        if not ooc.fits_in_core:
            raise ValueError(
                f"{ooc.shape} does not fit on {device.name}; the batched "
                "pipeline is in-core only — use GpuFFT3D's out-of-core path"
            )
        self.device = device
        self.precision = precision
        self.norm = norm
        self.shape = ooc.shape
        self.n_streams = n_streams
        self._buf = name or f"batch{next(_BATCH_IDS)}"
        self.raise_on_device_loss = raise_on_device_loss
        self._plan = PLAN_CACHE.five_step(
            self.shape, precision, device, backend=backend
        )
        bind_device(
            self, simulator, fault_injector, retry_policy, verify, profiler, pooling
        )
        self._slots: list[_Slot] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def total_elements(self) -> int:
        nz, ny, nx = self.shape
        return nz * ny * nx

    @property
    def n_slots(self) -> int:
        """Pipeline depth actually in use (0 before the first batch)."""
        return len(self._slots)

    @property
    def plan_id(self) -> str:
        """The id tagged onto this engine's buffers and trace spans."""
        return self._buf

    def resilience_report(self) -> ResilienceReport:
        """The live resilience account, time fields synced to the simulator."""
        return self.resilience.capture_timeline(self.simulator)

    def pipeline_report(self) -> dict[str, float]:
        """Makespan vs per-engine busy time — how well the overlap worked."""
        busy = self.simulator.engine_busy_seconds()
        busy["elapsed"] = self.simulator.elapsed
        return busy

    # ------------------------------------------------------------------
    # Slot management
    # ------------------------------------------------------------------

    def _allocate_retrying(self, name: str) -> DeviceArray:
        dtype = np.complex64 if self.precision == "single" else np.complex128
        last = self.retry_policy.max_attempts - 1
        for attempt in range(self.retry_policy.max_attempts):
            try:
                return self.simulator.allocate(self.shape, dtype, name)
            except AllocationError:
                if attempt == last:
                    raise
                self._executor.backoff(attempt, "alloc")
        raise AssertionError("unreachable")

    def _ensure_slots(self, needed: int | None = None) -> None:
        """Hold enough live slots for ``needed`` in-flight entries.

        The pipeline never needs more slots than batch entries, so a
        singleton batch (a server dispatching an uncoalesced request)
        allocates one V/WORK pair, not ``n_streams`` of them.  Slots left
        over from a deeper earlier batch are kept — they are already
        paid for and the modulo mapping uses whatever depth exists.
        """
        target = self.n_streams if needed is None else min(self.n_streams, needed)
        target = max(target, 1)
        if (
            len(self._slots) >= target
            and all(
                self.simulator.is_allocated(s.v) and self.simulator.is_allocated(s.w)
                for s in self._slots
            )
        ):
            return
        self._drop_slots()
        for j in range(target):
            try:
                v = self._allocate_retrying(f"{self._buf}-s{j}-V")
                try:
                    w = self._allocate_retrying(f"{self._buf}-s{j}-WORK")
                except (FaultError, DeviceMemoryError):
                    # Never orphan half a slot: the next attempt would
                    # collide with the V buffer's name.
                    if self.simulator.is_allocated(v):
                        self.simulator.free(v)
                    raise
            except DeviceMemoryError:
                if j == 0:
                    raise
                break  # shallower pipeline than asked for, but it runs
            self._slots.append(_Slot(j, v, w))

    def _drop_slots(self) -> None:
        for s in self._slots:
            for arr in (s.v, s.w):
                if self.simulator.is_allocated(arr):
                    self.simulator.free(arr)
        self._slots.clear()

    def close(self) -> None:
        """Free every slot's device buffers; the engine stays reusable."""
        self._drop_slots()

    def __enter__(self) -> "BatchedGpuFFT3D":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Pipelined execution
    # ------------------------------------------------------------------

    def forward(self, xs) -> np.ndarray:
        """Forward-transform every entry; returns the stacked spectra."""
        return self._run(xs, inverse=False)

    def inverse(self, xs) -> np.ndarray:
        """Inverse-transform every entry; matches ``ifftn`` per entry."""
        return self._run(xs, inverse=True)

    def execute(
        self, xs, inverse: bool = False, force_host: bool = False
    ) -> np.ndarray:
        """Transform a batch in either direction.

        ``force_host=True`` runs every entry on the host reference path
        (charged as host time, no device operations at all) — the
        guaranteed-progress degradation a server takes when every card
        is ejected.  Results stay correct; the downgrades are recorded
        in :attr:`resilience`.
        """
        return self._run(xs, inverse=inverse, force_host=force_host)

    def _coerce_batch(self, xs) -> list[np.ndarray]:
        if isinstance(xs, np.ndarray) and xs.ndim == 4:
            entries = [xs[i] for i in range(xs.shape[0])]
        else:
            entries = list(xs)
        out = []
        for i, x in enumerate(entries):
            x = as_complex_array(x, self.precision)
            if x.shape != self.shape:
                raise ValueError(
                    f"batch entry {i} has shape {x.shape}; plan is for {self.shape}"
                )
            out.append(x)
        return out

    def _run(self, xs, inverse: bool, force_host: bool = False) -> np.ndarray:
        entries = self._coerce_batch(xs)
        dtype = np.complex64 if self.precision == "single" else np.complex128
        if not entries:
            return np.empty((0, *self.shape), dtype)
        # Pooled path: downloads land directly in the stacked result, so
        # the per-entry staging buffer and the np.stack copy both vanish.
        # The block itself is the caller-owned return value — the one
        # allocation the transform loop legitimately makes.
        pooled = self.workspace is not None
        final = np.empty((len(entries), *self.shape), dtype) if pooled else None
        outs: list[np.ndarray] = []
        with self.simulator.annotate(plan=self._buf), self.simulator.fault_scope(
            self._injector
        ):
            resets = 0
            dead = force_host  # device given up on: host path for the rest
            for i, x in enumerate(entries):
                target = final[i] if pooled else None
                with self.simulator.annotate(entry=i):
                    while True:
                        if dead:
                            outs.append(
                                self._host_result(
                                    x,
                                    inverse,
                                    "forced" if force_host else "device lost",
                                    target,
                                )
                            )
                            break
                        try:
                            self._ensure_slots(len(entries))
                            slot = self._slots[i % len(self._slots)]
                            outs.append(
                                self._run_entry(i, x, slot, inverse, target)
                            )
                            break
                        except DeviceLostError:
                            # Only entry i was in flight functionally;
                            # finished entries already live in host memory.
                            self._slots.clear()  # allocations died with card
                            if self.raise_on_device_loss:
                                raise
                            resets += 1
                            self.resilience.device_resets += 1
                            if resets > self.retry_policy.max_device_resets:
                                dead = True
                                continue
                            self.simulator.reset_device()
                        except FaultError as exc:
                            # Retries exhausted for this entry alone:
                            # degrade it, keep the pipeline for neighbours.
                            outs.append(
                                self._host_result(
                                    x, inverse, type(exc).__name__, target
                                )
                            )
                            break
            self.simulator.synchronize()
        n = self.total_elements
        if pooled:
            for o in outs:
                apply_norm(o, n, self.norm, inverse)
            return final
        return np.stack([apply_norm(o, n, self.norm, inverse) for o in outs])

    def _host_result(
        self,
        x: np.ndarray,
        inverse: bool,
        reason: str,
        target: np.ndarray | None,
    ) -> np.ndarray:
        """Host-fallback entry, routed through ``target`` when pooled."""
        if self.simulator.device_lost:
            self._slots.clear()  # the reset below discards the allocations
        out = host_transform(
            self._executor, x, inverse, reason, f"{self._buf}-host-fallback"
        )
        if target is None:
            return out
        np.copyto(target, out)
        return target

    def _run_entry(
        self,
        i: int,
        x: np.ndarray,
        slot: _Slot,
        inverse: bool,
        target: np.ndarray | None = None,
    ) -> np.ndarray:
        label = f"{self._buf}-e{i}"
        ex = self._executor
        corruption_retries = 0
        while True:
            try:
                ex.h2d(x, slot.v, f"{label}-h2d", stream=slot.stream)
                self._compute(x, slot, inverse, label)
                out = np.empty_like(x) if target is None else target
                ex.d2h(slot.v, out, f"{label}-d2h", stream=slot.stream)
                return out
            except CorruptionError:
                corruption_retries += 1
                if corruption_retries >= self.retry_policy.max_attempts:
                    raise
                ex.backoff(corruption_retries - 1, "ecc")

    def _compute(
        self, x: np.ndarray, slot: _Slot, inverse: bool, label: str
    ) -> None:
        wall = self._plan.ensure_compiled()
        if wall:
            self.simulator.charge(f"{self._buf}-jit.compile", wall, "host")
        specs = PLAN_CACHE.step_specs(
            self.shape, self.precision, self.device, backend=self._plan.backend
        )
        result: dict[str, np.ndarray] = {}
        ws = self.workspace

        def body() -> None:
            if ws is None:
                result["out"] = self._plan.execute(slot.v.data, inverse=inverse)
            else:
                # In place on the device buffer: the five-step chain only
                # reads its input during step 1, so the spectrum can land
                # where the signal was — no result staging at all.
                result["out"] = self._plan.execute(
                    slot.v.data, inverse=inverse, workspace=ws, out=slot.v.data
                )

        # Five kernels on the slot's stream; the functional work rides the
        # last launch (one pass through the plan), the timing all five.
        for spec in specs[:-1]:
            self._executor.launch(spec, stream=slot.stream)
        self._executor.launch(specs[-1], body, stream=slot.stream)
        out = result["out"]
        if self._verify:
            e_in = float(np.vdot(x, x).real)
            e_out = float(np.vdot(out, out).real)
            if not energy_preserved(e_in, e_out, float(self.total_elements)):
                raise CorruptionError(
                    f"batch entry {label!r} violated the energy invariant "
                    "(likely an ECC upset of a device buffer)"
                )
        if out is not slot.v.data:
            np.copyto(slot.v.data, out)


def gpu_fft3d_batch(
    xs,
    device: DeviceSpec = GEFORCE_8800_GTX,
    norm: str = "backward",
) -> np.ndarray:
    """One-shot pipelined forward FFT of a batch of same-shape cubes."""
    entries = xs if isinstance(xs, np.ndarray) else np.asarray(xs)
    with BatchedGpuFFT3D(entries.shape[1:], device=device, norm=norm) as plan:
        return plan.forward(entries)
