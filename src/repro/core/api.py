"""High-level public API for the bandwidth-intensive GPU 3-D FFT.

:class:`GpuFFT3D` is what a downstream application (e.g. the docking code
in :mod:`repro.apps.docking`) uses: plan once, transform many times, and —
when given a :class:`~repro.gpu.simulator.DeviceSimulator` — have every
launch and transfer accounted on the simulated timeline.

It is a thin facade.  A grid that fits on the card runs as a batch of one
on a :class:`~repro.core.batch.BatchedGpuFFT3D` — the one in-core engine,
the same five-kernel transform whether one cube or many are in flight.
A grid that does not fit takes the out-of-core route (Section 3.3),
staged slab by slab with per-slab checkpoints
(:func:`~repro.core.resilient.run_out_of_core`).

The plan is *resilient* by construction: transfers are checksummed and
retried, rejected launches are retried with backoff, a lost device is
reset and the transform resumed, and when the device keeps failing the
plan degrades to the host reference transform
(:func:`~repro.core.resilient.host_transform`) and records the downgrade.
All of this is driven by an optional
:class:`~repro.gpu.faults.FaultInjector`; with no injector attached the
resilient machinery adds zero simulated time.  The cost of robustness is
surfaced via :meth:`GpuFFT3D.resilience_report`.
"""

from __future__ import annotations

from itertools import count
from typing import TYPE_CHECKING

import numpy as np

from repro.core.batch import BatchedGpuFFT3D, bind_device
from repro.core.estimator import FFT3DEstimate, estimate_fft3d
from repro.core.out_of_core import OutOfCoreEstimate, OutOfCorePlan
from repro.core.resilient import (
    ResilienceReport,
    RetryPolicy,
    host_transform,
    run_out_of_core,
)
from repro.fft.normalization import apply_norm
from repro.gpu.faults import DeviceLostError, FaultError, FaultInjector
from repro.gpu.simulator import DeviceSimulator
from repro.gpu.specs import DeviceSpec, GEFORCE_8800_GTX
from repro.util.validation import as_complex_array

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.obs.profiler import Profiler

__all__ = ["GpuFFT3D", "gpu_fft3d", "gpu_ifft3d"]

#: Monotonic plan ids so device buffer names never collide when several
#: plans share one simulator.
_PLAN_IDS = count()

#: State an in-core facade shares with its batch-of-one engine.
_ENGINE_STATE = (
    "simulator",
    "_injector",
    "retry_policy",
    "resilience",
    "_executor",
    "_verify",
    "profiler",
    "workspace",
    "_plan",
)


class GpuFFT3D:
    """A planned 3-D transform bound to a (simulated) device.

    Parameters
    ----------
    shape:
        ``(nz, ny, nx)`` or a cube size.
    device:
        Target GPU spec; defaults to the 8800 GTX.
    simulator:
        Optional shared :class:`DeviceSimulator`; when omitted, one is
        created and exposed as :attr:`simulator`.
    precision / norm:
        As in :mod:`repro.fft`.
    fault_injector:
        Optional :class:`~repro.gpu.faults.FaultInjector` scoped to *this
        plan's* operations; makes its transfers/launches/allocations
        fallible.  On a shared simulator the injector is attached only
        while this plan executes (via
        :meth:`DeviceSimulator.fault_scope`), so sibling plans stay
        fault-free; passing a second, different injector while the
        simulator already has one raises ``ValueError``.
    retry_policy:
        Bounds on retries, backoff and device resets; defaults to
        :class:`~repro.core.resilient.RetryPolicy`.
    verify:
        Run the Parseval energy check on transform results (catches ECC
        upsets).  Default ``None`` enables it exactly when a fault
        injector is attached.
    profiler:
        Optional :class:`repro.obs.Profiler`.  When given it is attached
        to this plan's simulator, every operation the plan charges is
        captured as an annotated span (tagged with :attr:`plan_id`), and
        the caller reads the trace/metrics off the profiler — the execute
        methods themselves are unchanged.
    name:
        Optional stable plan id used to prefix device buffer names and
        trace annotations; defaults to a process-unique ``fft3dN``.
        Callers sharing one simulator must keep names unique.
    pooling:
        Route host execution through a per-plan
        :class:`~repro.core.workspace.Workspace` arena (default).  Every
        transform intermediate is then a reused pooled buffer and the
        twiddle multiplies fuse into the rearrangement writes — zero
        steady-state heap allocations in the transform loop.  Results are
        bit-identical to ``pooling=False`` (the seed path).
    raise_on_device_loss:
        When True, a device loss that exhausts the reset budget
        re-raises :class:`~repro.gpu.faults.DeviceLostError` instead of
        silently degrading to the host path.  The serving layer's health
        monitor sets this so a dying card surfaces as a worker failure
        (ejection + re-queue) rather than vanishing into a slow host
        transform.
    backend:
        Hot-path implementation: ``"numpy"`` (default, the reference),
        ``"numba"``, ``"cjit"`` or ``"auto"`` (see :mod:`repro.jit`).
        Compiled backends degrade cleanly to NumPy when unavailable or
        when the plan geometry has no emitted kernels; results are
        bit-identical (cjit on FMA hardware) or within a documented
        ulp bound (DESIGN.md §18).

    A grid that fits on the card runs as a batch of one on a one-slot
    :class:`~repro.core.batch.BatchedGpuFFT3D`, whose simulator,
    resilience report and workspace this plan exposes.  Transforms
    larger than device memory transparently take the out-of-core path
    (Section 3.3), staged slab by slab through the simulator with
    per-slab checkpoints.
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
        profiler: Profiler | None = None,
        name: str | None = None,
        pooling: bool = True,
        raise_on_device_loss: bool = False,
        backend: str = "numpy",
    ):
        if isinstance(shape, int):
            shape = (shape, shape, shape)
        self.raise_on_device_loss = raise_on_device_loss
        self.device = device
        self.norm = norm
        self.precision = precision
        self._ooc = OutOfCorePlan(shape, device, precision=precision)
        self.shape = self._ooc.shape
        self._buf = name or f"fft3d{next(_PLAN_IDS)}"
        self._engine: BatchedGpuFFT3D | None = None
        if self._ooc.fits_in_core:
            self._engine = BatchedGpuFFT3D(
                self.shape,
                device=device,
                simulator=simulator,
                precision=precision,
                norm=norm,
                fault_injector=fault_injector,
                retry_policy=retry_policy,
                verify=verify,
                n_streams=1,
                profiler=profiler,
                name=self._buf,
                pooling=pooling,
                raise_on_device_loss=raise_on_device_loss,
                backend=backend,
            )
            for attr in _ENGINE_STATE:
                setattr(self, attr, getattr(self._engine, attr))
        else:
            self._plan = None
            bind_device(
                self, simulator, fault_injector, retry_policy, verify, profiler, pooling
            )
        self._ooc_estimate: OutOfCoreEstimate | None = None

    @property
    def plan_id(self) -> str:
        """The id tagged onto this plan's buffers and trace spans."""
        return self._buf

    @property
    def out_of_core(self) -> bool:
        """True when the grid does not fit on the card."""
        return not self._ooc.fits_in_core

    @property
    def total_elements(self) -> int:
        nz, ny, nx = self.shape
        return nz * ny * nx

    # ------------------------------------------------------------------

    def _run_out_of_core(
        self, x: np.ndarray, inverse: bool, force_host: bool
    ) -> np.ndarray:
        reason = "forced"
        if not force_host:
            try:
                out = run_out_of_core(
                    self._ooc,
                    self.out_of_core_estimate(),
                    np.conj(x) if inverse else x,
                    self._executor,
                    verify=self._verify,
                    name=f"{self._buf}-ooc",
                    workspace=self.workspace,
                )
                return np.conj(out) if inverse else out
            except FaultError as exc:
                if self.raise_on_device_loss and isinstance(exc, DeviceLostError):
                    raise
                reason = type(exc).__name__
        return host_transform(
            self._executor, x, inverse, reason, f"{self._buf}-host-fallback"
        )

    def _run(
        self, x: np.ndarray, inverse: bool, force_host: bool = False
    ) -> np.ndarray:
        x = as_complex_array(x, self.precision)
        if x.shape != self.shape:
            raise ValueError(f"plan is for shape {self.shape}, got {x.shape}")
        if self._engine is not None:
            return self._engine._run((x,), inverse, force_host)[0]
        with self.simulator.annotate(plan=self._buf):
            with self.simulator.fault_scope(self._injector):
                out = self._run_out_of_core(x, inverse, force_host)
        return apply_norm(out, self.total_elements, self.norm, inverse)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Forward transform; matches ``numpy.fft.fftn`` (default norm)."""
        return self._run(x, inverse=False)

    def inverse(self, x: np.ndarray) -> np.ndarray:
        """Inverse transform; matches ``numpy.fft.ifftn`` (default norm)."""
        return self._run(x, inverse=True)

    def execute(
        self, x: np.ndarray, inverse: bool = False, force_host: bool = False
    ) -> np.ndarray:
        """One transform in either direction (the generic entry point).

        ``force_host`` skips the device entirely and runs the reference
        host transform (charged as host time) — the serving layer's
        degradation path when every worker card is ejected.
        """
        return self._run(x, inverse=inverse, force_host=force_host)

    # ------------------------------------------------------------------

    def estimate(self) -> FFT3DEstimate:
        """Performance prediction for one on-board transform."""
        return estimate_fft3d(
            self.device, self.shape, self.precision, self.simulator.memsystem
        )

    def out_of_core_estimate(self) -> OutOfCoreEstimate:
        """Cached Table-12-style estimate (out-of-core plans only)."""
        if self._ooc_estimate is None:
            self._ooc_estimate = self._ooc.estimate()
        return self._ooc_estimate

    def resilience_report(self) -> ResilienceReport:
        """The live resilience account, time fields synced to the simulator."""
        return self.resilience.capture_timeline(self.simulator)

    def release(self) -> None:
        """Free the device buffers (a no-op for buffers lost to a reset).

        Out-of-core runs hold no buffers between transforms.
        """
        if self._engine is not None:
            self._engine.close()

    def close(self) -> None:
        """Tear the plan down: device buffers are freed, capacity returned.

        Subsequent transforms re-allocate transparently, so ``close`` is
        safe to call between bursts of work as well as at end of life.
        """
        self.release()

    def __enter__(self) -> "GpuFFT3D":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def gpu_fft3d(
    x: np.ndarray,
    device: DeviceSpec = GEFORCE_8800_GTX,
    norm: str = "backward",
) -> np.ndarray:
    """One-shot forward 3-D FFT through the simulated GPU path."""
    x = np.asarray(x)
    with GpuFFT3D(x.shape, device=device, norm=norm) as plan:
        return plan.forward(x)


def gpu_ifft3d(
    x: np.ndarray,
    device: DeviceSpec = GEFORCE_8800_GTX,
    norm: str = "backward",
) -> np.ndarray:
    """One-shot inverse 3-D FFT through the simulated GPU path."""
    x = np.asarray(x)
    with GpuFFT3D(x.shape, device=device, norm=norm) as plan:
        return plan.inverse(x)
