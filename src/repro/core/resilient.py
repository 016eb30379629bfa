"""Resilient execution: retries, checksums, checkpoints, degradation.

The recovery side of the fault model in :mod:`repro.gpu.faults`.  Five
mechanisms, all accounted on the same simulated clock as the useful work
so the *cost* of robustness is a first-class observable:

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  deterministic jitter, charged to the device timeline as ``"backoff"``
  events;
* checksummed transfers — :class:`ResilientExecutor` CRCs every payload
  across the PCIe hop and re-sends on mismatch, which is what turns
  *silent* injected corruption into a retryable event;
* checkpointed out-of-core execution — :func:`run_out_of_core` stages the
  Section 3.3 pipeline through real simulated transfers with the stage-1
  slabs and stage-2 plane groups as natural checkpoints, so a mid-run
  device loss resumes from the last completed slab instead of re-paying
  the 2x-PCIe traffic from scratch;
* graceful degradation — :func:`host_transform`, the one host fallback
  every device path takes when the card keeps failing;
* :class:`ResilienceReport` — attempts, retries by fault class,
  checkpoint restores and time lost to faults, surfaced by the plan that
  owns the transform.

Energy verification (Parseval: an un-normalized FFT scales total energy
by exactly N) is the cheap invariant used to catch ECC upsets that
checksums cannot see because they happen *after* the data crossed the
bus.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from repro.core.five_step import FiveStepPlan
from repro.core.out_of_core import OutOfCoreEstimate, OutOfCorePlan
from repro.fft.plan import PlanND
from repro.gpu.faults import (
    CorruptionError,
    DeviceLostError,
    KernelLaunchError,
    TransferError,
)
from repro.gpu.kernel import KernelSpec
from repro.gpu.simulator import DeviceArray, DeviceSimulator
from repro.gpu.timing import KernelTiming
from repro.util.units import flops_3d_fft
from repro.util.validation import as_complex_array

__all__ = [
    "RetryPolicy",
    "ResilienceReport",
    "ResilientExecutor",
    "checksum",
    "energy_preserved",
    "host_transform",
    "run_out_of_core",
]


def checksum(a: np.ndarray) -> int:
    """CRC32 of an array's bytes (the simulated link-layer checksum).

    The CRC is taken through the buffer protocol, so a contiguous array is
    checksummed with zero copies (``tobytes`` would materialize the whole
    payload a second time).
    """
    return zlib.crc32(np.ascontiguousarray(a))


def _as_payload(a: np.ndarray, shape, dtype) -> np.ndarray:
    """The array as the link sees it — no copy when it already matches.

    ``reshape().astype()`` forced a full staging copy whenever the input
    was a non-contiguous view even with a matching dtype; the common case
    (matching shape and dtype) must be free.
    """
    if a.shape == tuple(shape) and a.dtype == dtype:
        return a
    return np.ascontiguousarray(a).reshape(shape).astype(dtype, copy=False)


def _energy(a: np.ndarray) -> float:
    return float(np.vdot(a, a).real)


def energy_preserved(
    e_in: float, e_out: float, scale: float, rtol: float = 1e-4
) -> bool:
    """Check the Parseval invariant ``e_out == scale * e_in`` within ``rtol``.

    An un-normalized N-point FFT scales total energy by exactly N; an ECC
    upset (modeled as an exponent-field bit-flip) violates this by many
    orders of magnitude, so a loose tolerance never false-positives on
    legitimate single-precision rounding.
    """
    expected = scale * e_in
    return abs(e_out - expected) <= rtol * expected + 1e-20


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try before giving up, per fault class.

    ``max_attempts`` bounds transfer/launch/corruption retries;
    ``max_device_resets`` bounds full device-loss recoveries before the
    caller degrades (host fallback or re-planned ranks).  Backoff is
    exponential with deterministic jitter and is charged to the simulated
    timeline — waiting is not free.
    """

    max_attempts: int = 4
    backoff_base_s: float = 100e-6
    backoff_factor: float = 2.0
    jitter: float = 0.25
    max_device_resets: int = 2

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_base_s < 0 or self.backoff_factor < 1.0:
            raise ValueError("backoff must be non-negative and non-shrinking")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.max_device_resets < 0:
            raise ValueError("max_device_resets must be non-negative")

    def backoff_seconds(self, attempt: int, u: float) -> float:
        """Backoff before retry ``attempt`` (0-based); ``u`` in [0,1) jitters."""
        if attempt < 0:
            raise ValueError("attempt must be non-negative")
        t = self.backoff_base_s * self.backoff_factor**attempt
        return t * (1.0 + self.jitter * (2.0 * u - 1.0))


@dataclass
class ResilienceReport:
    """What resilience cost: attempts, retries, restores, lost time.

    Time fields are filled by :meth:`capture_timeline` from the owning
    simulator so they share its clock; counter fields are maintained live
    by the executor and the checkpointed runners.
    """

    attempts: int = 0
    retries: dict[str, int] = field(default_factory=dict)
    checksum_failures: int = 0
    checkpoint_restores: int = 0
    device_resets: int = 0
    downgrades: list[str] = field(default_factory=list)
    backoff_seconds: float = 0.0
    fault_seconds: float = 0.0
    total_seconds: float = 0.0

    @property
    def total_retries(self) -> int:
        """Retries across every fault class."""
        return sum(self.retries.values())

    @property
    def useful_seconds(self) -> float:
        """Simulated time not lost to failed work or backoff waits."""
        return self.total_seconds - self.fault_seconds - self.backoff_seconds

    @property
    def degraded(self) -> bool:
        """True when any downgrade (host fallback, re-plan) was taken."""
        return bool(self.downgrades)

    def note_retry(self, fault_class: str) -> None:
        """Count one retry attributed to ``fault_class``."""
        self.retries[fault_class] = self.retries.get(fault_class, 0) + 1

    def signature(self) -> tuple[int, int, int, int, int]:
        """Cheap comparable fingerprint of the fault-visible counters.

        Two signatures taken around a batch dispatch differ iff the
        engine absorbed any fault during it (a retry, checksum failure,
        checkpoint restore, device reset or downgrade).  The serving
        layer's health tracker uses exactly this to mark a batch — and
        every future that rode in it — as *faulted* without walking the
        timeline.  ``attempts`` is deliberately excluded: it advances on
        clean transfers too.
        """
        return (
            self.total_retries,
            self.checksum_failures,
            self.checkpoint_restores,
            self.device_resets,
            len(self.downgrades),
        )

    def absorb(self, other: "ResilienceReport") -> "ResilienceReport":
        """Fold ``other``'s counters into this report; returns self.

        The aggregation a server needs: one report per plan/engine rolls
        up into a fleet-wide account.  Counter fields add; the time
        fields are *not* summed (engines sharing one simulator share one
        clock — use :meth:`capture_timeline` on the aggregate instead).
        """
        self.attempts += other.attempts
        for fault_class, n in other.retries.items():
            self.retries[fault_class] = self.retries.get(fault_class, 0) + n
        self.checksum_failures += other.checksum_failures
        self.checkpoint_restores += other.checkpoint_restores
        self.device_resets += other.device_resets
        self.downgrades.extend(other.downgrades)
        return self

    def capture_timeline(self, sim: DeviceSimulator) -> "ResilienceReport":
        """Snapshot time accounting from ``sim``'s timeline; returns self."""
        self.fault_seconds = sim.fault_seconds
        self.backoff_seconds = sim.backoff_seconds
        self.total_seconds = sim.elapsed
        return self

    def summary(self) -> str:
        """Human-readable multi-line account of the resilience cost."""
        lines = [
            f"attempts:            {self.attempts}",
            f"retries:             {self.total_retries} "
            + (f"({self.retries})" if self.retries else "(none)"),
            f"checksum failures:   {self.checksum_failures}",
            f"checkpoint restores: {self.checkpoint_restores}",
            f"device resets:       {self.device_resets}",
            f"downgrades:          {', '.join(self.downgrades) or 'none'}",
        ]
        if self.total_seconds > 0:
            lost = self.fault_seconds + self.backoff_seconds
            lines.append(
                f"time lost to faults: {lost * 1e3:.3f} ms of "
                f"{self.total_seconds * 1e3:.3f} ms "
                f"({100.0 * lost / self.total_seconds:.1f}%)"
            )
        return "\n".join(lines)


class ResilientExecutor:
    """Retrying, checksumming front-end to a :class:`DeviceSimulator`.

    Wraps the simulator's transfer/launch surface: every payload is CRC'd
    across the bus and re-sent on mismatch, aborted transfers and
    rejected launches are retried under the :class:`RetryPolicy`, and all
    backoff waits are charged to the simulated timeline.  Device loss is
    *not* handled here — it needs plan-level recovery (checkpoints,
    re-planning), so :class:`~repro.gpu.faults.DeviceLostError`
    propagates to the caller.

    With no fault injector attached the executor adds zero simulated
    time: checksums are host-side bookkeeping, and no backoff or repeat
    events are ever charged.
    """

    def __init__(
        self,
        sim: DeviceSimulator,
        policy: RetryPolicy | None = None,
        report: ResilienceReport | None = None,
        seed: int = 2008,
    ):
        self.sim = sim
        self.policy = policy or RetryPolicy()
        self.report = report or ResilienceReport()
        self._rng = np.random.default_rng(seed)

    def backoff(self, attempt: int, fault_class: str) -> float:
        """Charge one backoff wait to the timeline; returns its seconds."""
        t = self.policy.backoff_seconds(attempt, float(self._rng.random()))
        self.sim.charge(f"backoff-{fault_class}", t, kind="backoff")
        self.report.backoff_seconds += t
        self.report.note_retry(fault_class)
        return t

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------
    #
    # ``stream=None`` issues the operation synchronously on the
    # simulator's wall clock; an int issues it asynchronously on that
    # numbered stream (the batch pipeline's slots), where it overlaps
    # work on other streams.  Retries and checksums are identical either
    # way.

    def h2d(
        self,
        host: np.ndarray,
        dev: DeviceArray,
        label: str = "h2d",
        stream: int | None = None,
    ) -> float:
        """Checksummed host->device copy with bounded retries.

        Checksums exist to catch *injected* transfer corruption; with no
        fault injector attached to the simulator nothing can corrupt the
        payload, so the CRC passes (two full passes over the data per
        hop) are skipped.  The retry accounting is identical either way.
        Returns the simulated seconds (synchronous) or the completion
        time on ``stream``.
        """
        return self._transfer("h2d", host, dev, host, dev.data, label, stream)

    def d2h(
        self,
        dev: DeviceArray,
        host: np.ndarray,
        label: str = "d2h",
        stream: int | None = None,
    ) -> float:
        """Checksummed device->host copy; as :meth:`h2d` otherwise."""
        return self._transfer("d2h", dev, host, dev.data, host, label, stream)

    def _transfer(self, direction, src, dst, payload, landed, label, stream):
        """Issue ``direction`` (sync or on ``stream``) until it lands intact."""
        expected = (
            checksum(_as_payload(payload, landed.shape, landed.dtype))
            if self.sim.faults is not None
            else None
        )
        if stream is None:
            op = partial(getattr(self.sim, direction), src, dst, label)
        else:
            issue = getattr(self.sim, f"async_{direction}")
            op = partial(issue, src, dst, stream, label)
        last = self.policy.max_attempts - 1
        for attempt in range(self.policy.max_attempts):
            self.report.attempts += 1
            try:
                t = op()
            except TransferError:
                if attempt == last:
                    raise
                self.backoff(attempt, "transfer")
                continue
            if expected is None or checksum(landed) == expected:
                return t
            self.report.checksum_failures += 1
            if attempt == last:
                raise CorruptionError(
                    f"{direction} {label!r}: checksum mismatch persisted through "
                    f"{self.policy.max_attempts} attempts"
                )
            self.backoff(attempt, "corruption")
        raise AssertionError("unreachable")

    # ------------------------------------------------------------------
    # Launches
    # ------------------------------------------------------------------

    def launch(
        self, spec: KernelSpec, body=None, *args, stream: int | None = None, **kwargs
    ) -> KernelTiming:
        """Launch a spec'd kernel, retrying rejected launches."""
        if stream is None:
            op = partial(self.sim.launch, spec, body, *args, **kwargs)
        else:
            op = partial(self.sim.async_launch, spec, stream, body, *args, **kwargs)
        return self._retry_launch(op)

    def launch_timed(
        self, label: str, seconds: float, body=None, *args, **kwargs
    ) -> float:
        """Launch with precomputed timing, retrying rejected launches."""
        return self._retry_launch(
            partial(self.sim.launch_timed, label, seconds, body, *args, **kwargs)
        )

    def _retry_launch(self, op: Callable[[], object]):
        last = self.policy.max_attempts - 1
        for attempt in range(self.policy.max_attempts):
            self.report.attempts += 1
            try:
                return op()
            except KernelLaunchError:
                if attempt == last:
                    raise
                self.backoff(attempt, "launch")
        raise AssertionError("unreachable")


def host_transform(
    executor: ResilientExecutor,
    x: np.ndarray,
    inverse: bool,
    reason: str,
    label: str,
) -> np.ndarray:
    """Graceful degradation: the host reference transform of ``x``.

    The one host fallback every device path shares.  The downgrade is
    recorded on the executor's report, a lost device is reset (its
    allocations die with it), and the transform is charged to the
    simulated timeline as host time at the FFTW baseline's sustained
    rate.  Returns the un-normalized transform.
    """
    from repro.baselines.fftw_cpu import FftwCpuBaseline

    sim, report = executor.sim, executor.report
    report.downgrades.append(f"host-fallback: {reason}")
    if sim.device_lost:
        sim.reset_device()
        report.device_resets += 1
    precision = "single" if x.dtype == np.complex64 else "double"
    rate = FftwCpuBaseline(precision=precision).sustained_gflops(x.shape)
    nz, ny, nx = x.shape
    sim.charge(label, flops_3d_fft(nx, ny, nz) / (rate * 1e9), "host")
    plan = PlanND(x.shape, precision=precision)
    if inverse:
        return np.conj(plan.execute(np.conj(x)))
    return plan.execute(x)


# ----------------------------------------------------------------------
# Checkpointed out-of-core execution
# ----------------------------------------------------------------------


def run_out_of_core(
    plan: OutOfCorePlan,
    est: OutOfCoreEstimate,
    x: np.ndarray,
    executor: ResilientExecutor,
    verify: bool = False,
    name: str = "ooc",
    workspace=None,
) -> np.ndarray:
    """Forward out-of-core transform, staged through the simulator.

    Functionally identical to :meth:`OutOfCorePlan.execute` but every
    slab and plane group genuinely crosses the simulated PCIe link
    through device buffers, with the estimator's per-phase times charged
    as individual kernel launches.  The host-side ``work`` array holds
    completed stage-1 slabs and stage-2 plane groups — the checkpoints: a
    :class:`~repro.gpu.faults.DeviceLostError` mid-run triggers a device
    reset and resumption from the first incomplete unit rather than a
    restart.  After ``policy.max_device_resets`` losses the error
    propagates so the caller can degrade to the host plan.

    Returns the un-normalized forward transform (callers apply norms, and
    handle the inverse by conjugation as usual).

    The slab staging and d2h buffers are allocated once and recycled
    across every slab, group and checkpoint resume; ``workspace`` (a
    :class:`~repro.core.workspace.Workspace`) additionally routes the
    per-slab five-step transforms through the pooled zero-allocation
    path.  Results are identical with or without it.
    """
    sim = executor.sim
    policy = executor.policy
    report = executor.report
    x = as_complex_array(x, plan.precision)
    if x.shape != plan.shape:
        raise ValueError(f"plan is for shape {plan.shape}, got {x.shape}")
    nz, ny, nx = plan.shape
    s = plan.n_slabs
    sub_nz = nz // s
    dtype = x.dtype
    link = sim.pcie
    slab_plan = plan.slab_plan()
    n_slab = sub_nz * ny * nx

    fft_t = est.stage1_fft / s
    tw_t = est.stage1_twiddle / s
    s2_t = est.stage2_fft / sub_nz

    work = np.empty_like(x)
    result = np.empty_like(x)
    s1_done = [False] * s
    s2_done = [False] * sub_nz
    resets = 0

    # Staging buffers, allocated once and recycled across every slab and
    # plane group (and across checkpoint resumes).
    slab_buf = np.empty(plan.slab_shape, dtype)
    slab_tmp = np.empty(plan.slab_shape, dtype)
    group_tmp = np.empty((s, ny, nx), dtype)

    def run_slab_fft(dev: DeviceArray) -> None:
        # In-place on the device buffer: the five-step plan reads its
        # input before the final step writes, so out may alias x.
        if workspace is not None and isinstance(slab_plan, FiveStepPlan):
            slab_plan.execute(dev.data, workspace=workspace, out=dev.data)
        else:
            dev.data[...] = slab_plan.execute(dev.data)

    def plane_setup(label: str, n_planes: int, kind: str) -> None:
        # The paper stages each XY plane as its own transfer; the slab
        # copy above charged one setup, so account the remaining ones.
        if n_planes > 1:
            sim.charge(label, (n_planes - 1) * link.setup_s, kind)

    def stage1() -> None:
        dev = sim.allocate(plan.slab_shape, dtype, f"{name}-slab")
        try:
            for i in range(s):
                if s1_done[i]:
                    continue
                with sim.annotate(stage="s1", slab=i):
                    np.copyto(slab_buf, x[i::s])
                    slab = slab_buf
                    e_in = _energy(slab)
                    last = policy.max_attempts - 1
                    for attempt in range(policy.max_attempts):
                        executor.h2d(slab, dev, f"{name}-s1-h2d[{i}]")
                        plane_setup(f"{name}-s1-h2d[{i}]-planes", sub_nz, "h2d")
                        executor.launch_timed(
                            f"{name}-s1-fft[{i}]",
                            fft_t,
                            lambda: run_slab_fft(dev),
                        )
                        executor.launch_timed(
                            f"{name}-s1-twiddle[{i}]",
                            tw_t,
                            lambda: dev.data.__imul__(plan.stage1_twiddles(i)),
                        )
                        if not verify or energy_preserved(
                            e_in, _energy(dev.data), float(n_slab)
                        ):
                            break
                        if attempt == last:
                            raise CorruptionError(
                                f"stage-1 slab {i}: energy invariant violated "
                                f"through {policy.max_attempts} attempts"
                            )
                        executor.backoff(attempt, "ecc")
                    executor.d2h(dev, slab_tmp, f"{name}-s1-d2h[{i}]")
                    plane_setup(f"{name}-s1-d2h[{i}]-planes", sub_nz, "d2h")
                    work[i::s] = slab_tmp
                    s1_done[i] = True
        finally:
            if sim.is_allocated(dev):
                sim.free(dev)

    def stage2() -> None:
        dev = sim.allocate((s, ny, nx), dtype, f"{name}-group")
        try:
            for k in range(sub_nz):
                if s2_done[k]:
                    continue
                with sim.annotate(stage="s2", group=k):
                    group = np.ascontiguousarray(work[k * s : (k + 1) * s])
                    e_in = _energy(group)
                    last = policy.max_attempts - 1
                    for attempt in range(policy.max_attempts):
                        executor.h2d(group, dev, f"{name}-s2-h2d[{k}]")
                        plane_setup(f"{name}-s2-h2d[{k}]-planes", s, "h2d")
                        executor.launch_timed(
                            f"{name}-s2-fft[{k}]",
                            s2_t,
                            lambda: dev.data.__setitem__(
                                ..., plan.stage2_compute(dev.data)
                            ),
                        )
                        if not verify or energy_preserved(
                            e_in, _energy(dev.data), float(s)
                        ):
                            break
                        if attempt == last:
                            raise CorruptionError(
                                f"stage-2 group {k}: energy invariant violated "
                                f"through {policy.max_attempts} attempts"
                            )
                        executor.backoff(attempt, "ecc")
                    executor.d2h(dev, group_tmp, f"{name}-s2-d2h[{k}]")
                    plane_setup(f"{name}-s2-d2h[{k}]-planes", s, "d2h")
                    result[k::sub_nz] = group_tmp
                    s2_done[k] = True
        finally:
            if sim.is_allocated(dev):
                sim.free(dev)

    while True:
        try:
            stage1()
            stage2()
            return result
        except DeviceLostError:
            resets += 1
            report.device_resets += 1
            if resets > policy.max_device_resets:
                raise
            sim.reset_device()
            report.checkpoint_restores += 1
