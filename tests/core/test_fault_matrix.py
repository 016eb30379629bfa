"""Fault class x entry point: every cell recovers exactly or fails typed.

Each fault kind is injected (rates 0.25 and 0.6, several seeds each; the
higher rate exhausts retry budgets) into three entry
points that all run the one in-core engine: a standalone ``GpuFFT3D``
transform (a batch of one), a ``BatchedGpuFFT3D`` batch of three, and a
singleton ``FFTServer`` dispatch.  Every run must end in one of:

* a spectrum bitwise equal to the fault-free device spectrum;
* a *recorded* host degradation whose spectrum is bitwise equal to the
  fault-free host reference (``force_host=True``) — never silent;
* a typed error (:class:`~repro.gpu.faults.FaultError` or a
  :class:`~repro.serve.errors.ServeError` carrying an ``ErrorCode``).
"""

import numpy as np
import pytest

from repro.core.api import GpuFFT3D
from repro.core.batch import BatchedGpuFFT3D
from repro.gpu.faults import FAULT_KINDS, FaultError, FaultInjector, FaultSpec
from repro.serve import CoalescePolicy, FFTRequest, FFTServer
from repro.serve.codes import ErrorCode
from repro.serve.errors import ServeError

SHAPE = (16, 16, 16)
#: (rate, seed) runs per cell.
RUNS = [(rate, seed) for rate in (0.25, 0.6) for seed in range(4)]


@pytest.fixture(scope="module")
def grids():
    rng = np.random.default_rng(1212)
    xs = (
        rng.standard_normal((3, *SHAPE)) + 1j * rng.standard_normal((3, *SHAPE))
    ).astype(np.complex64)
    with BatchedGpuFFT3D(SHAPE) as clean:
        device = clean.forward(xs)
        host = clean.execute(xs, force_host=True)
    return xs, device, host


def _single(inj, xs):
    with GpuFFT3D(SHAPE, fault_injector=inj) as plan:
        return plan.forward(xs[0])[None], plan.resilience.degraded


def _batch(inj, xs):
    with BatchedGpuFFT3D(SHAPE, fault_injector=inj) as plan:
        return plan.forward(xs), plan.resilience.degraded


def _server(inj, xs):
    with FFTServer(
        start=False,
        fault_injector=inj,
        coalesce=CoalescePolicy(max_batch=1, max_wait_s=0.0),
    ) as srv:
        fut = srv.submit(FFTRequest(xs[0]))
        srv.run_pending()
    exc = fut.exception()
    if exc is not None:
        raise exc
    return fut.result()[None], fut.faulted


ENTRY_POINTS = {"single": _single, "batch3": _batch, "server1": _server}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_cell_recovers_bitwise_or_fails_typed(grids, kind, entry):
    xs, device, host = grids
    fired = 0
    for rate, seed in RUNS:
        inj = FaultInjector([FaultSpec(kind, rate=rate)], seed=seed)
        try:
            outs, degraded = ENTRY_POINTS[entry](inj, xs)
        except (FaultError, ServeError) as exc:
            if isinstance(exc, ServeError):
                assert exc.reason in set(ErrorCode)
            fired += len(inj.records)
            continue
        fired += len(inj.records)
        for i, out in enumerate(outs):
            if np.array_equal(out, device[i]):
                continue
            assert degraded, f"seed {seed} entry {i}: silent wrong spectrum"
            assert np.array_equal(out, host[i]), f"seed {seed} entry {i}"
    assert fired, "no fault fired in any seed: the cell tested nothing"


def test_ecc_upset_on_last_launch_is_retried(grids):
    """The batch engine transforms in place, so a bit flip during the last
    of the five launches lands on the live spectrum.  The Parseval check
    catches it and the entry is re-run: one ECC retry, exact result."""
    xs, device, _ = grids
    inj = FaultInjector([FaultSpec("ecc-bitflip", at_ops=(4,))], seed=1)
    with GpuFFT3D(SHAPE, fault_injector=inj) as plan:
        out = plan.forward(xs[0])
        report = plan.resilience_report()
    assert [r.op_index for r in inj.records] == [4]
    assert report.retries == {"ecc": 1}
    assert not report.degraded
    assert np.array_equal(out, device[0])


def test_failed_work_allocation_leaves_no_orphan_buffer(grids):
    """A WORK allocation that exhausts its retries must free the slot's V
    buffer, or the plan's next transform collides with its name."""
    xs, device, _ = grids
    inj = FaultInjector([FaultSpec("alloc-fail", at_ops=(1, 2, 3, 4))], seed=0)
    with GpuFFT3D(SHAPE, fault_injector=inj) as plan:
        plan.forward(xs[0])  # WORK never allocates: degraded to the host
        assert plan.resilience.degraded
        assert plan.simulator.used_bytes == 0
        assert np.array_equal(plan.forward(xs[0]), device[0])
