"""The paper's contribution: the bandwidth-intensive five-step 3-D FFT.

* :mod:`repro.core.patterns` — the access-pattern taxonomy of Table 2 and
  the pattern-pair bandwidth experiment of Tables 3/4;
* :mod:`repro.core.kernels` — the five simulated CUDA kernels (functional
  NumPy bodies + KernelSpecs);
* :mod:`repro.core.five_step` — the five-step plan (Section 3.1),
  generalized to any power-of-two cube the paper evaluates (64^3, 128^3,
  256^3) and to non-cubic power-of-two shapes;
* :mod:`repro.core.nosharedmem` — the no-shared-memory variant (Table 9);
* :mod:`repro.core.twiddle_options` — twiddle-storage tradeoff (Sec. 3.2);
* :mod:`repro.core.out_of_core` — transforms larger than device memory
  (Section 3.3, Table 12);
* :mod:`repro.core.estimator` — end-to-end time/GFLOPS prediction;
* :mod:`repro.core.resilient` — retries, checksummed transfers and
  checkpoint/restart over the fault-injecting simulator;
* :mod:`repro.core.api` — the high-level :class:`GpuFFT3D` entry point
  (a batch of one on the in-core engine, or the out-of-core route);
* :mod:`repro.core.plan_cache` — process-wide plan/twiddle cache keyed by
  ``(shape, precision, device)``;
* :mod:`repro.core.batch` — :class:`BatchedGpuFFT3D`, the one in-core
  engine: stream-pipelined execution of N same-shape transforms through
  one resilient plan;
* :mod:`repro.core.workspace` — :class:`Workspace`, the per-plan arena
  of shape/dtype-keyed host buffers behind the zero-allocation
  steady-state execution path.
"""

from repro.core.patterns import (
    Pattern,
    PATTERNS,
    pattern_of_star_dim,
    pattern_pair_bandwidth,
    pattern_table,
)
from repro.core.five_step import FiveStepPlan, StepInfo
from repro.core.kernels import multirow_step_spec, shared_x_step_spec
from repro.core.estimator import FFT3DEstimate, estimate_fft3d, estimate_batch_1d
from repro.core.out_of_core import OutOfCorePlan, estimate_out_of_core
from repro.core.nosharedmem import NoSharedMemoryVariant, estimate_x_axis_variants
from repro.core.twiddle_options import TwiddleOption, TWIDDLE_OPTIONS, twiddle_cost
from repro.core.resilient import (
    ResilienceReport,
    ResilientExecutor,
    RetryPolicy,
    checksum,
    energy_preserved,
    run_out_of_core,
)
from repro.core.api import GpuFFT3D, gpu_fft3d, gpu_ifft3d
from repro.core.batch import BatchedGpuFFT3D, gpu_fft3d_batch
from repro.core.plan_cache import PLAN_CACHE, PlanCache, PlanCacheStats
from repro.core.workspace import Workspace, WorkspaceStats
from repro.core.accuracy import AccuracyReport, accuracy_sweep, measure_accuracy
from repro.core.multi_gpu import MultiGpuBatchEstimate, MultiGpuEstimate, MultiGpuFFT3D
from repro.core.tuner import TuneResult, tune_multirow_step
from repro.core.warp_kernels import (
    run_five_step_warp_level,
    run_multirow_step,
    run_shared_x_step,
)
from repro.core.validate_specs import (
    SpecValidation,
    validate_multirow_spec,
    validate_shared_spec,
)

__all__ = [
    "Pattern",
    "PATTERNS",
    "pattern_of_star_dim",
    "pattern_pair_bandwidth",
    "pattern_table",
    "FiveStepPlan",
    "StepInfo",
    "multirow_step_spec",
    "shared_x_step_spec",
    "FFT3DEstimate",
    "estimate_fft3d",
    "estimate_batch_1d",
    "OutOfCorePlan",
    "estimate_out_of_core",
    "NoSharedMemoryVariant",
    "estimate_x_axis_variants",
    "TwiddleOption",
    "TWIDDLE_OPTIONS",
    "twiddle_cost",
    "ResilienceReport",
    "ResilientExecutor",
    "RetryPolicy",
    "checksum",
    "energy_preserved",
    "run_out_of_core",
    "GpuFFT3D",
    "gpu_fft3d",
    "gpu_ifft3d",
    "BatchedGpuFFT3D",
    "gpu_fft3d_batch",
    "PLAN_CACHE",
    "PlanCache",
    "PlanCacheStats",
    "Workspace",
    "WorkspaceStats",
    "AccuracyReport",
    "accuracy_sweep",
    "measure_accuracy",
    "MultiGpuBatchEstimate",
    "MultiGpuEstimate",
    "MultiGpuFFT3D",
    "TuneResult",
    "tune_multirow_step",
    "run_five_step_warp_level",
    "run_multirow_step",
    "run_shared_x_step",
    "SpecValidation",
    "validate_multirow_spec",
    "validate_shared_spec",
]
