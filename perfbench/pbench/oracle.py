"""Expected outputs: the library's own engine, checked against NumPy.

A served response is correct only when it is bitwise equal to
:class:`repro.core.api.GpuFFT3D` on the same resolved backend *and* that
reference is within a relative L2 error of ``numpy.fft`` (1e-5 single,
1e-12 double).  References are computed once per distinct input, before
the timed phases.
"""

from __future__ import annotations

import numpy as np

__all__ = ["REL_L2", "rel_l2", "reference"]

#: Relative L2 bound against numpy.fft, per precision.
REL_L2 = {"single": 1e-5, "double": 1e-12}


def rel_l2(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300))


def reference(x: np.ndarray, precision: str, norm: str, inverse: bool) -> np.ndarray:
    """The expected spectrum of ``x`` from a standalone ``GpuFFT3D``.

    Raises ``ValueError`` when the engine itself disagrees with
    ``numpy.fft`` beyond :data:`REL_L2`: every response would then be
    wrong, so the run stops instead of timing it.
    """
    from repro.core.api import GpuFFT3D

    with GpuFFT3D(x.shape, precision=precision, norm=norm, backend="auto") as plan:
        out = plan.execute(x, inverse=inverse)
    oracle = np.fft.ifftn(x, norm=norm) if inverse else np.fft.fftn(x, norm=norm)
    err = rel_l2(out, oracle)
    if not err <= REL_L2[precision]:
        raise ValueError(
            f"GpuFFT3D {x.shape} {precision} {'inv' if inverse else 'fwd'} is "
            f"{err:.3g} from numpy.fft (bound {REL_L2[precision]:g})"
        )
    return out
