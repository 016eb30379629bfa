"""Order statistics for latency samples.

A tail percentile is only computed when the sample supports it: the
helper refuses any percentile with fewer than :data:`MIN_BEYOND` samples
beyond it, and the caller then reports the maximum under that name.
"""

from __future__ import annotations

import math

__all__ = ["MIN_BEYOND", "InsufficientSamples", "percentile"]

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """The sample is too small to support the requested percentile."""


def percentile(samples, q: float, min_beyond: int = MIN_BEYOND) -> float:
    """The ``q``-th percentile (0 < q < 100) by linear interpolation.

    Raises :class:`InsufficientSamples` when fewer than ``min_beyond``
    samples lie beyond it, i.e. when ``n * (1 - q/100) < min_beyond``.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    data = sorted(samples)
    n = len(data)
    beyond = n * (1.0 - q / 100.0)
    if beyond < min_beyond:
        raise InsufficientSamples(
            f"p{q:g} needs {min_beyond} samples beyond it; "
            f"{n} samples leave {beyond:.1f}"
        )
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)
