"""Metrics registry: counters, gauges and histograms with units.

The quantitative half of :mod:`repro.obs`.  Every metric is identified by
a name, a unit and an optional label set (``plan=batch0``), so one
registry aggregates the same quantity both process-wide (no labels) and
per plan — the split the span recorder in :class:`MetricsRegistry`
maintains automatically for every captured span.

Metric families
---------------

* :class:`Counter` — monotonically increasing totals (seconds per event
  kind, bytes per transfer direction, retries, plan-cache hits/misses);
* :class:`Gauge` — point-in-time values refreshed at snapshot time
  (simulated elapsed seconds, device memory in use, device resets);
* :class:`Histogram` — distributions over log-spaced buckets (achieved
  GB/s per kernel step and per PCIe direction).

Canonical names recorded from spans (see DESIGN.md §12 for the full
table): ``sim.kernel.seconds``, ``sim.h2d.seconds``, ``sim.d2h.seconds``,
``sim.host.seconds``, ``sim.backoff.seconds``, ``sim.h2d.bytes``,
``sim.d2h.bytes``, ``sim.kernel.bytes``, ``sim.kernel.flops``,
``sim.faulted.seconds``, ``sim.faulted.events``, ``sim.events``,
``sim.kernel.gbps``, ``sim.h2d.gbps``, ``sim.d2h.gbps``,
``plan_cache.hits``, ``plan_cache.misses``, ``plan_cache.evictions``,
``plan_cache.compiles``, ``plan_cache.fallbacks``, ``multigpu.replans``.

The serving layer (:mod:`repro.serve`) records its own family under the
``serve.`` prefix (DESIGN.md §13): ``serve.submitted``,
``serve.completed`` (also per ``tenant=`` label), ``serve.rejected``
(per ``reason=`` label), ``serve.expired``, ``serve.batches``,
``serve.queue.depth`` (gauge), ``serve.queue.wait.seconds``,
``serve.first_dispatch.seconds``, ``serve.latency.seconds`` and
``serve.batch.size`` (histograms, simulated device seconds).  The
fault-tolerant layer (DESIGN.md §15) adds ``serve.health.state`` (gauge,
state code per ``worker=``), ``serve.health.transitions`` (per
``worker=``/``to=``), ``serve.health.probes`` (per ``outcome=``),
``serve.health.absorbed``, ``serve.health.forced_host``,
``serve.breaker.open`` / ``serve.breaker.state`` (per ``worker=``),
``serve.requeue.requests``, ``serve.requeue.dropped`` (per
``reason=budget|deadline``) and ``serve.drains`` (per ``outcome=``).

:meth:`MetricsRegistry.snapshot` returns the whole registry as one plain
dict (JSON-safe) and :meth:`MetricsRegistry.render` as an aligned text
table for humans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


def _label_key(labels: dict[str, object] | None) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _label_suffix(key: tuple[tuple[str, str], ...]) -> str:
    if not key:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in key) + "}"


@dataclass
class Counter:
    """A monotonically increasing total (e.g. seconds, bytes, events)."""

    name: str
    unit: str = ""
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


@dataclass
class Gauge:
    """A point-in-time value (e.g. bytes in use, simulated elapsed)."""

    name: str
    unit: str = ""
    value: float = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = float(value)


@dataclass
class Histogram:
    """A distribution over log-spaced buckets plus count/sum/min/max.

    Buckets are decade-spaced powers of ten from 1e-9 to 1e12 — wide
    enough for seconds, bytes and GB/s alike without per-metric tuning.
    ``bucket_counts[i]`` counts observations ``<= bounds[i]``; the last
    slot is the overflow bucket.
    """

    name: str
    unit: str = ""
    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    bounds: tuple[float, ...] = tuple(10.0**e for e in range(-9, 13))
    bucket_counts: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.bucket_counts:
            self.bucket_counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate ``q``-th percentile (``q`` in [0, 100]).

        Resolution is the decade bucket width: the estimate interpolates
        linearly inside the bucket holding the rank, clamped to the
        observed min/max so small samples stay sane.  Good for p50/p99
        dashboards, not for sub-decade comparisons — keep raw samples
        when those matter.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        if not self.count:
            return 0.0
        rank = q / 100.0 * self.count
        seen = 0
        for i, n in enumerate(self.bucket_counts):
            if not n:
                continue
            if seen + n >= rank:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i] if i < len(self.bounds) else self.max
                frac = (rank - seen) / n
                est = lo + frac * (hi - lo)
                return min(max(est, self.min), self.max)
            seen += n
        return self.max


class MetricsRegistry:
    """Get-or-create store of named, labeled metrics.

    Metrics are keyed by ``(name, labels)``; requesting the same key
    twice returns the same object, so call sites never pre-register.
    The ``record_span`` entry point turns one tracer span into the
    canonical counter/histogram updates, each recorded twice: once
    process-wide and once under the span's ``plan`` label (when tagged).
    """

    def __init__(self) -> None:
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._histograms: dict[tuple, Histogram] = {}
        # record_span fast path: resolved counter bundles keyed by the
        # span's branch signature, so steady-state capture skips the
        # label-key construction in the get-or-create accessors.
        self._span_counters: dict[tuple, tuple] = {}

    # ------------------------------------------------------------------
    # Metric access
    # ------------------------------------------------------------------

    def counter(
        self, name: str, unit: str = "", labels: dict[str, object] | None = None
    ) -> Counter:
        """The counter for ``(name, labels)``, created on first use."""
        key = (name, _label_key(labels))
        c = self._counters.get(key)
        if c is None:
            c = self._counters[key] = Counter(name + _label_suffix(key[1]), unit)
        return c

    def gauge(
        self, name: str, unit: str = "", labels: dict[str, object] | None = None
    ) -> Gauge:
        """The gauge for ``(name, labels)``, created on first use."""
        key = (name, _label_key(labels))
        g = self._gauges.get(key)
        if g is None:
            g = self._gauges[key] = Gauge(name + _label_suffix(key[1]), unit)
        return g

    def histogram(
        self, name: str, unit: str = "", labels: dict[str, object] | None = None
    ) -> Histogram:
        """The histogram for ``(name, labels)``, created on first use."""
        key = (name, _label_key(labels))
        h = self._histograms.get(key)
        if h is None:
            h = self._histograms[key] = Histogram(name + _label_suffix(key[1]), unit)
        return h

    # ------------------------------------------------------------------
    # Span recording (the tracer's write path)
    # ------------------------------------------------------------------

    def record_span(self, span) -> None:
        """Fold one :class:`~repro.obs.tracer.Span` into the registry."""
        key = (
            span.kind,
            span.plan,
            span.faulted,
            bool(span.bytes_moved),
            bool(span.flops),
        )
        bundle = self._span_counters.get(key)
        if bundle is None:
            bundle = self._span_counters[key] = self._resolve_span_counters(key)
        events, seconds, byte_ctrs, flop_ctrs, f_events, f_seconds = bundle
        for c in events:
            c.inc()
        for c in seconds:
            c.inc(span.seconds)
        for c in byte_ctrs:
            c.inc(span.bytes_moved)
        for c in flop_ctrs:
            c.inc(span.flops)
        for c in f_events:
            c.inc()
        for c in f_seconds:
            c.inc(span.seconds)
        # Achieved bandwidth per step/direction, process-wide only: the
        # label here is the operation, not the owning plan.
        self._record_span_bandwidth(span)

    def _resolve_span_counters(self, key: tuple) -> tuple:
        """Counter bundle for one ``record_span`` branch signature.

        Resolving through :meth:`counter` keeps get-or-create identity:
        the cached objects are the same ones any later direct accessor
        call returns, and counters that a signature never touches (bytes
        on a zero-byte span, ``sim.faulted.*`` on a clean one) are never
        created — matching the uncached write path exactly.
        """
        kind, plan, faulted, has_bytes, has_flops = key
        scopes: list[dict[str, object] | None] = [None]
        if plan is not None:
            scopes.append({"plan": plan})
        events = [self.counter("sim.events", "events", s) for s in scopes]
        seconds = [self.counter(f"sim.{kind}.seconds", "s", s) for s in scopes]
        byte_ctrs = (
            [self.counter(f"sim.{kind}.bytes", "B", s) for s in scopes]
            if has_bytes and kind in ("h2d", "d2h", "kernel")
            else []
        )
        flop_ctrs = (
            [self.counter("sim.kernel.flops", "flop", s) for s in scopes]
            if has_flops and kind == "kernel"
            else []
        )
        f_events = (
            [self.counter("sim.faulted.events", "events", s) for s in scopes]
            if faulted
            else []
        )
        f_seconds = (
            [self.counter("sim.faulted.seconds", "s", s) for s in scopes]
            if faulted
            else []
        )
        return events, seconds, byte_ctrs, flop_ctrs, f_events, f_seconds

    def _record_span_bandwidth(self, span) -> None:
        """Observe achieved GB/s for one clean, byte-moving span."""
        if span.bytes_moved and span.seconds > 0 and not span.faulted:
            gbps = span.bytes_moved / span.seconds / 1e9
            if span.kind in ("h2d", "d2h"):
                self.histogram(f"sim.{span.kind}.gbps", "GB/s").observe(gbps)
            elif span.kind == "kernel":
                self.histogram(
                    "sim.kernel.gbps", "GB/s", {"step": span.label}
                ).observe(gbps)

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """The registry as one JSON-safe dict.

        Shape: ``{"counters": {name: {"value", "unit"}}, "gauges": {...},
        "histograms": {name: {"count", "sum", "min", "max", "mean",
        "unit"}}}`` with label suffixes baked into the names
        (``sim.h2d.seconds{plan=batch0}``).
        """
        counters = {
            c.name: {"value": c.value, "unit": c.unit}
            for c in self._counters.values()
        }
        gauges = {
            g.name: {"value": g.value, "unit": g.unit}
            for g in self._gauges.values()
        }
        histograms = {
            h.name: {
                "count": h.count,
                "sum": h.total,
                "min": h.min if h.count else None,
                "max": h.max if h.count else None,
                "mean": h.mean,
                "unit": h.unit,
            }
            for h in self._histograms.values()
        }
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": dict(sorted(histograms.items())),
        }

    def render(self) -> str:
        """Aligned text table of every metric, for terminal consumption."""
        rows: list[tuple[str, str, str]] = []
        for c in sorted(self._counters.values(), key=lambda m: m.name):
            rows.append((c.name, f"{c.value:.6g}", c.unit))
        for g in sorted(self._gauges.values(), key=lambda m: m.name):
            rows.append((g.name, f"{g.value:.6g}", g.unit))
        for h in sorted(self._histograms.values(), key=lambda m: m.name):
            if h.count:
                stat = (
                    f"n={h.count} mean={h.mean:.6g} "
                    f"min={h.min:.6g} max={h.max:.6g}"
                )
            else:
                stat = "n=0"
            rows.append((h.name, stat, h.unit))
        if not rows:
            return "(no metrics recorded)"
        width = max(len(name) for name, _, _ in rows)
        return "\n".join(
            f"{name:<{width}}  {value}" + (f" {unit}" if unit else "")
            for name, value, unit in rows
        )

    def clear(self) -> None:
        """Drop every metric (names included)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._span_counters.clear()

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)
