"""One benchmark process: set up a workload, then (optionally) measure it.

Started by ``perfbench/run.py``, which times process start to the
``READY`` line as set-up time.  A ``setup`` process exits right there; the
``measure`` process goes on to run the workload and prints its result as
the last line of its output.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
from pathlib import Path

from pbench import layers
from pbench.stats import InsufficientSamples, percentile
from pbench.trace import Tracer, _now

#: |traced path sum / untraced per-request time - 1| beyond this marks the
#: traced run invalid (its per-layer numbers no longer add up).
PATH_BOUND = 0.25
#: Generator lateness (p95) beyond which a traced run is invalid, as a
#: share of the untraced median latency.
LAG_BOUND = 0.25


#: Workload name -> (module, class); each imports only what it runs.
WORKLOADS = {
    "gateway_64": ("pbench.serving", "GatewayWorkload"),
    "paper_harness": ("pbench.harness", "HarnessWorkload"),
}


def make_workload(name: str, seed: int):
    module, cls = WORKLOADS[name]
    return getattr(importlib.import_module(module), cls)(seed)


def tail(samples, q: float = 95.0) -> tuple[float, str]:
    """The ``q``-th percentile, or the maximum when the sample is too small."""
    try:
        return percentile(samples, q), f"p{q:g}"
    except InsufficientSamples:
        return max(samples), "max"


def end_to_end(res) -> tuple[dict, dict]:
    """The end-to-end metrics one run reports, and their sample counts."""
    p95, source = tail(res.latencies)
    metrics = {
        "throughput_rps": statistics.median(ok / seconds for seconds, ok in res.passes),
        "harness_s": statistics.median(seconds for seconds, _ in res.passes),
        "success_frac": (res.attempted - res.failed) / res.attempted,
    }
    # Open-loop latency is reported, not gated: on a shared machine it
    # tracks the neighbours' load more than the program does (see
    # perfbench/README.md).
    samples = {
        "latency": len(res.latencies),
        "latency_p50_ms": 1e3 * statistics.median(res.latencies),
        "latency_p95_ms": 1e3 * p95,
        "latency_p95_source": source,
        "passes": len(res.passes),
        "attempted": res.attempted,
    }
    return metrics, samples


def server_deltas(res) -> dict:
    if res.stats_before is None:
        return {}
    before, after = res.stats_before, res.stats_after
    batches = after.batches - before.batches
    done = after.completed - before.completed
    return {
        "batches": batches,
        "batch_size_mean": done / batches if batches else 0.0,
        "rejected": after.rejected_total - before.rejected_total,
        "sim_seconds": res.sim_seconds,
    }


def traced(wl, tracer: Tracer, seconds: float, spans_file: Path) -> tuple[dict, dict, object]:
    """Half the time untraced, half traced; per-layer metrics and checks."""
    base = wl.run(seconds / 2)
    layers.install(tracer)
    try:
        res = wl.run(seconds / 2, tracer)
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    sums = layers.path_sums(spans)
    untraced = base.latencies  # per operation: open-loop request or harness pass
    ratio = statistics.median(sums) / statistics.median(untraced) if sums else 0.0
    overhead = statistics.median(res.latencies) / statistics.median(untraced) - 1
    lag_p95 = tail(res.lags)[0] if res.lags else 0.0
    lag_ok = lag_p95 <= LAG_BOUND * statistics.median(untraced)
    extra = dict(server_deltas(res))
    extra.update(
        lag_p95_ms=1e3 * lag_p95,
        overhead_pct=100 * overhead,
        path_sum_ratio=ratio,
        valid=lag_ok and abs(ratio - 1) <= PATH_BOUND,
    )
    metrics = layers.layer_metrics(spans, tracer.counts, res.attempted, extra)
    tracer.write(spans_file)
    detail = {
        "untraced_per_op_ms": 1e3 * statistics.median(untraced),
        "path_sum_ms": 1e3 * statistics.median(sums) if sums else 0.0,
        "path_bound": PATH_BOUND,
        "lag_bound_ms": 1e3 * LAG_BOUND * statistics.median(untraced),
        "spans": len(spans),
        "spans_file": str(spans_file),
    }
    attempted = base.attempted + res.attempted
    failed = base.failed + res.failed
    return metrics, detail, (attempted, failed)


def environment(wl, cache_was_empty: bool) -> dict:
    """Where the result was taken; results on another backend are incomparable."""
    import platform

    import numpy as np

    from repro import jit
    from repro.core.five_step import resolve_plan_backend

    backends = {
        "x".join(map(str, s)): resolve_plan_backend(s, "auto") for s in wl.plan_shapes()
    }
    modes = None
    if "cjit" in backends.values():
        from repro.jit import cc

        modes = cc.cmul_modes()
    cache = Path(os.environ["REPRO_JIT_CACHE"])
    libraries = sorted(p.name for p in cache.glob("*.so")) if cache.is_dir() else []
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "auto_backend": jit.resolve_backend("auto"),
        "plan_backends": backends,
        "cmul_modes": modes,
        "jit_cache": {"empty_at_start": cache_was_empty, "libraries": libraries},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "measure"), default="measure")
    ap.add_argument("--spans", type=Path, required=True)
    args = ap.parse_args(argv)

    cache = Path(os.environ["REPRO_JIT_CACHE"])
    cache_was_empty = not cache.exists() or not any(cache.iterdir())
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        from repro.core.plan_cache import PLAN_CACHE

        def on_compile(outcome, backend=None, seconds=None):
            if outcome == "compiles":
                tracer.count("jit.compile_s", seconds or 0.0)

        PLAN_CACHE.add_observer(on_compile)

    wl = make_workload(args.workload, args.seed)
    wl.setup()
    print(f"READY {_now()!r}", flush=True)
    if args.role == "setup":
        wl.close()
        return 0

    wl.prepare()
    try:
        if tracer is None:
            res = wl.run(args.seconds)
            metrics, samples = end_to_end(res)
            detail = {"samples": samples}
            attempted, failed = res.attempted, res.failed
        else:
            metrics, detail, (attempted, failed) = traced(
                wl, tracer, args.seconds, args.spans
            )
    finally:
        wl.close()
    if tracer is None:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    detail["env"] = environment(wl, cache_was_empty)
    print(
        json.dumps(
            {"metrics": metrics, "attempted": attempted, "failed": failed, "detail": detail}
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
