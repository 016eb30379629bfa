"""The per-layer view: which ``repro`` entry points are wrapped, and the
per-layer metrics computed from the spans they record.

``perfbench/layers.json`` names every metric, its unit, the entry point
it comes from and the end-to-end metric it should move on which
workload; ``BENCHMARK.json``'s ``per_layer`` list is the same names.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

from pbench.trace import Span, Tracer, _now, children, self_seconds

__all__ = ["LAYER_MAP", "install", "layer_metrics", "path_sums"]

#: The per-layer metric table (name, unit, better, source, moves).
LAYER_MAP = json.loads(
    (Path(__file__).resolve().parent.parent / "layers.json").read_text()
)["per_layer"]

#: Span name of a request's (or a harness pass's) end-to-end interval.
ROOT = "request"


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer (untraced code is untouched)."""
    from repro.core.api import GpuFFT3D
    from repro.core.batch import BatchedGpuFFT3D
    from repro.core.five_step import FiveStepPlan
    from repro.gpu.dram import DramModel
    from repro.gpu.memsystem import MemorySystem
    from repro.gpu.simulator import DeviceSimulator
    from repro.harness import experiments
    from repro.serve import gateway as gateway_mod
    from repro.serve.httpd import HttpClient
    from repro.serve.server import FFTServer
    from repro.serve.wire import SubmitBody

    # loadgen: the HTTP client's own framing, keyed by the request id it sends.
    request = HttpClient.__dict__["request"]

    async def client_shim(self, method, path, headers=None, body=b""):
        rid = (int(headers["x-bench-rid"]),) if headers and "x-bench-rid" in headers else ()
        return await tracer.acall(
            "loadgen.client", request, (self, method, path, headers, body), {}, rid
        )

    tracer.patch(HttpClient, "request", client_shim)

    # serve.wire: parse and encode, at the names the gateway resolves.
    parse = SubmitBody.__dict__["parse"].__func__

    def parse_shim(cls, raw, max_bytes=None):
        tracer.count("serve.wire.bytes", len(raw))
        return tracer.call("serve.wire.parse", parse, (cls, raw, max_bytes), {})

    tracer.patch(SubmitBody, "parse", classmethod(parse_shim))
    encode = gateway_mod.encode_array

    def encode_shim(x):
        cur = tracer.current
        if cur is not None and cur.wait is not None:
            tracer.close(cur.wait)  # the gateway resumed: its await is over
            cur.wait = None
        out = tracer.call("serve.wire.encode", encode, (x,), {})
        tracer.count("serve.wire.bytes", len(out))
        return out

    tracer.patch(gateway_mod, "encode_array", encode_shim)

    # serve.gateway: the ASGI call, keyed by the generator's request id.
    gw_call = gateway_mod.Gateway.__dict__["__call__"]

    async def gateway_shim(self, scope, receive, send):
        if scope.get("type") != "http":
            return await gw_call(self, scope, receive, send)
        rid = ()
        for k, v in scope.get("headers", ()):
            if k == b"x-bench-rid":
                rid = (int(v),)
        rid_token = tracer.rid.set(rid)
        try:
            return await tracer.acall(
                "serve.gateway", gw_call, (self, scope, receive, send), {}
            )
        finally:
            tracer.rid.reset(rid_token)

    tracer.patch(gateway_mod.Gateway, "__call__", gateway_shim)

    # serve.server: admission, then the wait until an engine picks it up.
    submit = FFTServer.__dict__["submit"]
    # id(array) -> [request ids, submit return time]; entered before
    # submit, since the dispatcher may start the execute before it returns.
    queued: dict[int, list] = {}

    def submit_shim(self, request):
        key = id(request.x)
        entry = queued[key] = [tracer.rid.get(), None]
        try:
            fut = tracer.call("serve.server.admit", submit, (self, request), {})
        except Exception:
            queued.pop(key, None)
            tracer.count("serve.server.rejected")
            raise
        cur = tracer.current
        span = tracer.open("serve.gateway.wait") if cur is not None else None
        if span is not None:
            cur.wait = span
        entry[1] = span.start if span else _now()
        return fut

    tracer.patch(FFTServer, "submit", submit_shim)

    # core: the engines' execute, minus the child spans below it.
    def engine_shim(execute):
        def shim(self, xs, *args, **kwargs):
            start = _now()
            rids: list = []
            for x in xs if isinstance(xs, list) else (xs,):
                entry = queued.pop(id(x), None)
                if entry is not None:
                    rids.extend(entry[0])
                    # An execute that began before submit returned waited 0.
                    queued_at = start if entry[1] is None else min(entry[1], start)
                    tracer.record("serve.server.queue_wait", queued_at, start, entry[0])
            return tracer.call("core.execute", execute, (self, xs, *args), kwargs, tuple(rids))

        return shim

    tracer.patch(GpuFFT3D, "execute", engine_shim(GpuFFT3D.__dict__["execute"]))
    tracer.patch(
        BatchedGpuFFT3D, "execute", engine_shim(BatchedGpuFFT3D.__dict__["execute"])
    )
    tracer.wrap(FiveStepPlan, "execute", "core.five_step")

    # gpu.simulator, gpu.memsystem, gpu.dram.
    for attr in ("launch", "async_launch"):
        tracer.wrap(DeviceSimulator, attr, "gpu.simulator.launch")
    for attr in ("h2d", "d2h", "async_h2d", "async_d2h"):
        tracer.wrap(DeviceSimulator, attr, "gpu.simulator.transfer")
    tracer.wrap(MemorySystem, "trace_timing", "gpu.memsystem.trace_timing")
    tracer.wrap(DramModel, "evaluate", "gpu.dram.evaluate")

    # harness: one span per experiment, named after it.
    run_experiment = experiments.run_experiment

    def experiment_shim(exp_id):
        return tracer.call(f"harness.{exp_id}", run_experiment, (exp_id,), {})

    tracer.patch(experiments, "run_experiment", experiment_shim)


def path_sums(spans: list[Span]) -> list[float]:
    """Per root request: the layers' self times along its blocking path, summed.

    A request's path is every span tagged with its id plus their
    descendants.  A span opened on another thread or task has no parent
    in its own context; it is adopted by the smallest span of the same
    request that contains it.  Self times are clipped at zero and the
    root's own (unattributed) time is left out, so the sum falls short of
    the request's time by what no layer accounts for, and exceeds it when
    two spans claim the same time.
    """
    kids = children(spans)
    by_rid: dict[object, list[Span]] = defaultdict(list)
    roots: dict[object, Span] = {}
    for span in spans:
        for rid in span.rids:
            if span.name == ROOT:
                roots[rid] = span
            else:
                by_rid[rid].append(span)
    sums = []
    for rid, root in roots.items():
        members: dict[int, Span] = {root.sid: root}
        stack = list(by_rid.get(rid, ()))
        while stack:
            span = stack.pop()
            if span.sid in members:
                continue
            members[span.sid] = span
            stack.extend(kids.get(span.sid, ()))
        tagged = [root] + by_rid.get(rid, [])
        child_time: dict[int, float] = defaultdict(float)
        for span in members.values():
            if span is root:
                continue
            parent = span.parent if span.parent in members else None
            if parent is None:
                best = root
                for cand in tagged:
                    if (
                        cand is not span
                        and cand.start <= span.start
                        and span.end <= cand.end
                        and span.seconds <= cand.seconds < best.seconds
                    ):
                        best = cand
                parent = best.sid
            child_time[parent] += span.seconds
        sums.append(
            sum(
                max(0.0, s.seconds - child_time[s.sid])
                for s in members.values()
                if s is not root
            )
        )
    return sums


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(
    spans: list[Span], counts: dict, n_ops: int, extra: dict
) -> dict[str, float]:
    """Every per-layer metric in :data:`LAYER_MAP` from one traced phase.

    Times are means per call of the wrapped entry point; ``*_calls`` and
    other counts are per operation (a request, or a harness pass).
    ``extra`` carries what the workload measured itself (server stats
    deltas, simulated seconds, generator lag, tracing overhead).
    """
    names: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        names[span.name].append(span)
    selfs = self_seconds(spans, children(spans))
    # The gateway runs on another thread: its time inside a client call
    # is the server's, the rest is the client's framing and the socket.
    served = {s.rids: s.seconds for s in names.get("serve.gateway", ())}
    client_self_ms = 1e3 * _mean(
        [s.seconds - served.get(s.rids, 0.0) for s in names.get("loadgen.client", ())]
    )
    ops = max(n_ops, 1)

    def dur_ms(name):
        return 1e3 * _mean([s.seconds for s in names.get(name, ())])

    def self_ms(name):
        return 1e3 * _mean([selfs[s.sid] for s in names.get(name, ())])

    def per_op(name):
        return len(names.get(name, ())) / ops

    from repro.core.plan_cache import PLAN_CACHE

    cache = PLAN_CACHE.stats
    values = {
        "loadgen.lag_p95_ms": extra.get("lag_p95_ms", 0.0),
        "loadgen.client_self_ms": client_self_ms,
        "serve.wire.parse_ms": dur_ms("serve.wire.parse"),
        "serve.wire.encode_ms": dur_ms("serve.wire.encode"),
        "serve.wire.bytes_per_req": counts.get("serve.wire.bytes", 0.0) / ops,
        "serve.gateway.self_ms": self_ms("serve.gateway"),
        "serve.gateway.wait_ms": dur_ms("serve.gateway.wait"),
        "serve.server.admit_ms": dur_ms("serve.server.admit"),
        "serve.server.queue_wait_ms": dur_ms("serve.server.queue_wait"),
        "serve.server.batch_size_mean": extra.get("batch_size_mean", 0.0),
        "serve.server.batches": extra.get("batches", 0) / ops,
        "serve.server.rejected": extra.get("rejected", 0) / ops,
        "core.execute_ms": dur_ms("core.execute"),
        "core.self_ms": self_ms("core.execute"),
        "core.plan_builds": float(cache.misses),
        "core.plan_cache_hit_ratio": cache.hits / cache.requests if cache.requests else 0.0,
        "core.five_step.execute_ms": dur_ms("core.five_step"),
        "core.five_step.calls": per_op("core.five_step"),
        "jit.compile_s": counts.get("jit.compile_s", 0.0),
        "gpu.simulator.launch_self_ms": self_ms("gpu.simulator.launch"),
        "gpu.simulator.launches": per_op("gpu.simulator.launch"),
        "gpu.simulator.transfer_ms": dur_ms("gpu.simulator.transfer"),
        "gpu.simulator.sim_seconds": extra.get("sim_seconds", 0.0) / ops,
        "gpu.memsystem.trace_timing_ms": self_ms("gpu.memsystem.trace_timing"),
        "gpu.memsystem.trace_timing_calls": per_op("gpu.memsystem.trace_timing"),
        "gpu.dram.evaluate_s": dur_ms("gpu.dram.evaluate") / 1e3,
        "gpu.dram.evaluate_calls": per_op("gpu.dram.evaluate"),
        "harness.table4_s": dur_ms("harness.table4") / 1e3,
        "harness.table7_s": dur_ms("harness.table7") / 1e3,
        "harness.fig2_s": dur_ms("harness.fig2") / 1e3,
        "trace.overhead_pct": extra.get("overhead_pct", 0.0),
        "trace.path_sum_ratio": extra.get("path_sum_ratio", 0.0),
        "trace.valid": 1.0 if extra.get("valid") else 0.0,
    }
    missing = [m["name"] for m in LAYER_MAP if m["name"] not in values]
    if missing:
        raise KeyError(f"layers.json names metrics with no source: {missing}")
    return {m["name"]: values[m["name"]] for m in LAYER_MAP}
