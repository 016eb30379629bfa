"""The benchmark's own checks.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pbench import layers, worker
from pbench.serving import GatewayWorkload, PhaseResult
from pbench.stats import InsufficientSamples, percentile
from pbench.trace import Span, Tracer

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    with pytest.raises(InsufficientSamples):
        percentile(range(199), 95)  # 9.95 samples beyond p95
    assert percentile(range(200), 95) == pytest.approx(189.05)
    with pytest.raises(InsufficientSamples):
        percentile(range(19), 50)
    assert percentile(range(1, 22), 50) == 11


def test_tail_falls_back_to_the_maximum_and_says_so():
    assert worker.tail(list(range(50))) == (49, "max")
    assert worker.tail(list(range(1000)))[1] == "p95"


# ----------------------------------------------------------------------
# Serving: coordinated omission and wrong outputs
# ----------------------------------------------------------------------


class _SmallGateway(GatewayWorkload):
    """The gated workload's generator on 16^3 grids, at a rate a test can afford."""

    N = 16
    N_INPUTS = 2
    OPEN_RPS = 200.0


@pytest.fixture(scope="module")
def small_gateway(tmp_path_factory, monkeypatch_module):
    monkeypatch_module.setenv("REPRO_JIT_CACHE", str(tmp_path_factory.mktemp("jit")))
    wl = _SmallGateway(seed=5)
    wl.setup()
    wl.prepare()
    yield wl
    wl.close()


@pytest.fixture(scope="module")
def monkeypatch_module():
    mp = pytest.MonkeyPatch()
    yield mp
    mp.undo()


def _patch_engines(monkeypatch, wrap) -> None:
    """Replace both engines' execute with ``wrap(original)``."""
    from repro.core.api import GpuFFT3D
    from repro.core.batch import BatchedGpuFFT3D

    for cls in (GpuFFT3D, BatchedGpuFFT3D):
        monkeypatch.setattr(cls, "execute", wrap(cls.execute))


def test_a_stalled_server_shows_as_latency_not_as_lower_load(small_gateway, monkeypatch):
    calm = PhaseResult()
    small_gateway.open_loop(1.0, calm)

    stalled_once = []

    def stall_first(original):
        def execute(self, *args, **kwargs):
            if not stalled_once:
                stalled_once.append(True)
                time.sleep(0.3)
            return original(self, *args, **kwargs)

        return execute

    _patch_engines(monkeypatch, stall_first)
    stalled = PhaseResult()
    small_gateway.open_loop(1.0, stalled)

    # The schedule does not bend to the stall: the same load is offered...
    assert stalled.attempted == calm.attempted == 200
    assert stalled.failed == calm.failed == 0
    # ...the sends due during it wait for a free connection...
    assert max(stalled.lags) >= 0.2 > max(calm.lags)
    # ...and each is timed from when it was due, not from when it was sent.
    p95_calm = percentile(calm.latencies, 95)
    p95_stalled = percentile(stalled.latencies, 95)
    assert p95_stalled > p95_calm + 0.1
    assert max(stalled.latencies) >= 0.25


def test_a_wrong_spectrum_counts_as_failed(small_gateway, monkeypatch):
    def corrupt(original):
        def execute(self, *args, **kwargs):
            out = original(self, *args, **kwargs)
            out += 1e-3  # wrong bits, though within rel-L2 1e-5 of numpy
            return out

        return execute

    _patch_engines(monkeypatch, corrupt)
    res = PhaseResult()
    small_gateway.open_loop(0.25, res)
    assert res.attempted == 50
    assert res.failed == res.attempted
    assert res.latencies == []
    passes = PhaseResult()
    small_gateway.closed_loop(0.25, passes)
    assert passes.attempted > 0 and passes.failed == passes.attempted


def test_a_harness_row_off_the_baseline_fails_its_pass():
    from pbench.harness import HarnessWorkload
    from repro.harness.regression import load_baseline

    wl = HarnessWorkload(seed=1)
    wl.setup()
    rows = load_baseline()["experiments"]["table7"]["rows"]
    assert wl._matches("table7", rows)
    device = next(iter(rows))
    rows[device]["step5_ms"] *= 1 + 1e-4
    assert not wl._matches("table7", rows)


def test_success_frac_counts_failures_against_attempts():
    res = PhaseResult()
    res.latencies = [0.001] * 40
    res.passes = [(0.5, 16), (0.4, 16), (0.8, 12)]
    res.attempted, res.failed = 80, 8
    metrics, samples = worker.end_to_end(res)
    assert metrics["success_frac"] == pytest.approx(0.9)
    assert metrics["harness_s"] == 0.5
    assert metrics["throughput_rps"] == pytest.approx(32.0)
    assert samples["latency_p95_source"] == "max"
    assert samples["latency_p50_ms"] == samples["latency_p95_ms"] == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------


def _span(sid, name, start, end, parent=None, rids=(7,)):
    return Span(sid, name, start, end, parent, rids)


def test_path_sum_counts_each_interval_once_and_leaves_out_the_rest():
    spans = [
        _span(1, "request", 0.0, 10.0),
        _span(2, "serve.gateway", 1.0, 9.0),
        _span(3, "serve.wire.parse", 1.0, 3.0, parent=2),
        _span(4, "serve.gateway.wait", 3.5, 8.5, parent=2),
        # Opened on the dispatcher thread on the request's behalf:
        _span(5, "serve.server.queue_wait", 3.5, 5.0),
        _span(6, "core.execute", 5.0, 8.0),
        _span(7, "core.five_step", 6.0, 7.0, parent=6, rids=()),
    ]
    # 10 s of request; 1 s before and after the gateway is unattributed.
    assert layers.path_sums(spans) == [pytest.approx(8.0)]


def test_path_sum_exposes_double_counting():
    spans = [
        _span(1, "request", 0.0, 10.0),
        _span(2, "core.execute", 1.0, 8.0),
        _span(3, "core.execute", 2.0, 9.0),  # overlaps the first
    ]
    assert layers.path_sums(spans) == [pytest.approx(14.0)]


def test_tracer_wraps_and_restores():
    class Thing:
        def work(self, x):
            return self.inner(x) + 1

        def inner(self, x):
            return 2 * x

    tracer = Tracer()
    original = Thing.__dict__["work"]
    tracer.wrap(Thing, "work", "thing.work")
    tracer.wrap(Thing, "inner", "thing.inner")
    assert Thing().work(1) == 3
    tracer.uninstall()
    assert Thing.__dict__["work"] is original
    inner, outer = tracer.spans()
    assert (inner.name, outer.name) == ("thing.inner", "thing.work")
    assert inner.parent == outer.sid and outer.parent is None
    assert all(type(t) is tuple for t in tracer._done)  # untracked by the GC


def test_layer_metrics_cover_layers_json():
    values = layers.layer_metrics([], {}, 1, {})
    assert list(values) == [m["name"] for m in layers.LAYER_MAP]


# ----------------------------------------------------------------------
# The contract
# ----------------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    sys.path.insert(0, str(BENCH))
    import run

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.UNITS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.UNITS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [
        {k: m[k] for k in ("name", "unit", "better")} for m in layers.LAYER_MAP
    ] == bench["per_layer"]
    moved = {mv["metric"] for m in layers.LAYER_MAP for mv in m["moves"]}
    assert moved <= set(run.UNITS)


def test_every_layer_claim_names_a_gated_workload():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = {w["name"] for w in bench["workloads"]}
    for m in layers.LAYER_MAP:
        named = {mv["workload"] for mv in m["moves"]} | set(m["flat"])
        assert named <= gated, m["name"]


def test_run_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gateway_64",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_request_scripts_follow_the_seed():
    a, b, c = _SmallGateway(3), _SmallGateway(3), _SmallGateway(4)
    assert a._script(20) == b._script(20) != c._script(20)
