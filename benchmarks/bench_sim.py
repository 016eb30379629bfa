"""Simulator cost: the vectorized DRAM model vs the per-window reference loop.

Every table and figure of the paper harness is priced by
:class:`repro.gpu.dram.DramModel`, so its evaluation cost is the
harness's wall time.  This benchmark times the model on two fixed trace
sets, recorded by running the code that produces them:

* **stream_sweep** -- the Section 2.1 multi-stream copy sweep
  (``MemorySystem.stream_sweep`` on the 8800 GTX): long, mostly
  sequential traces with few activations;
* **table4** -- every trace one ``run_experiment("table4")`` pass
  evaluates: the 8800 GTX access-pattern mixes, activation-heavy.

Each set is evaluated by :class:`DramModel` and by the tests-only
``ReferenceDramModel`` (``tests/gpu/_dram_reference.py``, the loop over
reorder windows this model replaced), interleaved best-of-N on the
shared harness (``benchmarks/harness.py``).  Every ``TraceTiming`` the
two produce must be equal, field for field.  The full run also records
``scorecard()`` wall seconds with the model and with the reference
patched in.

CI smoke::

    python benchmarks/bench_sim.py --quick --check-against BENCH_sim.json

re-runs the quick workload and fails (exit 1) when a trace set's speedup
falls below ``REGRESSION_TOLERANCE`` (80%) of the committed baseline
(capped at ``SPEEDUP_BAR``), or when the two models disagree -- ratios,
not absolute times, so the gate holds across machines.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent

if __package__ in (None, ""):  # CLI: python benchmarks/bench_sim.py
    sys.path.insert(0, str(_ROOT))
    sys.path.insert(0, str(_ROOT / "src"))

from benchmarks.harness import best_of_interleaved
from repro.gpu import memsystem
from repro.gpu.dram import DramModel
from repro.gpu.memsystem import MemorySystem
from repro.gpu.specs import GEFORCE_8800_GTX
from repro.harness import experiments
from repro.harness.scorecard import scorecard
from tests.gpu._dram_reference import ReferenceDramModel, record_traces

#: Acceptance bar: vectorized >= 3x over the reference loop per trace set.
SPEEDUP_BAR = 3.0
#: CI gate: current quick-mode speedup must be >= committed * this.
REGRESSION_TOLERANCE = 0.8

FULL = {"rounds": 5}
QUICK = {"rounds": 2}


def trace_sets() -> dict[str, list]:
    return {
        "stream_sweep": record_traces(
            lambda: MemorySystem(GEFORCE_8800_GTX).stream_sweep()
        ),
        "table4": record_traces(lambda: experiments.run_experiment("table4")),
    }


def _evaluate_all(model_cls, traces) -> list:
    return [model_cls(dev).evaluate(a, s) for dev, a, s in traces]


def _time_set(traces, rounds) -> dict:
    # The equivalence check doubles as the untimed warm-up run.
    equivalent = _evaluate_all(DramModel, traces) == _evaluate_all(
        ReferenceDramModel, traces
    )
    best = best_of_interleaved(
        {
            "vectorized": lambda: _evaluate_all(DramModel, traces),
            "reference": lambda: _evaluate_all(ReferenceDramModel, traces),
        },
        rounds,
        warmup=False,
    )
    return {
        "traces": len(traces),
        "transactions": int(sum(len(a) for _, a, _ in traces)),
        "vectorized_s": best["vectorized"],
        "reference_s": best["reference"],
        "speedup": best["reference"] / best["vectorized"],
        "equivalent": equivalent,
    }


def _scorecard_seconds() -> dict:
    """One ``scorecard()`` per model, after an untimed warm-up run (the
    reference takes ~40 s)."""
    scorecard()
    out = {}
    for name, model_cls in (("vectorized", DramModel), ("reference", ReferenceDramModel)):
        memsystem.DramModel = model_cls
        try:
            t0 = time.perf_counter()
            scorecard()
            out[f"{name}_s"] = time.perf_counter() - t0
        finally:
            memsystem.DramModel = DramModel
    out["speedup"] = out["reference_s"] / out["vectorized_s"]
    return out


def run_section(cfg, sets) -> dict:
    return {name: _time_set(traces, cfg["rounds"]) for name, traces in sets.items()}


def build_payload(quick_only: bool = False) -> dict:
    sets = trace_sets()
    payload = {
        "cpu_count": os.cpu_count(),
        "speedup_bar": SPEEDUP_BAR,
        "regression_tolerance": REGRESSION_TOLERANCE,
        "quick": run_section(QUICK, sets),
    }
    if not quick_only:
        payload["full"] = run_section(FULL, sets)
        payload["full"]["scorecard"] = _scorecard_seconds()
    return payload


def _fmt(payload: dict) -> str:
    lines = [f"cpu_count={payload['cpu_count']}"]
    for section in ("quick", "full"):
        if section not in payload:
            continue
        for name, r in payload[section].items():
            if name == "scorecard":
                lines.append(
                    f"{section} scorecard(): {r['vectorized_s']:.2f} s vs "
                    f"reference {r['reference_s']:.2f} s ({r['speedup']:.1f}x)"
                )
                continue
            lines.append(
                f"{section} {name}: {r['traces']} traces, "
                f"{r['transactions']} txns, vectorized "
                f"{r['vectorized_s'] * 1e3:.1f} ms vs reference "
                f"{r['reference_s'] * 1e3:.1f} ms ({r['speedup']:.1f}x), "
                f"equivalent={r['equivalent']}"
            )
    return "\n".join(lines)


def test_sim_speedup(benchmark, show):
    """Vectorized DRAM model: >= 3x over the loop, identical timings."""
    from benchmarks.conftest import run_once, write_bench_json

    payload = run_once(benchmark, build_payload)
    path = write_bench_json("sim", payload)
    show("DRAM model: vectorized vs reference loop", _fmt(payload) + f"\njson: {path}")
    for name, r in payload["full"].items():
        if name != "scorecard":
            assert r["equivalent"], name
            assert r["speedup"] >= SPEEDUP_BAR, name


def _check_against(payload: dict, baseline_path: Path) -> int:
    baseline = json.loads(baseline_path.read_text())
    failures = []
    for name, r in payload["quick"].items():
        committed = baseline["quick"][name]["speedup"]
        # Cap the reference at the acceptance bar so a lucky committed
        # run can't ratchet the floor above the contract.
        floor = min(committed, SPEEDUP_BAR) * REGRESSION_TOLERANCE
        ok = r["speedup"] >= floor
        print(
            f"{name}.speedup: current {r['speedup']:.2f}x vs committed "
            f"{committed:.2f}x (floor {floor:.2f}x) -> "
            f"{'ok' if ok else 'REGRESSION'}"
        )
        if not ok:
            failures.append(f"{name}.speedup")
        if not r["equivalent"]:
            print(f"{name}.equivalent: False -> REGRESSION")
            failures.append(f"{name}.equivalent")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="only the small CI-smoke workload (no full section)",
    )
    parser.add_argument(
        "--check-against",
        type=Path,
        metavar="JSON",
        help="compare quick-mode speedups against a committed "
        "BENCH_sim.json; exit 1 on regression",
    )
    args = parser.parse_args(argv)

    payload = build_payload(quick_only=args.quick)
    print(_fmt(payload))

    if args.check_against is not None:
        return _check_against(payload, args.check_against)

    out = _ROOT / "BENCH_sim.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
