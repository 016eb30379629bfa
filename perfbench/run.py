"""Run one benchmark workload and print its result as one JSON line.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload gateway_64 --seed 1 --seconds 45 --trace 0

An untraced run starts ``SETUPS`` fresh processes against empty JIT
caches and reports the median process-start-to-ready time as
``setup_s``; the last of them goes on to measure.  A traced run reports
no ``setup_s`` and starts only the measuring process.  ``--trace 0`` prints the end-to-end metrics
of ``BENCHMARK.json``, ``--trace 1`` its per-layer metrics from a traced
run.  The last line of standard output is the result; the line before it
carries sample counts and the environment, and both are also written to
``.bench_build/perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("gateway_64", "paper_harness")
#: Default workload seed, and the held-out seed for re-checking a claim.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
#: Set-up processes per run; ``setup_s`` is their median.
SETUPS = 3
#: Wall-clock limit on one child process.
CHILD_TIMEOUT_S = 170.0

UNITS = {
    "throughput_rps": "1/s",
    "harness_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_frac": "frac",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child(root: Path, args, role: str, cache: Path, spans: Path, deadline: float):
    """Start one worker; return (setup seconds, parsed result or None)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["REPRO_JIT_CACHE"] = str(cache)
    cmd = [
        sys.executable, "-m", "pbench.worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--role", role, "--spans", str(spans),
    ]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{role} process exceeded its time limit")
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with {proc.returncode}")
    lines = out.strip().splitlines()
    ready = [float(l.split()[1]) for l in lines if l.startswith("READY ")]
    if not ready:
        raise RuntimeError(f"{role} process never reported ready")
    result = json.loads(lines[-1]) if role == "measure" else None
    return ready[0] - t0, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"input seed (default {DEFAULT_SEED}; re-check claims on {HELD_OUT_SEED})",
    )
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no program to measure: {root / 'src' / 'repro'} is missing")
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    work = root / ".bench_build" / "perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    spans = Path(".bench_build", "perfbench", f"spans-{args.workload}-{args.seed}.json")
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    setups = []
    result = None
    try:
        n = 1 if args.trace else SETUPS
        for i in range(n):
            role = "measure" if i == n - 1 else "setup"
            cache = work / f"jit-cache-{i}"
            cache.mkdir(parents=True)
            seconds, out = child(root, args, role, cache, spans, deadline)
            setups.append(seconds)
            result = out if out is not None else result
    except (RuntimeError, ValueError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    units = UNITS if not args.trace else {
        m["name"]: m["unit"]
        for m in json.loads((HERE / "layers.json").read_text())["per_layer"]
    }
    detail = dict(result["detail"], workload=args.workload, seed=args.seed,
                  trace=args.trace, setup_s_samples=setups)
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    results = root / ".bench_build" / "perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = f"{args.workload}-s{args.seed}-t{args.trace}-{time.time_ns()}.json"
    (results / stamp).write_text(json.dumps({"detail": detail, "result": final}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
