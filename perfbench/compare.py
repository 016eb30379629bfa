"""Compare two sets of benchmark results, workload by workload.

Usage, from the repository root::

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by ``perfbench/run.py`` (it
writes them to ``.bench_build/perfbench/results/``; copy each side's
runs to a directory of their own).  For every workload and end-to-end
metric it prints both medians, each side's quartile spread as a share of
its median, and a verdict against the bound ``BENCHMARK.json`` fixes:

``worse``        the new median is worse by more than the bound;
``unresolved``   a spread exceeds the bound and the sides overlap;
``ok``           otherwise.

A workload whose two sides ran on different environments (resolved
backend per plan, complex-multiply mode, core count) is reported as
incomparable and not compared.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def env_key(env: dict) -> str:
    keep = ("nproc", "auto_backend", "plan_backends", "cmul_modes")
    return json.dumps({k: env.get(k) for k in keep}, sort_keys=True)


def load(directory: Path) -> dict[str, dict]:
    """Untraced runs by workload: metric samples and environment keys."""
    runs: dict[str, dict] = defaultdict(lambda: {"metrics": defaultdict(list), "envs": set()})
    for path in sorted(directory.glob("*.json")):
        doc = json.loads(path.read_text())
        detail, result = doc["detail"], doc["result"]
        if detail["trace"]:
            continue
        side = runs[detail["workload"]]
        side["envs"].add(env_key(detail["env"]))
        for name, m in result["metrics"].items():
            side["metrics"][name].append(m["value"])
    return runs


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    b, n = statistics.median(base), statistics.median(new)
    worse_by = (n - b) / b if better == "lower" else (b - n) / b
    if worse_by > bound:
        return "worse"
    all_better = (max(new) < min(base)) if better == "lower" else (min(new) > max(base))
    if max(spread(base), spread(new)) > bound and not all_better:
        return "unresolved"
    return "ok"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    for workload in sorted(set(base) & set(new)):
        b, n = base[workload], new[workload]
        if b["envs"] != n["envs"] or len(b["envs"]) != 1:
            print(f"{workload}: incomparable (environments differ)")
            continue
        for m in bench["end_to_end"]:
            bv, nv = b["metrics"].get(m["name"]), n["metrics"].get(m["name"])
            if not bv or not nv:
                continue
            print(
                f"{workload:14s} {m['name']:15s} "
                f"base {statistics.median(bv):12.4f} ({spread(bv):.3f})  "
                f"new {statistics.median(nv):12.4f} ({spread(nv):.3f})  "
                f"{verdict(bv, nv, m['better'], m['bound'])}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
