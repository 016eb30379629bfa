"""The ``paper_harness`` workload: the paper's DRAM-priced experiments.

Runs ``repro.harness.experiments.run_experiment`` over ``table4``,
``table7`` and ``fig2`` -- about 95% of it in ``DramModel.evaluate`` --
in a seeded order per pass.  No server, JIT or numeric transform runs.
Each pass's rows are checked against the committed regression baseline
at ``DEFAULT_TOLERANCE``, outside the timed region.
"""

from __future__ import annotations

import numpy as np

from repro.harness import experiments, regression

from pbench.trace import _now

__all__ = ["HarnessWorkload", "flatten"]


def flatten(node, prefix: str = "", out: dict | None = None) -> dict[str, float]:
    """Numeric leaves of an experiment's rows, keyed by dotted path."""
    out = {} if out is None else out
    if isinstance(node, dict):
        for k, v in node.items():
            flatten(v, f"{prefix}.{k}" if prefix else str(k), out)
    elif isinstance(node, (list, tuple)):
        for i, v in enumerate(node):
            flatten(v, f"{prefix}.{i}", out)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        out[prefix] = float(node)
    return out


class HarnessResult:
    """What one run of harness passes observed; an operation is a pass."""

    def __init__(self) -> None:
        self.passes: list[tuple[float, int]] = []  # (seconds, correct)
        self.attempted = 0
        self.failed = 0  # passes with any row off the baseline
        self.lags: list[float] = []
        self.stats_before = self.stats_after = None
        self.sim_seconds = 0.0

    @property
    def latencies(self) -> list[float]:
        return [seconds for seconds, _ in self.passes]


class HarnessWorkload:
    """Passes over a fixed experiment set, back to back (a closed loop)."""

    name = "paper_harness"
    EXPERIMENTS = ("table4", "table7", "fig2")

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)

    def plan_shapes(self) -> list:
        return []

    def setup(self) -> None:
        self.tolerance = regression.DEFAULT_TOLERANCE
        baseline = regression.load_baseline()["experiments"]
        self.baseline = {e: flatten(baseline[e]["rows"]) for e in self.EXPERIMENTS}

    def prepare(self) -> None:
        pass

    def close(self) -> None:
        pass

    def _matches(self, exp_id: str, rows) -> bool:
        want = self.baseline[exp_id]
        got = flatten(rows)
        if set(got) != set(want):
            return False
        return all(
            abs(got[k] - v) / max(abs(v), 1e-12) <= self.tolerance
            for k, v in want.items()
        )

    def run(self, seconds: float, tracer=None) -> HarnessResult:
        res = HarnessResult()
        start = _now()
        n = 0
        while True:
            order = [self.EXPERIMENTS[i] for i in self.rng.permutation(len(self.EXPERIMENTS))]
            rid = n
            token = tracer.rid.set((rid,)) if tracer is not None else None
            outputs = []
            t_pass = _now()
            for exp_id in order:
                # Looked up per call: the traced run wraps this name.
                outputs.append((exp_id, experiments.run_experiment(exp_id).rows))
            t_end = _now()
            if tracer is not None:
                tracer.rid.reset(token)
                tracer.record("request", t_pass, t_end, (rid,))
            ok = all(self._matches(exp_id, rows) for exp_id, rows in outputs)
            res.passes.append((t_end - t_pass, int(ok)))
            res.attempted += 1
            res.failed += not ok
            n += 1
            # Start another pass only when it is expected to fit.
            if (_now() - start) + res.passes[-1][0] > seconds:
                break
        return res
