#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Checks that every metric named in BENCHMARK.json appears, as a finite
number, for every workload with tracing off and on, and that the correctness
gate fires: a strategy whose q falls below the gamma floor, or an oracle off
by 1e-6, must make episodes fail. Exits with code 1 if a check fails.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import run  # noqa: E402


def tiny(name: str) -> dict:
    config, _ = run.workload(name)
    config = {**config, "n": 12, "tune_samples": 8}
    if "family" in config["policy_class"]:
        config["policy_class"] = {**config["policy_class"], "universe": 3}
    return config


class Forwarding:
    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


class BelowFloor(Forwarding):
    """Moves half of the smallest probability onto another action."""

    def choose(self, x):
        q = np.array(self._inner.choose(x))
        low = int(np.argmin(q))
        q[(low + 1) % q.size] += q[low] / 2
        q[low] /= 2
        return q


class OffBy(Forwarding):
    def __call__(self, contexts, Y):
        return self._inner(contexts, Y) + 1e-6


def skew_oracle(strategy):
    strategy.oracle = OffBy(strategy.oracle)
    return strategy


def main() -> int:
    declared = run.load_declared()
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for name in run.WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result = run.measure(name, tiny(name), counted=2, seed=0, seconds=0, trace=trace)
            metrics = result["metrics"]
            missing = [s["name"] for s in declared[kind]
                       if not isinstance(metrics.get(s["name"]), float)
                       or not math.isfinite(metrics[s["name"]])]
            check(not missing, f"{name} trace={int(trace)}: every {kind} metric is a "
                               f"finite number (missing or bad: {missing})")
            check(result["failed"] == 0, f"{name} trace={int(trace)}: the gate passes")

    for name, trace, hook, what in (
            ("small_class", False, BelowFloor, "q below the gamma floor"),
            ("small_class", True, skew_oracle, "oracle off by 1e-6"),
            ("regularized", True, skew_oracle, "regularized oracle off by 1e-6")):
        result = run.measure(name, tiny(name), counted=2, seed=0, seconds=0, trace=trace,
                             strategy_hook=hook)
        check(result["failed"] > 0, f"{name}: the gate fires on {what} "
                                    f"(failed {result['failed']}/{result['attempted']})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
