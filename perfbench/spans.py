"""Span tracer for the traced benchmark run.

The wrappers are installed from outside the program: nothing under ``src/``
knows about them, and they exist only while a traced set-up or episode runs.
Each span records its name, start, end, parent span and round id. Spans stay
in memory and are written out when the run ends.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from bistro import adversarial, erm, policies, runner, strategies

# Every QUERY_STRIDE-th strategy oracle query is kept for re-pricing.
QUERY_STRIDE = 257
QUERY_CAP = 16


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, round id]
        self.sizes: dict[str, list] = defaultdict(list)  # name -> [(round id, computed size)]
        self.queries: list[tuple] = []  # (episode seed, oracle, contexts, Y, value)
        self.episode = -1  # seed of the episode being traced
        self.round = -1
        self.strategy_queries = 0
        self._stack: list[int] = []
        self._next_round = 0

    def open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.round])

    def close(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter_ns()

    def begin_round(self) -> None:
        self.round = self._next_round
        self._next_round += 1
        self.open("runner.round")

    def end_round(self) -> None:
        self.close()
        self.round = -1

    def wrap(self, name: str, fn, size=None):
        """``fn`` inside a span; ``size(args, result)`` is recorded per call."""

        def traced(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if size is not None:
                self.sizes[name].append((self.round, size(args, result)))
            return result

        return traced

    def close_dangling(self) -> None:
        """Close spans left open by an episode that raised."""
        while self._stack:
            self.close()
        self.round = -1

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            f.write("name,start_ns,end_ns,parent,round\n")
            f.writelines(f"{n},{a},{b},{p},{r}\n" for n, a, b, p, r in self.spans)


class TracedOracle:
    """Oracle proxy: one span per query, its argument bytes, and a sample of
    the queries (inputs and the value handed back) for re-pricing."""

    def __init__(self, inner, tracer: Tracer, keep_queries: bool):
        self._inner = inner
        self._tracer = tracer
        self._keep = keep_queries

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __call__(self, contexts, Y):
        tracer = self._tracer
        tracer.open("erm.query")
        try:
            value = self._inner(contexts, Y)
        finally:
            tracer.close()
        tracer.sizes["erm.query"].append(
            (tracer.round, np.asarray(contexts).nbytes + np.asarray(Y).nbytes))
        if self._keep:
            if tracer.strategy_queries % QUERY_STRIDE == 0 and len(tracer.queries) < QUERY_CAP:
                tracer.queries.append(
                    (tracer.episode, self._inner, np.array(contexts), np.array(Y), value))
            tracer.strategy_queries += 1
        return value


@contextmanager
def installed(tracer: Tracer, strategy=None, env=None):
    """Install the layer wrappers, and restore the program on exit."""

    def traced_rademacher(oracle, *args, **kwargs):
        return estimate(TracedOracle(oracle, tracer, keep_queries=False), *args, **kwargs)

    estimate = tracer.wrap("rademacher.estimate", runner.rademacher_estimate)
    patches = [
        (runner, "rademacher_estimate", traced_rademacher),
        (strategies, "waterfill", tracer.wrap("waterfill", strategies.waterfill)),
        (strategies, "mix_with_uniform",
         tracer.wrap("policies.mix", strategies.mix_with_uniform)),
        (adversarial, "mix_with_uniform",
         tracer.wrap("policies.mix", adversarial.mix_with_uniform)),
        (erm, "policy_constraint_values",
         tracer.wrap("erm.penalty", erm.policy_constraint_values)),
        (policies.PolicyClass, "actions_on",
         tracer.wrap("policies.actions_on", policies.PolicyClass.actions_on,
                     size=lambda args, result: result.nbytes)),
        (adversarial.ExpWeightsRelaxation, "strategy",
         tracer.wrap("adversarial.strategy", adversarial.ExpWeightsRelaxation.strategy,
                     size=lambda args, result: args[0].policy_class.size * len(args[1]))),
    ]
    if strategy is not None:
        patches += [
            (strategy, "choose", tracer.wrap("strategies.choose", strategy.choose)),
            (strategy, "update", tracer.wrap("strategies.update", strategy.update)),
        ]
        if hasattr(strategy, "oracle"):
            patches.append(
                (strategy, "oracle", TracedOracle(strategy.oracle, tracer, keep_queries=True)))
    if env is not None:
        patches.append((env.cost_process, "commit",
                        tracer.wrap("environments.commit", env.cost_process.commit)))

    saved = []
    try:
        for obj, attr, new in patches:
            saved.append((obj, attr, attr in vars(obj), vars(obj).get(attr)))
            setattr(obj, attr, new)
        yield
    finally:
        tracer.close_dangling()
        for obj, attr, had, old in reversed(saved):
            if had:
                setattr(obj, attr, old)
            else:
                delattr(obj, attr)


def csv_size(args, result) -> int:
    return os.path.getsize(args[0])


def layer_metrics(tracer: Tracer, episodes: int) -> dict[str, float]:
    """Per-layer figures from the spans; ``episodes`` is the traced episode count."""
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    in_round = defaultdict(list)  # name -> [(duration us, self us, parent name, index)]
    outside = defaultdict(list)
    for i, (name, start, end, parent, rnd) in enumerate(spans):
        dur = (end - start) / 1e3
        row = (dur, dur - child_ns[i] / 1e3, spans[parent][0] if parent >= 0 else "", i)
        (in_round if rnd >= 0 else outside)[name].append(row)

    def sizes(name, rounds_only=True):
        return [size for rnd, size in tracer.sizes[name] if rnd >= 0 or not rounds_only]

    def durations(name):
        return [row[0] for row in in_round[name]]

    def selfs(name):
        return [row[1] for row in in_round[name]]

    round_us = sum(durations("runner.round"))
    oracle_us = sum(durations("erm.query"))
    penalty_us = sum(row[0] for row in in_round["erm.penalty"] if row[2] == "erm.query")

    estimates = outside["rademacher.estimate"]
    rad_children = defaultdict(lambda: [0, 0.0])  # estimate span -> [oracle calls, oracle us]
    for dur, _, parent_name, i in outside["erm.query"]:
        if parent_name == "rademacher.estimate":
            entry = rad_children[spans[i][3]]
            entry[0] += 1
            entry[1] += dur
    rad_samples = [rad_children[i][0] for *_, i in estimates]
    rad_time = sum(row[0] for row in estimates)
    strategy_us = durations("adversarial.strategy")
    per_episode = max(episodes, 1)
    return {
        "erm.calls": len(durations("erm.query")) / per_episode,
        "erm.query_us.p50": percentile(durations("erm.query"), 50),
        "erm.share": oracle_us / round_us if round_us else 0.0,
        "erm.bytes_in": percentile(sizes("erm.query"), 50),
        "erm.penalty_share": penalty_us / oracle_us if oracle_us else 0.0,
        "policies.actions_on_us.p50": percentile(durations("policies.actions_on"), 50),
        "policies.actions_on_bytes": percentile(sizes("policies.actions_on"), 50),
        "waterfill.calls": len(durations("waterfill")) / per_episode,
        "waterfill.us.p50": percentile(durations("waterfill"), 50),
        "strategies.choose_us.p50": percentile(durations("strategies.choose"), 50),
        "strategies.choose_self_us.p50": percentile(selfs("strategies.choose"), 50),
        "strategies.update_us.p50": percentile(durations("strategies.update"), 50),
        "environments.commit_us.p50": percentile(durations("environments.commit"), 50),
        "runner.loop_self_us.p50": percentile(selfs("runner.round"), 50),
        "runner.accounting_ms": percentile([r[0] for r in outside["runner.accounting"]], 50) / 1e3,
        "runner.csv_ms": percentile([r[0] for r in outside["runner.csv"]], 50) / 1e3,
        "runner.csv_bytes": percentile(sizes("runner.csv", rounds_only=False), 50),
        "rademacher.samples": percentile(rad_samples, 50),
        "rademacher.sample_us": percentile(
            [row[0] / n for row, n in zip(estimates, rad_samples) if n], 50),
        "rademacher.oracle_share": (
            sum(v[1] for v in rad_children.values()) / rad_time if rad_time else 0.0),
        "adversarial.strategy_us.p50": percentile(strategy_us, 50),
        "adversarial.strategy_us.p99": percentile(strategy_us, 99),
        "adversarial.cells": sum(sizes("adversarial.strategy")) / per_episode,
    }
