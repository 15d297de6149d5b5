#!/usr/bin/env python3
"""Benchmark of the bistro simulation harness.

    python3 perfbench/run.py --workload small_class --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

One workload runs per process, as a closed loop in one thread: round t+1 is
sent only after round t returns. The bench calls the public functions that
``run_suite`` calls, in the same order (``build_policy_class``,
``build_environment``, ``resolve_strategy_params``, then per seed
``make_strategy``, ``run_episode``, ``expected_regret``,
``write_episode_csv``), and only wraps them to time them. With ``--trace 0``
the only instrumentation is two clock reads per round (the reference
kernel of ``Reference`` runs between episodes); ``--trace 1``
installs span wrappers on every other episode (see ``spans.py``) and prints
the per-layer metrics. Every episode passes the correctness gate or counts
as failed; any failure makes the exit code 1. The last line of standard
output is one JSON object: ``correct``, ``attempted`` (episodes),
``failed`` and ``metrics``. See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import mmap
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
BENCH_FILE = ROOT / "BENCHMARK.json"

if not (ROOT / "src" / "bistro" / "__init__.py").is_file():
    sys.exit(f"perfbench: no bistro sources under {ROOT / 'src'}; run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from bistro.erm import RegularizedErmQuery, regularized_erm_value  # noqa: E402
from bistro.runner import (  # noqa: E402
    build_constraint,
    build_environment,
    build_policy_class,
    expected_regret,
    load_config,
    make_strategy,
    resolve_strategy_params,
    run_episode,
    run_suite,
    write_episode_csv,
)
from bistro.verify import bruteforce_erm  # noqa: E402

import spans as layers  # noqa: E402  (perfbench/spans.py; the script's directory is on sys.path)

SIMPLEX_TOL = 1e-12
REPRICE_TOL = 1e-12
# Set-up runs in two batches, one before and one after the episodes, each of
# at least SETUP_MIN_REPS repetitions lasting SETUP_MIN_S seconds (at most
# SETUP_MAX_REPS).
SETUP_MIN_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 2, 0.25, 50
# A block of reference kernels runs before every timed item (set-up or
# episode) and once after the last: at least REF_MIN_REPS kernels, and for
# at least REF_SHARE of the previous item's time. See ``Reference``.
REF_MIN_REPS, REF_SHARE = 3, 0.1
# The reference kernel's time on an undisturbed core of the machine the
# benchmark was defined on (Xeon, 2 vCPUs; the fastest 1% of its blocks).
REFERENCE_S = 0.0021
REF_FAULT_BYTES = 1 << 21


def _adaptive(universe: int, n: int, algorithm: str, **extra) -> dict:
    return {
        "d": 2,
        "n": n,
        "policy_class": {"family": "all_labelings", "d": 2, "universe": universe},
        "algorithm": algorithm,
        "cost_process": {"type": "adaptive", "rule": "argmax_punish"},
        **extra,
    }


def workload(name: str) -> tuple[dict, int]:
    """(config, counted episodes) of a workload.

    The counted episodes are the first ones of a run. A run always completes
    them, so ``mean_cost`` and ``mean_regret`` are deterministic for a seed,
    and the timed ones among them (all but the first) hold at least 1000
    rounds, so that at least ten lie beyond the printed ``round_ms.p99``.
    """
    if name == "small_class":
        # The acceptance suite's own instance, as committed.
        return load_config(str(ROOT / "configs" / "fixed_adversarial.json")), 40
    if name == "large_class":
        return _adaptive(12, 128, "bistro", gamma="auto"), 9
    if name == "regularized":
        return _adaptive(4, 128, "bistro_regularized", gamma=0.25, K=4, **{
            "lambda": 0.1, "constraint": {"type": "pairwise", "weights": "uniform"}}), 24
    if name == "reduction":
        return _adaptive(10, 512, "adversarial_reduction", gamma="auto"), 10
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("small_class", "large_class", "regularized", "reduction")


def setup(config: dict):
    """Config dict to a ready strategy factory: class, environment, params.

    ``bistro_regularized`` skips ``resolve_strategy_params``: its enumerated
    bound (``regularized_bound_term``) refuses n*d > 12, so the workload
    uses its fixed gamma and has no bound.
    """
    pc = build_policy_class(config)
    env = build_environment(config, pc)
    if config["algorithm"] == "bistro_regularized":
        return pc, env, {"gamma": float(config["gamma"]), "bound": None}
    return pc, env, resolve_strategy_params(config, pc, env)


class RoundClock:
    """Strategy proxy that reads the clock at entry to ``choose`` and at
    return from ``update``; with a tracer it also opens the round span."""

    def __init__(self, inner, starts: list, ends: list, tracer=None):
        self._inner = inner
        self._starts = starts
        self._ends = ends
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def choose(self, x):
        self._starts.append(time.perf_counter_ns())
        if self._tracer is not None:
            self._tracer.begin_round()
        return self._inner.choose(x)

    def update(self, x, q, action, observed_cost):
        self._inner.update(x, q, action, observed_cost)
        if self._tracer is not None:
            self._tracer.end_round()
        self._ends.append(time.perf_counter_ns())


class Reference:
    """Times a fixed reference kernel in blocks between the timed items.

    The cores are shared with other tenants, and their speed moves by up to
    2x within seconds and between runs. Each timed item (a set-up or an
    episode) is scaled by ``REFERENCE_S / r``, where r is the mean of the
    medians of the blocks just before and just after it: the time the item
    would have taken at the speed the kernel had on an undisturbed core. A
    block lasts at least ``REF_SHARE`` of the previous item, so a long item
    is paired with many kernels.

    The kernel calls nothing of the program, so a change to the program
    cannot move it. It gathers from a policy table, as the oracle and the
    exp-weights relaxation do, and then faults in fresh pages, as every large
    new array does. Interference slows these, Python loops of small NumPy
    calls and all-pairs comparisons by different amounts; of those kinds of
    kernel, this pair tracked all four workloads best (see README.md).
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._table = rng.integers(0, 2, size=(1024, 12))
        self._cols = rng.integers(0, 12, size=128)
        self._Y = rng.random((2, 128)).ravel()
        self._offsets = np.arange(128)
        # Preallocated outputs: a gather into new arrays would time the
        # allocator's state, which the program's own allocations set.
        self._actions = np.empty((1024, 128), dtype=np.int64)
        self._values = np.empty((1024, 128))
        self.blocks: list[float] = []  # median kernel seconds of each block
        self.kernels = 0

    def _kernel(self) -> float:
        np.take(self._table, self._cols, axis=1, out=self._actions)
        np.multiply(self._actions, self._offsets.size, out=self._actions)
        np.add(self._actions, self._offsets, out=self._actions)
        np.take(self._Y, self._actions, out=self._values)
        total = float(self._values.sum(axis=1).min())
        # Fresh anonymous pages, one fault each, whatever the allocator holds.
        buf = mmap.mmap(-1, REF_FAULT_BYTES)
        pages = np.frombuffer(buf, dtype=np.uint8)[::mmap.PAGESIZE]
        pages[:] = 1
        total += float(pages.sum())
        del pages
        buf.close()
        return total

    def block(self, previous_s: float) -> None:
        """One block, sized by the seconds of the item before it."""
        times = []
        start = time.perf_counter()
        while len(times) < REF_MIN_REPS or time.perf_counter() - start < REF_SHARE * previous_s:
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        self.kernels += len(times)
        self.blocks.append(float(np.median(times)))

    def scale(self, index: int) -> float:
        """Scale of the item that ran between blocks ``index`` and ``index + 1``."""
        return 2 * REFERENCE_S / (self.blocks[index] + self.blocks[index + 1])


def reprice(oracle, contexts: np.ndarray, Y: np.ndarray) -> float:
    """Independent value of one recorded oracle query.

    ``bruteforce_erm`` caps the horizon at 64 rounds, so the query is first
    folded by context (a table policy's cost depends only on the per-context
    column sums); the sums are correctly rounded with ``math.fsum``.
    """
    pc = oracle.policy_class
    if hasattr(oracle, "lambda_scaled"):
        query = RegularizedErmQuery(Y=Y, lambda_scaled=oracle.lambda_scaled,
                                    constraint=oracle.constraint)
        return regularized_erm_value(pc, contexts, query)
    folded = np.array([[math.fsum(Y[j, contexts == x]) for x in range(pc.universe_size)]
                       for j in range(pc.d)])
    return bruteforce_erm(pc, range(pc.universe_size), folded)


def expected_oracle_calls(config: dict) -> int:
    if config["algorithm"].startswith("bistro"):
        return int(config["d"]) * int(config.get("playouts", 1)) * int(config["n"])
    return 0


def check_episode(tr, strategy, config: dict, gamma: float) -> list[str]:
    """Correctness gate for one episode; returns the failures."""
    problems = []
    try:
        tr.validate()
    except ValueError as exc:
        problems.append(f"transcript: {exc}")
    q = tr.distributions
    if (np.abs(q.sum(axis=1) - 1.0) > SIMPLEX_TOL).any() or (q < gamma - SIMPLEX_TOL).any():
        problems.append(f"q left the simplex or fell below gamma={gamma}: min {q.min()!r}")
    if strategy.oracle_calls != expected_oracle_calls(config):
        problems.append(f"oracle calls {strategy.oracle_calls} != {expected_oracle_calls(config)}")
    return problems


def derive_seeds(seed: int) -> tuple[int, int]:
    """(tune_seed, first episode seed); episode i uses first + i."""
    tune_seed, first = np.random.SeedSequence(seed).generate_state(2)
    return int(tune_seed), int(first)


def metadata(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_1m_start": loadavg(),
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def loadavg() -> float | None:
    try:
        with open("/proc/loadavg") as f:
            return float(f.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def measure(name: str, config: dict, counted: int, seed: int, seconds: float, trace: bool,
            strategy_hook=None) -> dict:
    """One run of a workload. ``strategy_hook`` lets a test substitute a
    faulty strategy or oracle, to check that the gate fires."""
    meta = metadata(seed)
    tune_seed, first_seed = derive_seeds(seed)
    config = {**config, "tune_seed": tune_seed}
    constraint, K = build_constraint(config), config.get("K")
    tracer = layers.Tracer() if trace else None
    reference = Reference()

    setups = []  # (seconds, block index)
    pc, env, params = time_setups(config, tracer, setups, reference)
    gamma, bound = params["gamma"], params["bound"]

    csv_dir = OUT / f"csv-{name}-{os.getpid()}"
    csv_dir.mkdir(parents=True, exist_ok=True)
    episodes = []  # dicts: seed, traced, ref, wall, rounds_ns, cost, regret, problems
    phase_start = time.perf_counter()
    try:
        while len(episodes) < counted or time.perf_counter() - phase_start < seconds:
            t0 = time.perf_counter()
            record = run_one(config, pc, env, gamma, constraint, K,
                             first_seed + len(episodes), csv_dir,
                             tracer if trace and len(episodes) % 2 else None,
                             strategy_hook)
            record["ref"] = len(reference.blocks) - 1
            episodes.append(record)
            reference.block(time.perf_counter() - t0)
    finally:
        shutil.rmtree(csv_dir, ignore_errors=True)
    time_setups(config, tracer, setups, reference)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for e in episodes:
        e["scale"] = reference.scale(e["ref"])
    # The first set-up and the first episode warm up caches and allocators;
    # they are gated but not timed.
    setup_s = [(seconds, reference.scale(i)) for seconds, i in setups[1:]]

    # Run-level checks are charged to the episodes they concern.
    head = episodes[:counted]
    regrets = [e["regret"] for e in head if not e["problems"]]
    mean_regret = float(np.mean(regrets)) if regrets else float("nan")
    if bound is not None and regrets and mean_regret > bound:
        for e in head:
            e["problems"].append(f"mean regret {mean_regret} exceeds the bound {bound}")
    if name == "small_class" and not episodes[0]["problems"]:
        summary = run_suite(config, [episodes[0]["seed"]])
        if (summary["per_seed_regret"][0] != episodes[0]["regret"]
                or summary["oracle_calls_total"] != episodes[0]["oracle_calls"]):
            episodes[0]["problems"].append(
                f"run_suite gives regret {summary['per_seed_regret'][0]!r} and "
                f"{summary['oracle_calls_total']} oracle calls; the bench saw "
                f"{episodes[0]['regret']!r} and {episodes[0]['oracle_calls']}")
    if tracer is not None:
        by_seed = {e["seed"]: e for e in episodes}
        for ep_seed, oracle, contexts, Y, value in tracer.queries:
            ref = reprice(oracle, contexts, Y)
            if not abs(ref - value) <= REPRICE_TOL:
                by_seed[ep_seed]["problems"].append(
                    f"oracle returned {value!r}, re-priced {ref!r}")

    failed = sum(1 for e in episodes if e["problems"])
    for e in episodes:
        for problem in e["problems"]:
            print(f"FAILED episode seed={e['seed']}: {problem}", file=sys.stderr)
    plain = [e for e in episodes[1:] if not e["traced"] and not e["problems"]]
    unscaled = [{**e, "scale": 1.0} for e in plain]
    raw = {
        "setup_s": float(np.median([seconds for seconds, _ in setup_s])),
        "rounds_per_s": rounds_per_s(unscaled),
        "round_ms.p50": episode_percentile(unscaled, 50),
        "round_ms.p90": episode_percentile(unscaled, 90),
        "round_ms.p99": pooled_percentile(unscaled, 99),
    }
    scales = [e["scale"] for e in plain]
    extra = {
        "mean_regret": mean_regret,
        "failed_frac": failed / len(episodes),
        "bound": bound,
        "gamma": gamma,
        "episodes": len(episodes),
        "counted_episodes": counted,
        "round_samples": int(sum(e["rounds_ns"].size for e in plain)),
        "setup_reps": len(setups),
        "raw_timings": raw,
        "round_ms.p99": pooled_percentile(plain, 99),
        "reference_kernels": reference.kernels,
        "time_scale.p50": float(np.median(scales)) if scales else float("nan"),
        "time_scale.min": min(scales, default=float("nan")),
        "time_scale.max": max(scales, default=float("nan")),
    }
    rate = rounds_per_s(plain)
    if tracer is None:
        costs = [e["cost"] for e in head if not e["problems"]]
        metrics = {
            "setup_s": float(np.median([seconds * scale for seconds, scale in setup_s])),
            "rounds_per_s": rate,
            "round_ms.p50": episode_percentile(plain, 50),
            "round_ms.p90": episode_percentile(plain, 90),
            "mean_cost": float(np.mean(costs)) if costs else float("nan"),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        traced = [e for e in episodes if e["traced"] and not e["problems"]]
        metrics = layers.layer_metrics(tracer, len(traced))
        metrics["trace.overhead"] = 1.0 - rounds_per_s(traced) / rate if rate else 0.0
        metrics["runner.mean_regret"] = mean_regret
        OUT.mkdir(exist_ok=True)
        tracer.write(str(OUT / f"trace_{name}.csv"))
        extra["spans"] = len(tracer.spans)
        extra["repriced_queries"] = len(tracer.queries)
    meta["loadavg_1m_end"] = loadavg()
    samples = {"episode_wall_s": [e["wall"] for e in plain], "episode_scale": scales,
               "setup_s": [seconds for seconds, _ in setup_s],
               "setup_scale": [scale for _, scale in setup_s],
               "reference_block_s": reference.blocks}
    return {"workload": name, "trace": int(trace), "meta": meta, "extra": extra,
            "samples": samples, "attempted": len(episodes), "failed": failed,
            "metrics": metrics}


def time_setups(config: dict, tracer, setups: list, reference: Reference):
    """One batch of set-ups, each after a reference block; appends
    (seconds, index of the block before it) to ``setups``."""
    start = time.perf_counter()
    batch = 0
    previous = setups[-1][0] if setups else 0.0
    while batch < SETUP_MAX_REPS and (
            batch < SETUP_MIN_REPS or time.perf_counter() - start < SETUP_MIN_S):
        reference.block(previous)
        t0 = time.perf_counter()
        if tracer is None:
            ready = setup(config)
        else:
            with layers.installed(tracer):
                ready = setup(config)
        previous = time.perf_counter() - t0
        setups.append((previous, len(reference.blocks) - 1))
        batch += 1
    reference.block(previous)
    return ready


def episode_percentile(episodes: list, q: float) -> float:
    """Median over episodes of each episode's scaled q-th percentile round latency, in ms.

    An episode has at least 128 rounds, so at least ten lie beyond its p90; a
    burst from another tenant moves one episode's figure, not the median.
    """
    if not episodes:
        return 0.0
    return float(np.median([np.percentile(e["rounds_ns"], q) * e["scale"]
                            for e in episodes])) / 1e6


def pooled_percentile(episodes: list, q: float) -> float:
    """q-th percentile of the scaled latencies of all the episodes' rounds, in ms."""
    if not episodes:
        return 0.0
    return layers.percentile(np.concatenate([e["rounds_ns"] * e["scale"] for e in episodes]), q) / 1e6


def rounds_per_s(episodes: list) -> float:
    """Median over episodes of rounds per scaled wall second of the episode."""
    if not episodes:
        return 0.0
    return float(np.median([e["rounds_ns"].size / (e["wall"] * e["scale"]) for e in episodes]))


def run_one(config, pc, env, gamma, constraint, K, seed, csv_dir, tracer, strategy_hook) -> dict:
    """One episode: strategy, rounds, regret accounting and CSV, then the gate."""
    starts, ends = [], []
    account, write_csv = expected_regret, write_episode_csv
    if tracer is not None:
        account = tracer.wrap("runner.accounting", expected_regret)
        write_csv = tracer.wrap("runner.csv", write_episode_csv, size=layers.csv_size)
        tracer.episode = seed
    record = {"seed": seed, "traced": tracer is not None, "problems": []}
    t0 = time.perf_counter()
    try:
        strategy = make_strategy(config, pc, gamma)
        if strategy_hook is not None:
            strategy = strategy_hook(strategy)
        clocked = RoundClock(strategy, starts, ends, tracer)
        if tracer is None:
            tr = run_episode(clocked, env, int(config["n"]), seed)
        else:
            with layers.installed(tracer, strategy, env):
                tr = run_episode(clocked, env, int(config["n"]), seed)
        regret = account(tr, pc, constraint, K)
        write_csv(str(csv_dir / f"episode_{seed}.csv"), tr)
    except Exception:  # the run goes on; the episode counts as failed
        record["problems"].append("raised:\n" + traceback.format_exc())
        return record
    record.update(
        wall=time.perf_counter() - t0,
        rounds_ns=np.asarray(ends, dtype=np.int64) - np.asarray(starts, dtype=np.int64),
        cost=tr.expected_total,
        regret=regret,
        oracle_calls=strategy.oracle_calls,
        problems=check_episode(tr, strategy, config, gamma),
    )
    return record


def load_declared() -> dict:
    with open(BENCH_FILE) as f:
        return json.load(f)


def report(result: dict, declared: dict) -> None:
    """Human-readable lines; the JSON result line follows them."""
    kind = "per_layer" if result["trace"] else "end_to_end"
    print(f"# perfbench workload={result['workload']} trace={result['trace']}")
    print("# meta " + json.dumps(result["meta"], sort_keys=True))
    for spec in declared[kind]:
        value = result["metrics"].get(spec["name"], float("nan"))
        print(f"{spec['name']:<32} {value:>16.6g} {spec['unit']:<8} {spec['better']}")
    extra = result["extra"]
    print(f"{'mean_regret':<32} {extra['mean_regret']:>16.6g} {'cost':<8} lower"
          f"  (first {extra['counted_episodes']} episodes; bound {extra['bound']})")
    print(f"{'round_ms.p99':<32} {extra['round_ms.p99']:>16.6g} {'ms':<8} lower"
          f"  ({extra['round_samples']} rounds; not bounded)")
    print(f"{'failed_frac':<32} {extra['failed_frac']:>16.6g} {'ratio':<8} lower"
          f"  ({result['failed']}/{result['attempted']} episodes)")
    print("# extra " + json.dumps(extra, sort_keys=True))


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def pin_to_one_cpu() -> None:
    """Keep the run on the highest-numbered CPU it may use.

    The run is single-threaded. On a small VM the CPUs are not alike (the
    first one takes more interrupts and measured ~12% slower here), and a
    run that lands on either one adds that difference to the spread.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    if args.workload == "all":
        return run_all(args)
    config, counted = workload(args.workload)
    result = measure(args.workload, config, counted, args.seed, args.seconds, bool(args.trace))
    declared = load_declared()
    units = {s["name"]: s["unit"] for s in declared["per_layer" if args.trace else "end_to_end"]}
    metrics = {key: {"value": result["metrics"][key], "unit": unit} for key, unit in units.items()}
    correct = result["failed"] == 0
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result_{args.workload}_trace{args.trace}.json", "w") as f:
        json.dump({**result, "correct": correct}, f, indent=2, sort_keys=True)
    report(result, declared)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
