"""Set-up from a checked config, the episode runner, regret accounting, suite
aggregation, and serialization.

An episode is strictly sequential: observe x_t, ask the strategy for q_t,
let the cost process commit c_t from (t, x_t), draw the action, show the
cost process q_t and the action, reveal one coordinate to the strategy.
Randomness is split into independent streams keyed by the episode seed
alone, so identical (config, seed) pairs produce byte-identical outputs
regardless of scheduling.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .adversarial import ExpWeightsRelaxation, ReductionStrategy
from .config import check, check_document, get, read
from .config import load_config  # noqa: F401  (read from here by perfbench and the tests)
from .environments import AdaptiveCosts, Environment, FixedTableCosts, IidBernoulliCosts
from .erm import (
    ApproximateErmOracle,
    BoxRelaxedOracle,
    CoveragePenalty,
    EmptyBenchmarkError,
    ExactErmOracle,
    PairwiseDisagreement,
    RegularizedErmOracle,
    benchmark,
)
from .policies import PolicyClass, check_cost_vector, float_entries
from .rademacher import rademacher_estimate, tune_gamma
from .strategies import (
    SIGN_SCALE,
    BistroStrategy,
    EpsilonGreedyStrategy,
    Strategy,
    UniformStrategy,
)

# How far from 1 ``Generator.choice`` lets a probability vector sum.
CHOICE_SUM_TOL = float(np.sqrt(np.finfo(np.float64).eps))


@dataclass
class Transcript:
    """Full episode log, including the simulator-private cost vectors."""

    contexts: np.ndarray        # (n,)
    distributions: np.ndarray   # (n, d)
    actions: np.ndarray         # (n,)
    observed_costs: np.ndarray  # (n,)
    cost_vectors: np.ndarray    # (n, d)

    @property
    def n(self) -> int:
        return self.contexts.size

    @property
    def d(self) -> int:
        return self.distributions.shape[1]

    @property
    def expected_costs(self) -> np.ndarray:
        return (self.distributions * self.cost_vectors).sum(axis=1)

    @property
    def expected_total(self) -> float:
        return float(self.expected_costs.sum())

    def validate(self) -> None:
        n = self.n
        if not (len(self.actions) == len(self.observed_costs) == len(self.cost_vectors) == n):
            raise ValueError("transcript field lengths disagree")
        picked = self.cost_vectors[np.arange(n), self.actions] if n else np.empty(0)
        if not np.array_equal(picked, self.observed_costs):
            raise ValueError("observed costs inconsistent with cost vectors")


def draw_action(rng: np.random.Generator, q, d: int) -> int:
    """``int(rng.choice(d, p=q))`` for any vector q of d floats: the same action
    from the same one uniform, with choice's refusals (q of another length
    than d, negative or NaN entries, a sum off 1 by more than sqrt(eps)), at
    a fraction of its cost per call. The uniform is looked up in the
    normalised CDF, as in ``categorical_sampler``."""
    p = float_entries(q)
    if d < 1 or p is None or len(p) != d:
        raise ValueError(f"a distribution over {d} actions needs {d} entries; "
                         f"got shape {np.shape(q)}")
    if not all(map((0.0).__le__, p)):
        raise ValueError("probabilities are negative or NaN")
    cdf = list(accumulate(p))
    total = cdf[-1]
    if abs(total - 1.0) > CHOICE_SUM_TOL:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    return bisect_right([c / total for c in cdf], rng.random())


def run_episode(strategy: Strategy, env: Environment, n: int, seed) -> Transcript:
    """Play one episode of length n; deterministic given (strategy config, env, seed)."""
    d = env.cost_process.d
    pc = getattr(strategy, "policy_class", None)
    if pc is not None:
        if pc.d != d:
            raise ValueError("strategy and environment disagree on the number of actions")
        if pc.universe_size != env.probs.size:
            raise ValueError("strategy and environment disagree on the context universe")
    ctx_ss, pool_ss, cost_ss, act_ss, strat_ss = np.random.SeedSequence(seed).spawn(5)
    ctx_rng = np.random.default_rng(ctx_ss)
    xs = env.sample_contexts(ctx_rng, n)
    pool = env.sample_contexts(np.random.default_rng(pool_ss), env.pool_factor * max(n, 1))
    process = env.cost_process
    process.begin(np.random.default_rng(cost_ss), n)
    strategy.begin_episode(
        n=n,
        seed_seq=strat_ss,
        pool=pool,
        known_futures=xs if strategy.transductive else None,
    )
    act_rng = np.random.default_rng(act_ss)

    distributions = np.zeros((n, d))
    actions = np.zeros(n, dtype=np.int64)
    observed = np.zeros(n)
    costs = np.zeros((n, d))
    for t in range(n):
        x = int(xs[t])
        q = strategy.choose(x)
        c = check_cost_vector(process.commit(t, x))
        if c.size != d:
            raise ValueError("cost process dimension mismatch")
        a = draw_action(act_rng, q, d)
        distributions[t] = q
        actions[t] = a
        observed[t] = cost = float(c[a])
        costs[t] = c
        process.observe(q, a)
        strategy.update(x, q, a, cost)
    return Transcript(
        contexts=xs,
        distributions=distributions,
        actions=actions,
        observed_costs=observed,
        cost_vectors=costs,
    )


def benchmark_value(transcript: Transcript, policy_class: PolicyClass,
                    constraint=None, K: float | None = None) -> float:
    """Best cumulative cost inside the class, filtered to C(f) <= K when both
    a constraint and its budget K are given (``erm.benchmark``)."""
    if transcript.n == 0:
        return 0.0
    return benchmark(policy_class, transcript.contexts, transcript.cost_vectors.T, constraint, K)


def expected_regret(transcript: Transcript, policy_class: PolicyClass,
                    constraint=None, K: float | None = None) -> float:
    return transcript.expected_total - benchmark_value(transcript, policy_class, constraint, K)


# -- set-up -----------------------------------------------------------------


def build_policy_class(config: dict) -> PolicyClass:
    # Every command builds the class first, so a malformed config fails here
    # instead of later: the table's check of every key, then the class and
    # the constraint on its shape.
    check(config)
    doc = config["policy_class"]
    if "path" in doc:
        doc = check_document("policy_class", read("policy_class key 'path'", doc["path"]))
    family = doc.get("family")
    if family is None:  # a document's actions are 1-based
        pc = PolicyClass(np.asarray(doc["policies"], np.int64) - 1, doc["d"])
        if "universe" in doc and doc["universe"] != pc.universe_size:
            raise ValueError("declared universe size does not match policy tables")
    elif family == "all_labelings":
        pc = PolicyClass.all_labelings(doc["d"], doc["universe"])
    elif family == "argmax_linear":
        dist = get(config, "context_dist")
        pc = PolicyClass.argmax_linear(doc["weights"],
                                       None if dist == "uniform" else dist.get("features"))
    else:
        raise ValueError(f"unknown policy family {family!r}")
    if pc.d != config["d"]:
        raise ValueError("policy class action count disagrees with config d")
    constraint, n, universe = build_constraint(config), config["n"], pc.universe_size
    if isinstance(constraint, CoveragePenalty) and constraint.n != n:
        raise ValueError(f"constraint partition covers {constraint.n} rounds; "
                         f"config key 'n' is {n}")
    weights = constraint.weights if isinstance(constraint, PairwiseDisagreement) else None
    if weights is not None and weights.shape != (universe, universe):
        raise ValueError(f"constraint weights must be (|X|, |X|) = {(universe, universe)}; "
                         f"got {weights.shape}")
    return pc


def build_environment(config: dict, policy_class: PolicyClass) -> Environment:
    dist = get(config, "context_dist")
    if dist == "uniform":
        probs = np.full(policy_class.universe_size, 1.0 / policy_class.universe_size)
    else:
        probs = np.asarray(dist["probs"], dtype=float)
    if probs.size != policy_class.universe_size:
        raise ValueError("context distribution size disagrees with the policy universe")
    doc, n, d = config["cost_process"], config["n"], policy_class.d
    kind = doc.get("type")
    if kind == "fixed_table":  # a table in a file or inline, never both
        costs = FixedTableCosts(read("cost_process key 'path'", doc["path"],
                                     lambda f: np.loadtxt(f, delimiter=","))
                                if "path" in doc else np.asarray(doc["values"], float))
        if costs.d != d or len(costs.values) < n:
            raise ValueError(f"cost_process table must have d = {d} columns and at least "
                             f"n = {n} rows; got {costs.values.shape}")
    elif kind == "iid_bernoulli":
        costs = IidBernoulliCosts(np.asarray(doc["means"], float))
        if costs.means.shape != (probs.size, d):
            raise ValueError(f"cost_process means must be (|X|, d) = {(probs.size, d)}; "
                             f"got {costs.means.shape}")
    elif kind == "adaptive":
        costs = AdaptiveCosts(d=config["d"])
    else:
        raise ValueError(f"unknown cost process {kind!r}")
    return Environment(probs, costs, get(config, "pool_factor"))


def build_constraint(config: dict):
    doc = get(config, "constraint")
    if doc is None:
        return None
    kind = doc.get("type")
    if kind == "pairwise":
        return PairwiseDisagreement(get(doc, "weights", "constraint"))
    if kind == "coverage":
        return CoveragePenalty(doc["partition"], doc["k"])
    raise ValueError(f"unknown constraint type {kind!r}")


def _regularized(config: dict, policy_class: PolicyClass, gamma: float):
    constraint = build_constraint(config)
    if constraint is None:
        raise ValueError("bistro_regularized requires a constraint")
    if "K" not in config:
        # the bound prices lam*K and the benchmark filters the class at K
        raise ValueError("bistro_regularized requires 'K', the constraint budget")
    lam, K = get(config, "lambda"), get(config, "K")
    # lam*C on the estimates c~ is lam*gamma*C on the query's gamma*c~
    return RegularizedErmOracle(policy_class, constraint, lam * gamma), lam * K


RELAXATIONS = {
    "bistro": lambda config, policy_class, gamma: (ExactErmOracle(policy_class), 0.0),
    "bistro_relaxed": lambda config, policy_class, gamma: (BoxRelaxedOracle(), 0.0),
    "bistro_regularized": _regularized,
}


def relaxation(config: dict, policy_class: PolicyClass, gamma: float):
    """The config's playout relaxation at rate gamma, as (oracle, budget).

    The oracle prices play's queries: history gamma*c~, current column e_j,
    playouts SIGN_SCALE*eps. With m rounds to go the relaxation is
    m*d*gamma + budget - E oracle([history | SIGN_SCALE*eps]) / gamma; play,
    the bound and the admissibility check all price through it.
    """
    return RELAXATIONS[get(config, "algorithm")](config, policy_class, gamma)


def resolve_strategy_params(config: dict, policy_class: PolicyClass, env: Environment) -> dict:
    """Fix gamma, the complexity estimate, and the theoretical bound.

    Each relaxation's value at the empty history is
    complexity/gamma + n*d*gamma + budget; a playout relaxation's complexity
    is -E oracle(SIGN_SCALE*eps). ``"auto"`` tunes gamma to minimize it, and
    the bound is that value at the gamma the run plays.
    """
    algo, gamma = get(config, "algorithm"), get(config, "gamma")
    n, d = config["n"], policy_class.d
    out = {"algorithm": algo, "gamma": None, "rad_estimate": None,
           "rad_stderr": None, "bound": None, "bound_stderr": None}

    if algo == "adversarial_reduction":
        complexity = ExpWeightsRelaxation(policy_class, n, get(config, "eta")).initial_value()
        out["rad_estimate"], out["rad_stderr"] = complexity, 0.0
    elif algo in RELAXATIONS:
        # A penalty scales with gamma, so the unpenalized class's complexity bounds
        # every gamma's and tunes the rate; the box reports it beside its own.
        samples, seed = get(config, "tune_samples"), get(config, "tune_seed")
        est = rademacher_estimate(ExactErmOracle(policy_class), env.sample_contexts, n,
                                  samples, seed, SIGN_SCALE)
        rad = est.mean / SIGN_SCALE, est.std_error / SIGN_SCALE
        if algo == "bistro_relaxed":  # superset vs class widths side by side (no ratio asserted)
            out["class_rad_estimate"], out["class_rad_stderr"] = rad
            # Per column the box's best response to a sign vector is
            # max(0, max_j eps_j), which is 1 unless all d signs are -1.
            rad = n * (1.0 - 2.0**-d), 0.0
        out["rad_estimate"], out["rad_stderr"] = rad
        complexity = max(SIGN_SCALE * rad[0], 0.0)
    else:
        if algo == "egreedy":  # the learner at gamma = epsilon/d, with no bound
            out["gamma"] = get(config, "epsilon") / d
        return out  # the baselines play no relaxation

    if gamma == "auto":
        gamma = tune_gamma(complexity, n, d)
    oracle, budget = relaxation(config, policy_class, gamma) if algo in RELAXATIONS else (None, 0)
    if algo == "bistro_regularized":  # the penalized complexity, at the gamma played
        est = rademacher_estimate(oracle, env.sample_contexts, n, samples, seed, SIGN_SCALE)
        complexity = max(est.mean, 0.0)
        out["bound_stderr"] = est.std_error / gamma
    out["gamma"] = gamma
    out["bound"] = complexity / gamma + n * d * gamma + budget
    return out


def make_strategy(config: dict, policy_class: PolicyClass, gamma: float | None) -> Strategy:
    """The config's learner at rate gamma; ``begin_episode`` sets its horizon and state."""
    algo = get(config, "algorithm")
    if algo in RELAXATIONS:
        oracle, _ = relaxation(config, policy_class, gamma)
        if "delta" in config:
            oracle = ApproximateErmOracle(oracle, get(config, "delta"), seed=0)
        return BistroStrategy(policy_class, oracle, gamma, get(config, "playouts"),
                              get(config, "horizon_mode"))
    if algo == "adversarial_reduction":
        rel = ExpWeightsRelaxation(policy_class, config["n"], get(config, "eta"))
        return ReductionStrategy(rel, gamma)
    if algo == "uniform":
        return UniformStrategy(policy_class.d)
    if algo == "egreedy":
        return EpsilonGreedyStrategy(policy_class, get(config, "epsilon"))
    raise ValueError(f"unknown algorithm {algo!r}")


def episode_csv_lines(transcript: Transcript) -> list[str]:
    """CSV rows: actions are 1-based in files, context ids stay 0-based; each
    distinct float, by bit pattern (0.0 and -0.0 differ), is formatted once."""
    d, n = transcript.d, transcript.n
    header = (
        "round,context,action,"
        + ",".join(f"q_{j}" for j in range(1, d + 1))
        + ",observed_cost,expected_cost,cum_expected_cost"
    )
    floats = np.column_stack([transcript.distributions, transcript.observed_costs,
                              transcript.expected_costs, np.cumsum(transcript.expected_costs)])
    bits, inverse = np.unique(floats.view(np.int64).ravel(), return_inverse=True)
    cells = list(map([repr(v) for v in bits.view(float).tolist()].__getitem__, inverse.tolist()))
    w = d + 3
    rows = zip(range(1, n + 1), transcript.contexts.tolist(), transcript.actions.tolist(),
               range(0, n * w, w))
    return [header] + [f"{t},{x},{a + 1}," + ",".join(cells[i:i + w]) for t, x, a, i in rows]


def write_episode_csv(path: str, transcript: Transcript) -> None:
    with open(path, "w", newline="") as f:
        f.write("\n".join(episode_csv_lines(transcript)) + "\n")


def run_suite(config: dict, seeds, out_dir: str | None = None) -> dict:
    """Run every seed, aggregate regret, and compare against the bound.

    Runs under the same numeric policy as the CLI: floating-point errors
    other than underflow raise, whatever the caller's ``np.errstate``.
    """
    seeds = list(seeds)  # each names one episode and its CSV
    ints = all(isinstance(s, (int, np.integer)) and not isinstance(s, bool) for s in seeds)
    if not seeds or not ints or min(seeds) < 0 or len(set(seeds)) < len(seeds):
        raise ValueError(f"seeds must be one or more distinct nonnegative integers; got {seeds}")
    if out_dir is not None:  # made before set-up: a path that cannot be one costs no episode
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"cannot make the output directory {out_dir!r}: {exc.strerror}")
    with np.errstate(all="raise", under="ignore"):
        policy_class = build_policy_class(config)
        env = build_environment(config, policy_class)
        n = config["n"]
        params = resolve_strategy_params(config, policy_class, env)
        constraint = build_constraint(config)
        K = get(config, "K")

        regrets = np.zeros(len(seeds))
        realized = np.zeros(len(seeds))
        transcripts = []
        strategy = make_strategy(config, policy_class, params["gamma"])  # reset by each episode
        for i, seed in enumerate(seeds):
            try:
                tr = run_episode(strategy, env, n, seed)
                bench = benchmark_value(tr, policy_class, constraint, K)
                regrets[i] = tr.expected_total - bench
                realized[i] = tr.observed_costs.sum() - bench
            except EmptyBenchmarkError:
                raise  # the budget, not the episode, is at fault: exit 2 in the CLI
            except Exception as exc:
                raise RuntimeError(f"episode failed for seed {seed}: {exc}") from exc
            transcripts.append(tr)

        mean = float(regrets.mean())
        std = float(regrets.std(ddof=1)) if len(seeds) > 1 else 0.0
        bound = params["bound"]
        summary = {
            "algorithm": params["algorithm"],
            "n": n,
            "d": policy_class.d,
            "seeds": [int(s) for s in seeds],
            "mean_regret": mean,
            "std_regret": std,
            "mean_realized_regret": float(realized.mean()),
            "bound": bound,
            "bound_stderr": params["bound_stderr"],
            "gamma_used": params["gamma"],
            "rad_estimate": params["rad_estimate"],
            "rad_stderr": params["rad_stderr"],
            "oracle_calls_total": int(strategy.oracle_calls),
            "regret_stderr": float(std / np.sqrt(len(seeds))),
            "violations": int(bound is not None and mean > bound),
            "per_seed_regret": [float(r) for r in regrets],
        }
        for key in ("class_rad_estimate", "class_rad_stderr"):
            if key in params:
                summary[key] = params[key]
        if out_dir is not None:
            for seed, tr in zip(seeds, transcripts):
                write_episode_csv(os.path.join(out_dir, f"episode_{seed}.csv"), tr)
            with open(os.path.join(out_dir, "summary.json"), "w") as f:
                json.dump(summary, f, indent=2, sort_keys=True)
                f.write("\n")
        return summary
