"""Exact admissibility checks for the shipped relaxations.

A relaxation is admissible when, at every round, the expected best-response
value of the adversary (enumerating contexts with their probabilities and
cost vectors over the hypercube vertices, where the inner expression is
convex in the cost vector) does not exceed the relaxation of the shorter
history, and when at the horizon the relaxation dominates the negated
benchmark in expectation over the action draws.

Both sides are exact: the playout relaxations are priced through the oracle
each one plays, as weighted means over every future of the remaining rounds,
and the exponential-weights reduction is a finite log-sum-exp. Instances are
capped at desk scale so futures and action sequences stay enumerable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .adversarial import ExpWeightsRelaxation
from .erm import ErmOracle, ExactErmOracle, benchmark
from .environments import context_probs
from .policies import CapacityError, PolicyClass, mix_with_uniform
from .strategies import SIGN_SCALE
from .waterfill import waterfill

MAX_D = 3
MAX_N = 3
MAX_UNIVERSE = 3
MAX_CLASS = 8

TOL = 1e-9


@dataclass(frozen=True)
class RecursiveStep:
    round_index: int
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs

    def passed(self) -> bool:
        return self.margin <= TOL


@dataclass(frozen=True)
class InitialCondition:
    checks: int
    min_margin: float
    failures: int


@dataclass
class AdmissibilityReport:
    steps: list[RecursiveStep]
    initial: InitialCondition

    def ok(self) -> bool:
        return all(s.passed() for s in self.steps) and self.initial.failures == 0


def _checked_probs(policy_class: PolicyClass, probs, n: int, gamma: float) -> np.ndarray:
    probs = context_probs(probs)
    if n < 1:
        raise ValueError(f"admissibility checks need at least one round; got n={n}")
    if not 0.0 < gamma <= 1.0 / policy_class.d:
        raise ValueError(f"admissibility checks need gamma in (0, 1/d]; got gamma={gamma}")
    if policy_class.d > MAX_D or n > MAX_N:
        raise CapacityError(f"admissibility checks limited to d<={MAX_D}, n<={MAX_N}")
    if len(probs) > MAX_UNIVERSE or policy_class.size > MAX_CLASS:
        raise CapacityError(
            f"admissibility checks limited to |X|<={MAX_UNIVERSE}, |F|<={MAX_CLASS}"
        )
    return probs


def playout_values(oracle: ErmOracle, ctx: np.ndarray, cols: np.ndarray,
                   fut_ctx: np.ndarray, fut_signs: np.ndarray) -> np.ndarray:
    """``oracle`` on play's queries [history | SIGN_SCALE*eps], every history
    against every future, as one stack in s-major order: H histories of
    contexts (H, k) and columns (H, k, d) in play's units gamma*c~, and S
    futures of contexts (S, m) and signs (S, d, m). Returns shape (S, H)."""
    (H, k, d), S = cols.shape, len(fut_signs)
    contexts = np.hstack([np.tile(ctx, (S, 1)), np.repeat(fut_ctx, H, axis=0)])
    Y = np.concatenate([np.tile(cols.transpose(0, 2, 1), (S, 1, 1)),
                        np.repeat(SIGN_SCALE * fut_signs, H, axis=0)], axis=2)
    return oracle(contexts, Y).reshape(S, H)


def _futures(probs: np.ndarray, d: int, m: int):
    """Every future of m rounds: contexts (S, m) and signs (S, d, m), context
    sequence by context sequence (those with p = 0 left out), sign pattern by
    sign pattern, with weights p(contexts) * 2^(-d*m) (S,) summing to 1."""
    patterns = 2 ** (d * m)
    bits = (np.arange(patterns)[:, None] >> np.arange(d * m)) & 1
    eps = (bits * 2.0 - 1.0).reshape(patterns, d, m)
    combos = np.array(list(itertools.product(range(probs.size), repeat=m)), dtype=np.int64)
    ctx_w = probs[combos].prod(axis=1)
    combos, ctx_w = combos[ctx_w > 0], ctx_w[ctx_w > 0]
    return (np.repeat(combos, patterns, axis=0), np.tile(eps, (len(combos), 1, 1)),
            np.repeat(ctx_w / patterns, patterns))


def _exact_mixed_q(oracle: ErmOracle, probs: np.ndarray, gamma: float, n: int,
                   realized_ctx: np.ndarray, scaled_past: np.ndarray, x: int) -> np.ndarray:
    """Expected mixed distribution at context x, playouts enumerated exactly:
    the strategy's d queries, whose history j is the past then e_j at x, for
    every future go through ``playout_values`` as one stack."""
    k, d = scaled_past.shape
    fut_ctx, fut_signs, weights = _futures(probs, d, n - k - 1)
    cols = np.concatenate([np.broadcast_to(scaled_past, (d, k, d)), np.eye(d)[:, None]], axis=1)
    ctx = np.broadcast_to(np.append(realized_ctx, x), (d, k + 1))
    psi = playout_values(oracle, ctx, cols, fut_ctx, fut_signs)
    q_star = np.zeros(d)
    for w, row in zip(weights, psi):
        q_star += w * np.asarray(waterfill(row))
    return mix_with_uniform(q_star, gamma)


def _walk(policy_class: PolicyClass, probs: np.ndarray, n: int, gamma: float,
          seed, initial_checks: int, strategy, relaxation, endpoint_values,
          constraint=None, K: float | None = None) -> AdmissibilityReport:
    """Walk one sampled history and test the per-round inequality at each step,
    then test the horizon condition on random endpoints.

    The history is kept as contexts (t,) and columns gamma*c~ (t, d), the
    units of the strategies' own queries. ``strategy(ctx, cols, x)`` gives the
    mixed distribution at x. ``relaxation(m)`` returns ``price(ctx, cols)``,
    the relaxation of that history, exploration tax included, in expectation
    over m rounds to go. The history draws from spawn key 1 of ``seed``, the
    endpoints from key 0. With a constraint and its budget K, the horizon
    condition's benchmark is the class filtered at K.
    """
    if initial_checks < 1:
        raise ValueError(f"initial_checks must be at least 1; got {initial_checks}")
    if seed < 0:  # SeedSequence's own refusal would not name it
        raise ValueError(f"seed must be a non-negative integer; got {seed}")
    d = policy_class.d
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    path_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    vertices = np.array(list(itertools.product((0.0, 1.0), repeat=d)))
    ctx = np.empty(0, dtype=np.int64)
    cols = np.empty((0, d))
    steps: list[RecursiveStep] = []
    for t in range(1, n + 1):
        # Relaxation of the shorter history: futures cover rounds t..n.
        rhs = relaxation(n - t + 1)(ctx, cols)
        price = relaxation(n - t)

        # Adversary side, context by context with exact strategy expectations;
        # a context with p(x) = 0 adds nothing.
        lhs = 0.0
        qs_by_context = {}
        for x in np.nonzero(probs)[0].tolist():
            q = qs_by_context[x] = strategy(ctx, cols, x)
            ctx_now = np.append(ctx, x)
            # after playing j the history depends on c only through c[j]; at c[j] = 0, not on j
            zero = price(ctx_now, np.vstack([cols, np.zeros(d)]))
            after = [(zero, price(ctx_now, np.vstack([cols, gamma / q[j] * np.eye(d)[j]])))
                     for j in range(d)]
            lhs += probs[x] * max(sum(q[j] * (c[j] + after[j][int(c[j])]) for j in range(d))
                                  for c in vertices)
        steps.append(RecursiveStep(round_index=t, lhs=float(lhs), rhs=float(rhs)))

        # Advance the sampled history one round.
        x_t = int(path_rng.choice(probs.size, p=probs))
        q_t = qs_by_context[x_t]
        c_t = path_rng.integers(0, 2, size=d).astype(float)
        y_t = int(path_rng.choice(d, p=q_t))
        col = gamma * c_t[y_t] / q_t[y_t] * np.eye(d)[y_t]
        ctx, cols = np.append(ctx, x_t), np.vstack([cols, col])

    initial = _check_initial(endpoint_values, policy_class, probs, n, gamma, rng,
                             initial_checks, constraint, K)
    return AdmissibilityReport(steps=steps, initial=initial)


def check_bistro_admissibility(
    policy_class: PolicyClass,
    probs,
    n: int,
    gamma: float,
    *,
    oracle: ErmOracle | None = None,
    budget: float = 0.0,
    constraint=None,
    K: float | None = None,
    seed=0,
    initial_checks: int = 1000,
) -> AdmissibilityReport:
    """The walk for a random-playout relaxation; q, every relaxation value and
    the horizon condition enumerate futures or action sequences exactly.

    ``oracle`` and ``budget`` are the relaxation's (``runner.relaxation``;
    by default bistro's), and both sides price through ``playout_values``.
    ``constraint`` and ``K`` filter the benchmark, as the runner does.
    """
    probs = _checked_probs(policy_class, probs, n, gamma)
    d = policy_class.d
    oracle = ExactErmOracle(policy_class) if oracle is None else oracle

    def relaxation(m: int):
        fut_ctx, fut_signs, weights = _futures(probs, d, m)
        # fsum: a BLAS dot product's last bits would depend on its thread count
        return lambda ctx, cols: math.fsum(weights * (m * d * gamma + budget - playout_values(
            oracle, ctx[None], cols[None], fut_ctx, fut_signs)[:, 0] / gamma))

    empty_ctx, empty_signs, _ = _futures(probs, d, 0)  # an endpoint's one future
    return _walk(
        policy_class, probs, n, gamma, seed, initial_checks,
        lambda ctx, cols, x: _exact_mixed_q(oracle, probs, gamma, n, ctx, cols, x),
        relaxation,
        lambda cols, ctx: budget - playout_values(
            oracle, ctx, gamma * cols, empty_ctx, empty_signs)[0] / gamma,
        constraint, K,
    )


def _check_initial(endpoint_values, policy_class: PolicyClass, probs: np.ndarray,
                   n: int, gamma: float, rng: np.random.Generator, count: int,
                   constraint=None, K: float | None = None) -> InitialCondition:
    """E over action draws of the endpoint relaxation must dominate the
    negated benchmark; action sequences are enumerated exactly.

    Every check is drawn first; then the endpoints of all checks and action
    sequences go to ``endpoint_values`` as one stack, costs (S, n, d) and
    contexts (S, n).
    """
    d = policy_class.d
    xs = np.empty((count, n), dtype=np.int64)
    costs = np.empty((count, n, d))
    qs = np.empty((count, n, d))
    for i in range(count):
        xs[i] = rng.choice(probs.size, size=n, p=probs)
        if i % 2 == 0:
            costs[i] = rng.integers(0, 2, size=(n, d))
        else:
            costs[i] = rng.random((n, d))
        qs[i] = [mix_with_uniform(rng.dirichlet(np.ones(d)), gamma) for _ in range(n)]
    # only policies with C(f) <= K on the endpoint's contexts compete, as in regret accounting
    bench = -benchmark(policy_class, xs, costs.transpose(0, 2, 1), constraint, K)

    actions = np.array(list(itertools.product(range(d), repeat=n)))  # (d^n, n)
    seqs, rounds = np.arange(d**n)[:, None], np.arange(n)
    picked_q = qs[:, rounds, actions]  # (count, d^n, n)
    cols = np.zeros((count, d**n, n, d))
    cols[:, seqs, rounds, actions] = costs[:, rounds, actions] / picked_q
    values = endpoint_values(cols.reshape(-1, n, d), np.repeat(xs, d**n, axis=0))
    values = values.reshape(count, d**n)
    seq_probs = picked_q.prod(axis=2)
    expectation = np.zeros(count)
    for a in range(d**n):  # one running sum per check, in action-sequence order
        expectation += seq_probs[:, a] * values[:, a]
    margins = expectation - bench
    return InitialCondition(checks=count, min_margin=float(margins.min(initial=np.inf)),
                            failures=int((margins < -TOL).sum()))


def check_reduction_admissibility(
    policy_class: PolicyClass,
    probs,
    n: int,
    gamma: float,
    *,
    eta: float | None = None,
    seed=0,
    initial_checks: int = 1000,
) -> AdmissibilityReport:
    """The walk for the full-information reduction, priced by log-sum-exps."""
    probs = _checked_probs(policy_class, probs, n, gamma)
    d = policy_class.d
    rel = ExpWeightsRelaxation(policy_class, n, eta=eta)
    return _walk(
        policy_class, probs, n, gamma, seed, initial_checks,
        lambda ctx, cols, x: mix_with_uniform(
            rel.strategy(policy_class.values(ctx, cols.T), x), gamma),
        lambda m: lambda ctx, cols: rel.value(cols, ctx) / gamma + m * d * gamma,
        lambda cols, ctx: np.array([rel.value(gamma * c, x) for c, x in zip(cols, ctx)]) / gamma,
    )

