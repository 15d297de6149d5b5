"""Empirical admissibility checks for the shipped relaxations.

A relaxation is admissible when, at every round, the expected best-response
value of the adversary (enumerating contexts with their probabilities and
cost vectors over the hypercube vertices, where the inner expression is
convex in the cost vector) does not exceed the relaxation of the shorter
history, and when at the horizon the relaxation dominates the negated
benchmark in expectation over the action draws.

The playout relaxation is estimated by Monte Carlo with reported standard
errors; the exponential-weights reduction is evaluated exactly. Instances
are capped at desk scale so expectations over playouts and action sequences
stay enumerable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .adversarial import ExpWeightsRelaxation
from .policies import CapacityError, PolicyClass, mix_with_uniform
from .strategies import SIGN_SCALE
from .waterfill import waterfill

MAX_D = 3
MAX_N = 3
MAX_UNIVERSE = 3
MAX_CLASS = 8

INITIAL_TOL = 1e-9
EXACT_TOL = 1e-9


@dataclass(frozen=True)
class RecursiveStep:
    round_index: int
    lhs: float
    rhs: float
    stderr: float

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs

    def passed(self) -> bool:
        return self.margin <= 3.0 * self.stderr + EXACT_TOL


@dataclass(frozen=True)
class InitialCondition:
    checks: int
    min_margin: float
    failures: int


@dataclass
class AdmissibilityReport:
    algorithm: str
    gamma: float
    samples: int
    steps: list[RecursiveStep]
    initial: InitialCondition

    def ok(self) -> bool:
        return all(s.passed() for s in self.steps) and self.initial.failures == 0


def _checked_probs(policy_class: PolicyClass, probs, n: int) -> np.ndarray:
    probs = np.asarray(probs, dtype=float)
    if policy_class.d > MAX_D or n > MAX_N:
        raise CapacityError(f"admissibility checks limited to d<={MAX_D}, n<={MAX_N}")
    if len(probs) > MAX_UNIVERSE or policy_class.size > MAX_CLASS:
        raise CapacityError(
            f"admissibility checks limited to |X|<={MAX_UNIVERSE}, |F|<={MAX_CLASS}"
        )
    return probs


def _vertices(d: int) -> np.ndarray:
    return np.array(list(itertools.product((0.0, 1.0), repeat=d)))


def _sign_patterns(cells: int) -> np.ndarray:
    codes = np.arange(2**cells)
    return ((codes[:, None] >> np.arange(cells)) & 1) * 2.0 - 1.0


def _exact_mixed_q(policy_class: PolicyClass, probs: np.ndarray, gamma: float,
                   n: int, realized_ctx: np.ndarray, scaled_past: np.ndarray,
                   x: int) -> np.ndarray:
    """Expected mixed distribution at context x, playouts enumerated exactly.

    Per future context sequence, the strategy's d queries for every sign
    pattern go to ``values_many`` as one stack of 2^(d*m) * d queries.
    """
    d = policy_class.d
    k = realized_ctx.size
    m = n - k - 1
    patterns = 2 ** (d * m)
    eps = _sign_patterns(d * m).reshape(patterns, d, m)
    Y = np.zeros((patterns, d, d, n))  # (pattern, priced action j, d, n)
    Y[:, :, :, :k] = scaled_past.T
    Y[:, np.arange(d), np.arange(d), k] = 1.0
    Y[:, :, :, k + 1:] = SIGN_SCALE * eps[:, None]
    Y = Y.reshape(patterns * d, d, n)

    q_star = np.zeros(d)
    for combo in itertools.product(range(probs.size), repeat=m):
        ctx_w = float(np.prod(probs[list(combo)])) if m else 1.0
        if ctx_w == 0.0:
            continue
        ctx = np.concatenate([realized_ctx, [x], combo]).astype(np.int64)
        psi = policy_class.values_many(np.broadcast_to(ctx, (Y.shape[0], n)), Y)
        psi = psi.min(axis=1).reshape(patterns, d)
        for p in range(patterns):
            q_star += ctx_w / patterns * waterfill(psi[p])
    return mix_with_uniform(q_star, gamma)


def _walk(algorithm: str, samples: int, policy_class: PolicyClass, probs: np.ndarray,
          n: int, gamma: float, seed, initial_checks: int,
          strategy, relaxation, endpoint_values) -> AdmissibilityReport:
    """Walk one sampled history and test the per-round inequality at each step,
    then test the horizon condition on random endpoints.

    The history is kept as contexts (t,) and columns gamma*c~ (t, d), the
    units of the strategies' own queries. ``strategy(ctx, cols, x)`` gives the
    mixed distribution at x. ``relaxation(m, rng)`` draws the randomness of m
    future rounds once and returns ``price(ctx, cols)``: an array of draws of
    the relaxation of that history, exploration tax included. The rhs is
    drawn first; then, per context with p(x) > 0, q is computed and one draw
    of futures prices every vertex and action. The stderr comes from the
    rhs draws and the best vertex's draws.
    """
    d = policy_class.d
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    path_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    vertices = _vertices(d)
    ctx = np.empty(0, dtype=np.int64)
    cols = np.empty((0, d))
    steps: list[RecursiveStep] = []
    for t in range(1, n + 1):
        # Relaxation of the shorter history: futures cover rounds t..n.
        rhs_draws = relaxation(n - t + 1, rng)(ctx, cols)
        rhs, var = float(rhs_draws.mean()), _var_of_mean(rhs_draws)

        # Adversary side, context by context with exact strategy expectations;
        # a context with p(x) = 0 adds nothing and is never drawn.
        lhs = 0.0
        qs_by_context = {}
        for x in np.nonzero(probs)[0].tolist():
            q = qs_by_context[x] = strategy(ctx, cols, x)
            price = relaxation(n - t, rng)
            ctx_now = np.append(ctx, x)
            # the history after playing j depends on the vertex only through c[j]
            after = [[price(ctx_now, np.vstack([cols, gamma * cj / q[j] * np.eye(d)[j]]))
                      for cj in (0.0, 1.0)] for j in range(d)]
            best, best_draws = -np.inf, None
            for c in vertices:
                draws = sum(q[j] * (c[j] + after[j][int(c[j])]) for j in range(d))
                value = float(draws.mean())
                if value > best:
                    best, best_draws = value, draws
            lhs += probs[x] * best
            var += probs[x] ** 2 * _var_of_mean(best_draws)
        steps.append(RecursiveStep(round_index=t, lhs=lhs, rhs=rhs, stderr=float(np.sqrt(var))))

        # Advance the sampled history one round.
        x_t = int(path_rng.choice(probs.size, p=probs))
        q_t = qs_by_context[x_t]
        c_t = path_rng.integers(0, 2, size=d).astype(float)
        y_t = int(path_rng.choice(d, p=q_t))
        col = gamma * c_t[y_t] / q_t[y_t] * np.eye(d)[y_t]
        ctx, cols = np.append(ctx, x_t), np.vstack([cols, col])

    initial = _check_initial(endpoint_values, policy_class, probs, n, gamma, rng,
                             initial_checks)
    return AdmissibilityReport(algorithm=algorithm, gamma=gamma, samples=samples,
                               steps=steps, initial=initial)


def _var_of_mean(draws: np.ndarray) -> float:
    """Variance of the mean of i.i.d. draws; 0 for a single (exact) draw."""
    return float(draws.var(ddof=1)) / draws.size if draws.size > 1 else 0.0


def check_bistro_admissibility(
    policy_class: PolicyClass,
    probs,
    n: int,
    gamma: float,
    *,
    samples: int = 10_000,
    seed=0,
    initial_checks: int = 1000,
) -> AdmissibilityReport:
    """The walk for the random-playout relaxation, by Monte Carlo over the
    playouts; the horizon condition is exact (action sequences enumerated).

    Both sides price costs in the relaxation's units: the history and the
    current round as c~ = c/q, the playouts as (SIGN_SCALE/gamma)*eps.
    """
    probs = _checked_probs(policy_class, probs, n)
    d = policy_class.d

    def relaxation(m: int, rng: np.random.Generator):
        fut_ctx = rng.choice(probs.size, size=(samples, m), p=probs)
        fut_signs = rng.integers(0, 2, size=(samples, d, m)) * 2.0 - 1.0
        future = policy_class.values_many(fut_ctx, SIGN_SCALE / gamma * fut_signs)
        # per draw, sup_f of -(history + the scaled signs of the playout)
        return lambda ctx, cols: m * d * gamma - (
            policy_class.values(ctx, cols.T / gamma) + future).min(axis=1)

    return _walk(
        "bistro", samples, policy_class, probs, n, gamma, seed, initial_checks,
        lambda ctx, cols, x: _exact_mixed_q(policy_class, probs, gamma, n, ctx, cols, x),
        relaxation,
        lambda cols, ctx: -policy_class.values_many(ctx, cols.transpose(0, 2, 1)).min(axis=1),
    )


def _check_initial(endpoint_values, policy_class: PolicyClass, probs: np.ndarray,
                   n: int, gamma: float, rng: np.random.Generator,
                   count: int) -> InitialCondition:
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
    bench = -policy_class.values_many(xs, costs.transpose(0, 2, 1)).min(axis=1)

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
                            failures=int((margins < -INITIAL_TOL).sum()))


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
    """The walk for the full-information reduction; every relaxation value is
    a finite log-sum-exp, so both sides are exact and stderr is zero."""
    probs = _checked_probs(policy_class, probs, n)
    d = policy_class.d
    rel = ExpWeightsRelaxation(policy_class, n, eta=eta)
    return _walk(
        "adversarial_reduction", 0, policy_class, probs, n, gamma, seed, initial_checks,
        lambda ctx, cols, x: mix_with_uniform(rel.strategy(cols, ctx, x), gamma),
        lambda m, rng: lambda ctx, cols: np.array([rel.value(cols, ctx) / gamma + m * d * gamma]),
        lambda cols, ctx: np.array([rel.value(gamma * c, x) for c, x in zip(cols, ctx)]) / gamma,
    )


def expweights_recursive_gap(rel: ExpWeightsRelaxation, costs, contexts,
                             universe: int) -> float:
    """Worst-case per-round slack of the full-information potential.

    Returns max over contexts and vertex costs of
    q^T c + value(c_1..c_t) - value(c_1..c_{t-1}); admissibility requires
    this to be <= 0 (up to arithmetic noise). Vertices suffice because the
    expression is convex in c_t.
    """
    costs = np.asarray(costs, dtype=float).reshape(len(costs), rel.policy_class.d)
    before = rel.value(costs, contexts)
    worst = -np.inf
    for x in range(universe):
        q = rel.strategy(costs, contexts, x)
        ctx_now = np.append(np.asarray(contexts, dtype=np.int64), x)
        for c in _vertices(rel.policy_class.d):
            after = rel.value(np.vstack([costs, c[None, :]]), ctx_now)
            worst = max(worst, float(q @ c) + after - before)
    return worst


def expweights_initial_margin(rel: ExpWeightsRelaxation, costs, contexts) -> float:
    """value(c_1..c_n) + min_f L_n(f); admissibility requires >= 0."""
    costs = np.asarray(costs, dtype=float)
    L = rel._losses(costs, contexts)
    return rel.value(costs, contexts) + float(L.min())
