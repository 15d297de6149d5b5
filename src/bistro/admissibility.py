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

    def passed(self, k: float = 3.0) -> bool:
        return self.margin <= k * self.stderr + EXACT_TOL


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

    def ok(self, k: float = 3.0) -> bool:
        return all(s.passed(k) for s in self.steps) and self.initial.failures == 0


def _check_capacity(policy_class: PolicyClass, probs, n: int) -> None:
    if policy_class.d > MAX_D or n > MAX_N:
        raise CapacityError(f"admissibility checks limited to d<={MAX_D}, n<={MAX_N}")
    if len(probs) > MAX_UNIVERSE or policy_class.size > MAX_CLASS:
        raise CapacityError(
            f"admissibility checks limited to |X|<={MAX_UNIVERSE}, |F|<={MAX_CLASS}"
        )


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
    """Walk one sampled history and test the per-round inequality at each step,
    then test the horizon condition on random endpoints (exactly, by
    enumerating action sequences).

    Both sides price costs in the relaxation's units: the history as c~ =
    c/q, the current round as c/q, the playouts as (SIGN_SCALE/gamma)*eps.
    The strategy's own queries carry the history as gamma*c~.
    """
    probs = np.asarray(probs, dtype=float)
    _check_capacity(policy_class, probs, n)
    d = policy_class.d
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    path_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    universe = probs.size
    vertices = _vertices(d)

    realized: list[int] = []
    estimates: list[np.ndarray] = []
    steps: list[RecursiveStep] = []
    for t in range(1, n + 1):
        k = t - 1
        ctx_fixed = np.asarray(realized, dtype=np.int64)
        est_cols = np.asarray(estimates, dtype=float).reshape(k, d)  # gamma * c~
        fixed = policy_class.values(ctx_fixed, est_cols.T / gamma)

        # Relaxation of the shorter history: futures cover rounds t..n.
        m_rhs = n - k
        fut_ctx = rng.choice(universe, size=(samples, m_rhs), p=probs)
        fut_signs = rng.integers(0, 2, size=(samples, d, m_rhs)) * 2.0 - 1.0
        # per draw, sup_f of -(fixed history + the scaled signs of the playout)
        future = policy_class.values_many(fut_ctx, SIGN_SCALE / gamma * fut_signs)
        sups = -(fixed + future).min(axis=1)
        rhs = float(sups.mean()) + m_rhs * d * gamma
        se_rhs = float(sups.std(ddof=1) / np.sqrt(samples))

        # Adversary side, context by context with exact strategy expectations.
        lhs = 0.0
        var_lhs = 0.0
        qs_by_context = []
        for x in range(universe):
            q = _exact_mixed_q(policy_class, probs, gamma, n, ctx_fixed, est_cols, x)
            qs_by_context.append(q)
            if probs[x] == 0.0:
                continue
            m_lhs = n - t
            fut_ctx_x = rng.choice(universe, size=(samples, m_lhs), p=probs)
            fut_signs_x = rng.integers(0, 2, size=(samples, d, m_lhs)) * 2.0 - 1.0
            future = policy_class.values_many(fut_ctx_x, SIGN_SCALE / gamma * fut_signs_x)
            plays = policy_class.table[:, x]
            sup_by_action = [
                np.array([-(fixed + (plays == j) * (c[j] / q[j]) + future).min(axis=1)
                          for c in vertices])
                for j in range(d)
            ]
            best = -np.inf
            best_draws = None
            for vi, c in enumerate(vertices):
                draws = np.zeros(samples)
                for j in range(d):
                    draws += q[j] * (c[j] + sup_by_action[j][vi])
                value = float(draws.mean()) + m_lhs * d * gamma
                if value > best:
                    best, best_draws = value, draws
            lhs += probs[x] * best
            var_lhs += (probs[x] ** 2) * float(best_draws.var(ddof=1)) / samples

        stderr = float(np.sqrt(var_lhs + se_rhs**2))
        steps.append(RecursiveStep(round_index=t, lhs=lhs, rhs=rhs, stderr=stderr))

        # Advance the sampled history one round.
        x_t = int(path_rng.choice(universe, p=probs))
        q_t = qs_by_context[x_t]
        c_t = path_rng.integers(0, 2, size=d).astype(float)
        y_t = int(path_rng.choice(d, p=q_t))
        est = np.zeros(d)
        est[y_t] = gamma * c_t[y_t] / q_t[y_t]
        realized.append(x_t)
        estimates.append(est)

    initial = _check_initial(
        lambda cols, ctx: -policy_class.values_many(ctx, cols.transpose(0, 2, 1)).min(axis=1),
        policy_class, probs, n, gamma, rng, initial_checks,
    )
    return AdmissibilityReport(
        algorithm="bistro", gamma=gamma, samples=samples, steps=steps, initial=initial
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
    """Same walk for the full-information reduction; every relaxation value is
    a finite log-sum-exp, so both sides are exact and stderr is zero."""
    probs = np.asarray(probs, dtype=float)
    _check_capacity(policy_class, probs, n)
    d = policy_class.d
    rel = ExpWeightsRelaxation(policy_class, n, eta=eta)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    path_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    universe = probs.size
    vertices = _vertices(d)

    def reduced_value(scaled_rows: np.ndarray, ctx: np.ndarray) -> float:
        t = len(scaled_rows)
        return rel.value(scaled_rows, ctx) / gamma + (n - t) * d * gamma

    xs: list[int] = []
    scaled: list[np.ndarray] = []
    steps: list[RecursiveStep] = []
    for t in range(1, n + 1):
        hist_rows = np.asarray(scaled, dtype=float).reshape(t - 1, d)
        hist_ctx = np.asarray(xs, dtype=np.int64)
        rhs = reduced_value(hist_rows, hist_ctx)
        lhs = 0.0
        qs_by_context = []
        for x in range(universe):
            q = mix_with_uniform(rel.strategy(hist_rows, hist_ctx, x), gamma)
            qs_by_context.append(q)
            if probs[x] == 0.0:
                continue
            ctx_now = np.append(hist_ctx, x)
            best = -np.inf
            for c in vertices:
                value = 0.0
                for j in range(d):
                    row = np.zeros(d)
                    row[j] = gamma * c[j] / q[j]
                    value += q[j] * (
                        c[j] + reduced_value(np.vstack([hist_rows, row[None, :]]), ctx_now)
                    )
                best = max(best, value)
            lhs += probs[x] * best
        steps.append(RecursiveStep(round_index=t, lhs=lhs, rhs=rhs, stderr=0.0))

        x_t = int(path_rng.choice(universe, p=probs))
        q_t = qs_by_context[x_t]
        c_t = path_rng.integers(0, 2, size=d).astype(float)
        y_t = int(path_rng.choice(d, p=q_t))
        row = np.zeros(d)
        row[y_t] = gamma * c_t[y_t] / q_t[y_t]
        xs.append(x_t)
        scaled.append(row)

    initial = _check_initial(
        lambda cols, ctx: np.array([rel.value(gamma * c, x) for c, x in zip(cols, ctx)]) / gamma,
        policy_class, probs, n, gamma, rng, initial_checks,
    )
    return AdmissibilityReport(
        algorithm="adversarial_reduction", gamma=gamma, samples=0,
        steps=steps, initial=initial,
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
