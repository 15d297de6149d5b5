"""Deliberately naive oracles used only to cross-check the production code.

Nothing here shares computation paths with the implementations under test:
ERM is a double loop over action-table rows and rounds, per-policy linear
values are gathered round by round instead of folded by context, the
Rademacher average and the regularized bound enumerate every sign
assignment, and the minimax solver searches a simplex lattice by level
counting (or random sampling). Capacity limits are hard errors, never
silent truncation.
"""

from __future__ import annotations

import numpy as np

from .erm import policy_constraint_values
from .policies import CapacityError, PolicyClass

BRUTEFORCE_CLASS_LIMIT = 10**4
BRUTEFORCE_HORIZON_LIMIT = 64
RADEMACHER_BITS_LIMIT = 24
REGULARIZED_BOUND_LIMIT = 4096
LATTICE_LIMIT = 10**8


def sequence_values(policy_class: PolicyClass, contexts, Y) -> np.ndarray:
    """sum_t Y[f(x_t), t] for every policy, gathered over the |F| x n action
    matrix: the sequence form that ``PolicyClass.values`` folds by context."""
    actions = policy_class.actions_on(contexts)
    Y = np.asarray(Y, dtype=float)
    n = Y.shape[1]
    if actions.shape[1] != n:
        raise ValueError("context sequence length does not match cost matrix")
    return Y[actions, np.arange(n)].sum(axis=1)


def _action(row: np.ndarray, context) -> int:
    """Action of one action-table row at one context id."""
    i = int(context)
    if not 0 <= i < row.size:
        raise ValueError(f"context id {i} outside the policy's universe")
    return int(row[i])


def policy_to_matrix(policy_class: PolicyClass, f: int, contexts) -> np.ndarray:
    """One-hot (d, n) matrix whose column t marks policy f's action at context t."""
    row = policy_class.table[f]
    ctxs = list(contexts)
    M = np.zeros((policy_class.d, len(ctxs)), dtype=float)
    for t, c in enumerate(ctxs):
        M[_action(row, c), t] = 1.0
    return M


def bruteforce_erm(policy_class: PolicyClass, contexts, Y) -> float:
    """Double loop over the rows of the action table and the rounds."""
    if policy_class.size == 0:
        raise ValueError("ERM over an empty policy class")
    ctxs = list(contexts)
    if policy_class.size > BRUTEFORCE_CLASS_LIMIT or len(ctxs) > BRUTEFORCE_HORIZON_LIMIT:
        raise CapacityError("instance too large for the brute-force ERM")
    Y = np.asarray(Y, dtype=float)
    best = None
    for row in policy_class.table:
        total = 0.0
        for t, c in enumerate(ctxs):
            total += Y[_action(row, c), t]
        if best is None or total < best:
            best = total
    return float(best)


def exact_rademacher(policy_class: PolicyClass, contexts) -> float:
    """Exact E_eps sup_f sum_t eps_t[f(x_t)] by enumerating sign assignments."""
    ctxs = list(contexts)
    n = len(ctxs)
    d = policy_class.d
    bits = n * d
    if bits > RADEMACHER_BITS_LIMIT:
        raise CapacityError(f"2^{bits} sign assignments exceed the enumeration limit")
    actions = np.array([[_action(row, c) for c in ctxs] for row in policy_class.table],
                       dtype=np.int64)
    total = 0.0
    count = 1 << bits
    cols = np.arange(n)
    for code in range(count):
        eps = (((code >> np.arange(bits)) & 1) * 2.0 - 1.0).reshape(d, n)
        total += eps[actions, cols].sum(axis=1).max()
    return float(total / count)


def exact_regularized_bound(policy_class: PolicyClass, probs, n: int, gamma: float,
                            lam: float, K: float, constraint) -> float:
    """E_{x,eps} sup_f { -(1/gamma) sum_t eps_t[f(x_t)] - lam*C(f; x) } + n*d*gamma + lam*K.

    Exact enumeration over sign patterns and context sequences: the
    reference for the Monte-Carlo bound of ``bistro_regularized``.
    """
    d = policy_class.d
    probs = np.asarray(probs, dtype=float)
    X = probs.size
    if 2 ** (n * d) > REGULARIZED_BOUND_LIMIT or X**n > REGULARIZED_BOUND_LIMIT:
        raise CapacityError(
            f"regularized bound enumeration limited to 2^(nd), |X|^n <= {REGULARIZED_BOUND_LIMIT}")
    codes = np.arange(2 ** (n * d))
    bits = (codes[:, None] >> np.arange(n * d)) & 1
    eps = (2.0 * bits - 1.0).reshape(-1, d, n)  # (P, d, n)

    xcodes = np.arange(X**n, dtype=np.int64)
    xseqs = (xcodes[:, None] // X ** np.arange(n, dtype=np.int64)) % X  # (S, n)
    weights = probs[xseqs].prod(axis=1)

    total = 0.0
    cols = np.arange(n)
    for xseq, w in zip(xseqs, weights):
        if w == 0.0:
            continue
        A = policy_class.actions_on(xseq)  # (|F|, n)
        picked = eps[:, A, cols]           # (P, |F|, n)
        vals = -picked.sum(axis=2) / gamma
        if lam > 0:
            vals = vals - lam * policy_constraint_values(constraint, policy_class, xseq)
        total += w * vals.max(axis=1).mean()
    return float(total + n * d * gamma + lam * K)


def _lattice_optimum(psi: np.ndarray, resolution: int) -> tuple[np.ndarray, float]:
    """Exact minimum of max_j(q_j - psi_j) over {q = k/resolution, sum k = resolution}.

    Coordinate j at count m contributes level m/resolution - psi_j, increasing
    in m; a threshold v is achievable iff every coordinate has some level
    <= v and the per-coordinate capacities sum to at least ``resolution``.
    Binary search over the finite set of levels finds the least such v.
    """
    d = psi.size
    levels = np.arange(resolution + 1)[None, :] / resolution - psi[:, None]  # (d, res+1)
    candidates = np.unique(levels)

    caps = np.array([np.searchsorted(levels[j], candidates, side="right") - 1
                     for j in range(d)])  # (d, |candidates|)
    feasible = (caps >= 0).all(axis=0) & (np.minimum(caps, resolution).sum(axis=0) >= resolution)
    v = candidates[np.argmax(feasible)]  # least candidate marked feasible

    cap = np.minimum(
        np.array([np.searchsorted(levels[j], v, side="right") - 1 for j in range(d)]),
        resolution,
    )
    k = np.zeros(d, dtype=np.int64)
    remaining = resolution
    for j in range(d):
        take = min(int(cap[j]), remaining)
        k[j] = take
        remaining -= take
    if remaining:
        raise RuntimeError("lattice construction failed to place all mass")
    q = k / resolution
    return q, float((q - psi).max())


def grid_minimax(psi, resolution: int = 1000, mode: str = "lattice",
                 samples: int = 1000, rng=None) -> tuple[np.ndarray, float]:
    """Search min_q max_j (q_j - psi_j) over a simplex lattice or random points.

    Lattice mode returns the exact optimum over the step-1/resolution grid,
    hence a value within O(1/resolution) of the continuous optimum. Sample
    mode evaluates ``samples`` Dirichlet draws and keeps the best.
    """
    psi = np.asarray(psi, dtype=float)
    if psi.ndim != 1 or psi.size < 1:
        raise ValueError("psi must be a nonempty vector")
    if psi.size == 1:
        return np.ones(1), float(1.0 - psi[0])
    if mode == "lattice":
        if psi.size * (resolution + 1) > LATTICE_LIMIT:
            raise CapacityError("lattice too large")
        return _lattice_optimum(psi, resolution)
    if mode == "sample":
        rng = np.random.default_rng(rng)
        qs = rng.dirichlet(np.ones(psi.size), size=samples)
        vals = (qs - psi[None, :]).max(axis=1)
        best = int(np.argmin(vals))
        return qs[best], float(vals[best])
    raise ValueError(f"unknown mode {mode!r}")


def enumerate_grid_minimax(psi, resolution: int) -> tuple[np.ndarray, float]:
    """Reference full enumeration of the lattice, for checking the fast search."""
    psi = np.asarray(psi, dtype=float)
    d = psi.size
    if (resolution + 1) ** max(d - 1, 1) > 10**6:
        raise CapacityError("full lattice enumeration too large")
    best_q, best_v = None, np.inf
    counts = np.zeros(d, dtype=np.int64)

    def rec(j: int, remaining: int):
        nonlocal best_q, best_v
        if j == d - 1:
            counts[j] = remaining
            q = counts / resolution
            v = float((q - psi).max())
            if v < best_v:
                best_v, best_q = v, q.copy()
            return
        for c in range(remaining + 1):
            counts[j] = c
            rec(j + 1, remaining - c)

    rec(0, resolution)
    return best_q, best_v


def selftest(verbose: bool = True) -> bool:
    """Fast oracle-equivalence pass over the production implementations."""
    from .erm import (
        PairwiseDisagreement,
        RegularizedErmQuery,
        exact_erm_value,
        mlc_bruteforce,
        regularized_erm_value,
    )
    from .waterfill import minimax_value, waterfill, waterfill_oracle

    rng = np.random.default_rng(20_240_817)
    ok = True

    def report(name: str, passed: bool):
        nonlocal ok
        ok = ok and passed
        if verbose:
            print(f"{'PASS' if passed else 'FAIL'} {name}")

    worst_q, worst_v = 0.0, 0.0
    for _ in range(200):
        d = int(rng.integers(2, 9))
        psi = rng.uniform(-8, 8, size=d)
        q1, q2 = waterfill(psi), waterfill_oracle(psi)
        worst_q = max(worst_q, float(np.abs(q1 - q2).max()))
        worst_v = max(worst_v, abs(minimax_value(q1, psi) - minimax_value(q2, psi)))
    report(f"waterfill vs bisection oracle (max |dq|={worst_q:.2e})",
           worst_q <= 1e-8 and worst_v <= 1e-10)

    grid_ok = True
    for _ in range(50):
        d = int(rng.integers(2, 5))
        psi = rng.uniform(-4, 4, size=d)
        _, v_grid = grid_minimax(psi, resolution=1000)
        v_wf = minimax_value(waterfill(psi), psi)
        grid_ok = grid_ok and (v_wf <= v_grid + 1e-9) and (v_grid - v_wf <= 2e-3)
    report("waterfill optimal on the lattice within 2e-3", grid_ok)

    erm_ok = True
    for _ in range(100):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 9))
        size = int(rng.integers(1, 11))
        universe = int(rng.integers(1, 5))
        pc = PolicyClass(rng.integers(0, d, size=(size, universe)), d)
        ctxs = rng.integers(0, universe, size=n)
        # dyadic entries keep float addition associative across sum orders
        Y = rng.integers(-2 << 20, (2 << 20) + 1, size=(d, n)) / (1 << 20)
        erm_ok = erm_ok and exact_erm_value(pc, ctxs, Y) == bruteforce_erm(pc, ctxs, Y)
    report("exact ERM vs brute force (exact equality)", erm_ok)

    mlc_ok = True
    for _ in range(50):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(2, 7))
        pc = PolicyClass.all_labelings(d, n)
        ctxs = np.arange(n)
        Y = rng.uniform(-1, 1, size=(d, n))
        lam = float(rng.uniform(0, 0.5))
        value = regularized_erm_value(
            pc, ctxs, RegularizedErmQuery(Y=Y, lambda_scaled=lam,
                                          constraint=PairwiseDisagreement("uniform"))
        )
        W = np.full((n, n), 2.0 * lam)
        np.fill_diagonal(W, 0.0)
        metric = 1.0 - np.eye(d)
        mlc = mlc_bruteforce(Y.T, W, metric)
        mlc_ok = mlc_ok and abs(value - mlc) < 1e-9
    report("regularized ERM vs metric-labeling brute force", mlc_ok)

    return ok
