"""Deliberately naive oracles used only to cross-check the production code.

Nothing here shares computation paths with the implementations under test:
ERM is a double loop over action-table rows and rounds, per-policy linear
values and constraint penalties are summed round by round instead of
folded by context, the Rademacher average and the regularized bound
enumerate every sign assignment, the metric-labeling objective enumerates
every labeling, the water-fill level is found by bisection, and the
minimax solver reads the optimum of a simplex lattice off its sorted
levels. Capacity limits are hard errors, never silent truncation.
"""

from __future__ import annotations

import itertools

import numpy as np

from .erm import CoveragePenalty
from .policies import CapacityError, PolicyClass
from .strategies import SIGN_SCALE

BRUTEFORCE_CLASS_LIMIT = 10**4
BRUTEFORCE_HORIZON_LIMIT = 64
RADEMACHER_BITS_LIMIT = 24
REGULARIZED_BOUND_LIMIT = 4096
LATTICE_LIMIT = 10**8
MLC_LIMIT = 10**6


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


def sequence_constraint(constraint, M, contexts=None) -> float:
    """A constraint on one policy's one-hot (d, n) matrix, summed over round
    pairs (pairwise, weights read off ``constraint.weights``, None for unit
    weights) or round blocks (coverage, ``constraint.partition`` and ``k``;
    ``contexts`` is unused): the form that ``per_policy`` folds."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError("policy matrix must be (d, n)")
    labels = M.argmax(axis=0)
    if isinstance(constraint, CoveragePenalty):
        rounds = sorted(int(t) for block in constraint.partition for t in block)
        if rounds != list(range(labels.size)):
            raise ValueError("partition must cover the round indices 0..n-1 disjointly")
        return float(sum(max(constraint.k - int((labels[block] == j).sum()), 0)
                         for block in constraint.partition for j in range(M.shape[0])))
    ids = np.asarray(list(contexts), dtype=np.int64)
    W = (np.ones((ids.size, ids.size)) if constraint.weights is None
         else constraint.weights[np.ix_(ids, ids)])
    return float((W * (labels[:, None] != labels[None, :])).sum())


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
    """E_{x,eps} sup_f { -(SIGN_SCALE/gamma) sum_t eps_t[f(x_t)] - lam*C(f; x) }
    + n*d*gamma + lam*K: the regularized relaxation at the empty history.

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
        vals = -SIGN_SCALE * picked.sum(axis=2) / gamma
        if lam > 0:
            vals = vals - lam * np.array([sequence_constraint(
                constraint, policy_to_matrix(policy_class, f, xseq), xseq) for f in range(len(A))])
        total += w * vals.max(axis=1).mean()
    return float(total + n * d * gamma + lam * K)


def _psi_vector(psi) -> np.ndarray:
    psi = np.asarray(psi, dtype=float)
    if psi.ndim != 1 or psi.size < 1 or not np.all(np.isfinite(psi)):
        raise ValueError("psi must be a nonempty finite vector")
    return psi


def waterfill_oracle(psi, tol: float = 1e-12) -> np.ndarray:
    """Minimizer of max_j (q_j - psi_j) over the simplex by bisection on the
    level v solving sum_j max(0, psi_j + v) = 1."""
    psi = _psi_vector(psi)
    lo = -float(psi.max())          # total mass 0
    hi = 1.0 - float(psi.min())     # total mass >= 1
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if np.maximum(psi + mid, 0.0).sum() >= 1.0:
            hi = mid
        else:
            lo = mid
    q = np.maximum(psi + 0.5 * (lo + hi), 0.0)
    return q / q.sum()


def minimax_value(q, psi) -> float:
    """Objective max_j (q_j - psi_j) at a given point."""
    return float((np.asarray(q, dtype=float) - np.asarray(psi, dtype=float)).max())


def grid_minimax(psi, resolution: int = 1000) -> tuple[np.ndarray, float]:
    """Exact minimum of max_j(q_j - psi_j) over {q = k/resolution, sum k = resolution},
    hence within O(1/resolution) of the continuous optimum.

    Coordinate j at count m sits at level m/resolution - psi_j, nondecreasing
    in m. A threshold v is achievable iff every count-0 level is <= v and at
    least ``resolution`` levels above count 0 are <= v, so the least such v
    is the larger of the top count-0 level and the resolution-th smallest
    level above count 0. Each coordinate then takes, in order, as many counts
    as lie at or below v.
    """
    psi = _psi_vector(psi)
    d = psi.size
    if d * (resolution + 1) > LATTICE_LIMIT:
        raise CapacityError("lattice too large")
    levels = np.arange(resolution + 1)[None, :] / resolution - psi[:, None]  # (d, res+1)
    above = np.partition(levels[:, 1:].ravel(), resolution - 1)[resolution - 1]
    v = max(levels[:, 0].max(), above)

    k = np.zeros(d, dtype=np.int64)
    remaining = resolution
    for j in range(d):
        cap = min(int(np.searchsorted(levels[j], v, side="right")) - 1, resolution)
        k[j] = min(cap, remaining)
        remaining -= k[j]
    if remaining:
        raise RuntimeError("lattice construction failed to place all mass")
    q = k / resolution
    return q, float((q - psi).max())


def enumerate_grid_minimax(psi, resolution: int) -> tuple[np.ndarray, float]:
    """Reference full enumeration of the lattice, for checking the fast search."""
    psi = np.asarray(psi, dtype=float)
    d = psi.size
    if (resolution + 1) ** max(d - 1, 1) > 10**6:
        raise CapacityError("full lattice enumeration too large")
    best_q, best_v = None, np.inf
    for head in itertools.product(range(resolution + 1), repeat=d - 1):
        if sum(head) <= resolution:
            q = np.array([*head, resolution - sum(head)]) / resolution
            v = float((q - psi).max())
            if v < best_v:
                best_q, best_v = q, v
    return best_q, best_v


def mlc_bruteforce(node_costs, edge_weights, label_metric) -> float:
    """Exact minimum of a metric-labeling objective by enumerating labelings.

    g(z) = sum_v node_costs[v, z_v] + sum_{u<v} W_uv * label_metric[z_u, z_v]
    over z in [d]^n; ``edge_weights`` is the symmetric (n, n) matrix W.
    """
    node = np.asarray(node_costs, dtype=float)
    if node.ndim != 2:
        raise ValueError("node costs must be (n, d)")
    n, d = node.shape
    d2 = np.asarray(label_metric, dtype=float)
    if d2.shape != (d, d):
        raise ValueError("label metric must be (d, d)")
    if (d2 < 0).any() or not np.array_equal(d2, d2.T) or np.diagonal(d2).any():
        raise ValueError("label metric must be symmetric, nonnegative, zero on the diagonal")
    W = np.asarray(edge_weights, dtype=float)
    if W.shape != (n, n):
        raise ValueError("edge weight matrix must be (n, n)")
    if (W < 0).any():
        raise ValueError("edge weights must be nonnegative")
    if not np.array_equal(W, W.T):
        raise ValueError("edge weight matrix must be symmetric")
    total = d**n
    if total > MLC_LIMIT:
        raise CapacityError(f"{total} labelings exceed the brute-force limit {MLC_LIMIT}")

    edges = np.nonzero(np.triu(W, k=1))
    best = np.inf
    radix = d ** np.arange(n, dtype=np.int64)
    for lo in range(0, total, 1 << 16):
        codes = np.arange(lo, min(lo + (1 << 16), total), dtype=np.int64)
        Z = (codes[:, None] // radix) % d
        vals = node[np.arange(n), Z].sum(axis=1)
        for u, v in zip(*edges):
            vals += W[u, v] * d2[Z[:, u], Z[:, v]]
        best = min(best, float(vals.min()))
    return best


def expweights_recursive_gap(rel, costs, contexts, universe: int) -> float:
    """Worst-case per-round slack of the full-information potential of an
    ``ExpWeightsRelaxation``.

    Returns max over contexts and vertex costs of
    q^T c + value(c_1..c_t) - value(c_1..c_{t-1}); admissibility requires
    this to be <= 0 (up to arithmetic noise). Vertices suffice because the
    expression is convex in c_t.
    """
    costs = np.asarray(costs, dtype=float).reshape(len(costs), rel.policy_class.d)
    before = rel.value(costs, contexts)
    losses = sequence_values(rel.policy_class, contexts, costs.T)
    worst = -np.inf
    for x in range(universe):
        q = rel.strategy(losses, x)
        ctx_now = np.append(np.asarray(contexts, dtype=np.int64), x)
        for c in itertools.product((0.0, 1.0), repeat=rel.policy_class.d):
            after = rel.value(np.vstack([costs, c]), ctx_now)
            worst = max(worst, float(q @ c) + after - before)
    return worst


def expweights_initial_margin(rel, costs, contexts) -> float:
    """value(c_1..c_n) + min_f L_n(f); admissibility requires >= 0."""
    L = sequence_values(rel.policy_class, contexts, np.asarray(costs, dtype=float).T)
    return rel.value(costs, contexts) + float(L.min())

