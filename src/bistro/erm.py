"""Value-of-ERM oracles and their relaxations.

An ERM oracle maps (contexts, cost matrix) to the minimum over the policy
class of the linear objective sum_t <M_t, Y_t>, where M_f is a policy's
one-hot matrix on the contexts. Variants here: exact finite-class
enumeration, an additive-noise approximate wrapper, Lagrangian-regularized
values with data-based constraint functions, a box superset relaxation in
closed form, and a brute-force metric-labeling solver used as a cross-check
for the regularized objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .policies import CapacityError, PolicyClass, context_ids

MLC_LIMIT = 10**6


class ErmOracle:
    """Base oracle: counts value queries, delegates the value computation.

    Oracles are stateless across calls apart from the counter.
    """

    delta: float = 0.0

    def __init__(self):
        self._calls = 0

    @property
    def calls(self) -> int:
        return self._calls

    def __call__(self, contexts, Y) -> float:
        self._calls += 1
        return self._value(contexts, np.asarray(Y, dtype=float))

    def _value(self, contexts, Y: np.ndarray) -> float:
        raise NotImplementedError


class ExactErmOracle(ErmOracle):
    """Exact minimum over a finite class (delta = 0)."""

    def __init__(self, policy_class: PolicyClass):
        super().__init__()
        if policy_class.size == 0:
            raise ValueError("ERM over an empty policy class")
        self.policy_class = policy_class

    def _value(self, contexts, Y: np.ndarray) -> float:
        return float(self.policy_class.values(contexts, Y).min())


def exact_erm_value(policy_class: PolicyClass, contexts, Y) -> float:
    """Exact ERM value without counter bookkeeping."""
    if policy_class.size == 0:
        raise ValueError("ERM over an empty policy class")
    return float(policy_class.values(contexts, Y).min())


class ApproximateErmOracle(ErmOracle):
    """Wraps an oracle with seeded uniform noise in [-delta, +delta].

    A noise variate is drawn on every call, including at delta = 0, so runs
    at different delta values share the same underlying noise stream.
    """

    def __init__(self, inner: ErmOracle, delta: float, seed):
        super().__init__()
        if delta < 0:
            raise ValueError("delta must be nonnegative")
        self.inner = inner
        self.delta = float(delta)
        self._rng = np.random.default_rng(seed)

    def reseed(self, seed) -> None:
        self._rng = np.random.default_rng(seed)

    def _value(self, contexts, Y: np.ndarray) -> float:
        return self.inner(contexts, Y) + self.delta * self._rng.uniform(-1.0, 1.0)


def approximate_erm(oracle: ErmOracle, delta: float, seed) -> ApproximateErmOracle:
    return ApproximateErmOracle(oracle, delta, seed)


def _labels_of_matrix(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError("policy matrix must be (d, n)")
    return M.argmax(axis=0)


class PairwiseDisagreement:
    """Constraint charging w(x_s, x_r) for every ordered round pair whose
    actions differ. The double sum runs over all ordered pairs, so each
    unordered pair with symmetric weights is counted twice."""

    def __init__(self, weights="uniform"):
        self._matrix = None
        self._fn = None
        if isinstance(weights, str):
            if weights != "uniform":
                raise ValueError(f"unknown weight spec {weights!r}")
        elif callable(weights):
            self._fn = weights
        else:
            W = np.asarray(weights, dtype=float)
            if W.ndim != 2 or W.shape[0] != W.shape[1]:
                raise ValueError("weight matrix must be square")
            if (W < 0).any():
                raise ValueError("pair weights must be nonnegative")
            if not np.array_equal(W, W.T):
                raise ValueError("pair weights must be symmetric")
            self._matrix = W

    def _pair_weights(self, ids: np.ndarray) -> np.ndarray:
        n = ids.size
        if self._matrix is not None:
            return self._matrix[np.ix_(ids, ids)]
        if self._fn is not None:
            W = np.empty((n, n))
            for s in range(n):
                for r in range(n):
                    w = float(self._fn(int(ids[s]), int(ids[r])))
                    if w < 0:
                        raise ValueError("pair weights must be nonnegative")
                    W[s, r] = w
            return W
        return np.ones((n, n))

    def __call__(self, M: np.ndarray, contexts) -> float:
        labels = _labels_of_matrix(M)
        ids = context_ids(contexts)
        W = self._pair_weights(ids)
        differ = labels[:, None] != labels[None, :]
        return float((W * differ).sum())

    def per_policy(self, policy_class: PolicyClass, contexts) -> np.ndarray:
        """Constraint value of every policy at once, shape (|F|,).

        Rounds that share a context share every policy's action, so the sum
        over round pairs folds into one over the distinct contexts u with
        counts c, weighted by W_u * outer(c, c): O(|F|*|u|^2), not O(|F|*n^2).
        """
        u, c = np.unique(context_ids(contexts), return_counts=True)
        actions = policy_class.actions_on(u)
        W = self._pair_weights(u) * np.outer(c, c)
        differ = actions[:, :, None] != actions[:, None, :]
        return (differ * W).sum(axis=(1, 2))


class CoveragePenalty:
    """Hinge penalty sum_l sum_j [k - (# rounds in block T_l given action j)]_+.

    ``partition`` holds 0-based round-index blocks that must cover the
    horizon disjointly.
    """

    def __init__(self, partition, k: int):
        if k < 0:
            raise ValueError("k must be nonnegative")
        self.partition = [np.asarray(sorted(block), dtype=np.int64) for block in partition]
        self.k = int(k)

    def _check_partition(self, n: int) -> None:
        seen = np.concatenate(self.partition) if self.partition else np.empty(0, dtype=np.int64)
        if seen.size != n or np.unique(seen).size != n or (seen < 0).any() or (seen >= n).any():
            raise ValueError("partition must cover the round indices 0..n-1 disjointly")

    def __call__(self, M: np.ndarray, contexts=None) -> float:
        labels = _labels_of_matrix(M)
        d = np.asarray(M).shape[0]
        self._check_partition(labels.size)
        total = 0.0
        for block in self.partition:
            counts = np.bincount(labels[block], minlength=d)
            total += np.maximum(self.k - counts, 0).sum()
        return float(total)

    def per_policy(self, policy_class: PolicyClass, contexts) -> np.ndarray:
        """Constraint value of every policy at once, shape (|F|,); the blocks
        index rounds, so this prices the (|F|, n) actions on the sequence."""
        actions = policy_class.actions_on(contexts)
        self._check_partition(actions.shape[1])
        out = np.zeros(actions.shape[0])
        for block in self.partition:
            sub = actions[:, block]
            for j in range(policy_class.d):
                counts = (sub == j).sum(axis=1)
                out += np.maximum(self.k - counts, 0)
        return out.astype(float)


def pairwise_disagreement_cost(M: np.ndarray, contexts, weights="uniform") -> float:
    return PairwiseDisagreement(weights)(M, contexts)


def coverage_cost(M: np.ndarray, partition, k: int) -> float:
    return CoveragePenalty(partition, k)(M)


def policy_constraint_values(constraint, policy_class: PolicyClass, contexts) -> np.ndarray:
    if isinstance(constraint, (PairwiseDisagreement, CoveragePenalty)):
        return constraint.per_policy(policy_class, contexts)
    # Generic callable contract: evaluate policy by policy on its matrix.
    actions = policy_class.actions_on(contexts)
    n = actions.shape[1]
    out = np.empty(policy_class.size)
    for i in range(policy_class.size):
        M = np.zeros((policy_class.d, n))
        M[actions[i], np.arange(n)] = 1.0
        out[i] = float(constraint(M, contexts))
    return out


def filter_class(policy_class: PolicyClass, contexts, constraint, K: float) -> PolicyClass:
    """Subclass of policies whose constraint value is at most K; may be empty."""
    costs = policy_constraint_values(constraint, policy_class, contexts)
    if (costs < 0).any():
        raise ValueError("constraint values must be nonnegative")
    return policy_class.subset(np.nonzero(costs <= K)[0])


@dataclass(frozen=True)
class RegularizedErmQuery:
    """Linear-plus-penalty query: minimize sum_t <M_t, Y_t> + lambda_scaled * C(M)."""

    Y: np.ndarray
    lambda_scaled: float
    constraint: object

    def __post_init__(self):
        if self.lambda_scaled < 0:
            raise ValueError("lambda_scaled must be nonnegative")


def regularized_erm_value(policy_class: PolicyClass, contexts, query: RegularizedErmQuery) -> float:
    """Exact minimum of the penalized objective over the unconstrained class."""
    if policy_class.size == 0:
        raise ValueError("ERM over an empty policy class")
    vals = policy_class.values(contexts, query.Y)
    if query.lambda_scaled > 0:
        vals = vals + query.lambda_scaled * policy_constraint_values(
            query.constraint, policy_class, contexts
        )
    return float(vals.min())


class RegularizedErmOracle(ErmOracle):
    """Oracle form of the penalized objective, for per-round strategy use.

    With lambda_scaled = 0 the penalty branch is skipped entirely, so values
    match ExactErmOracle bit for bit.
    """

    def __init__(self, policy_class: PolicyClass, constraint, lambda_scaled: float):
        super().__init__()
        if policy_class.size == 0:
            raise ValueError("ERM over an empty policy class")
        if lambda_scaled < 0:
            raise ValueError("lambda_scaled must be nonnegative")
        self.policy_class = policy_class
        self.constraint = constraint
        self.lambda_scaled = float(lambda_scaled)

    def _value(self, contexts, Y: np.ndarray) -> float:
        vals = self.policy_class.values(contexts, Y)
        if self.lambda_scaled > 0:
            vals = vals + self.lambda_scaled * policy_constraint_values(
                self.constraint, self.policy_class, contexts
            )
        return float(vals.min())


def box_relaxed_erm_value(contexts, Y) -> float:
    """ERM value over the loosest superset: matrices with nonnegative entries
    and column sums at most one. Per column the best choice puts unit mass on
    a negative minimum entry or no mass at all."""
    Y = np.asarray(Y, dtype=float)
    return float(np.minimum(Y.min(axis=0), 0.0).sum())


class BoxRelaxedOracle(ErmOracle):
    """Counter-carrying form of the box superset value (delta = 0)."""

    def _value(self, contexts, Y: np.ndarray) -> float:
        return box_relaxed_erm_value(contexts, Y)


def _edge_list(edge_weights, n: int):
    if isinstance(edge_weights, dict):
        edges = []
        for (u, v), w in edge_weights.items():
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise ValueError("edge endpoints must be distinct node indices")
            if w < 0:
                raise ValueError("edge weights must be nonnegative")
            if w > 0:
                edges.append((min(u, v), max(u, v), float(w)))
        return edges
    W = np.asarray(edge_weights, dtype=float)
    if W.shape != (n, n):
        raise ValueError("edge weight matrix must be (n, n)")
    if (W < 0).any():
        raise ValueError("edge weights must be nonnegative")
    if not np.array_equal(W, W.T):
        raise ValueError("edge weight matrix must be symmetric")
    us, vs = np.nonzero(np.triu(W, k=1))
    return [(int(u), int(v), float(W[u, v])) for u, v in zip(us, vs)]


def mlc_bruteforce(node_costs, edge_weights, label_metric) -> float:
    """Exact minimum of a metric-labeling objective by enumerating labelings.

    g(z) = sum_v node_costs[v, z_v] + sum_{(u,v)} W_uv * label_metric[z_u, z_v]
    over z in [d]^n, with one weight per unordered node pair.
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
    total = d**n
    if total > MLC_LIMIT:
        raise CapacityError(f"{total} labelings exceed the brute-force limit {MLC_LIMIT}")
    edges = _edge_list(edge_weights, n)

    best = np.inf
    radix = d ** np.arange(n, dtype=np.int64)
    for lo in range(0, total, 1 << 16):
        codes = np.arange(lo, min(lo + (1 << 16), total), dtype=np.int64)
        Z = (codes[:, None] // radix) % d
        vals = node[np.arange(n), Z].sum(axis=1)
        for u, v, w in edges:
            vals += w * d2[Z[:, u], Z[:, v]]
        best = min(best, float(vals.min()))
    return best


def load_constraint(doc: dict):
    """Constraint from its JSON document form."""
    kind = doc.get("type")
    if kind == "pairwise":
        return PairwiseDisagreement(doc.get("weights", "uniform"))
    if kind == "coverage":
        return CoveragePenalty(doc["partition"], int(doc["k"]))
    raise ValueError(f"unknown constraint type {kind!r}")
