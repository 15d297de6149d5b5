"""Value-of-ERM oracles and their relaxations.

An ERM oracle maps (contexts, cost matrix) to the minimum over the policy
class of the linear objective sum_t <M_t, Y_t>, where M_f is a policy's
one-hot matrix on the contexts. Variants here: exact finite-class
enumeration, an additive-noise approximate wrapper, Lagrangian-regularized
values with data-based constraint functions, and a box superset relaxation
in closed form; each prices a query or a stack in one body, as does the
benchmark (the unrelaxed class at its budget K). ``verify.mlc_bruteforce``
cross-checks the regularized objective by metric-labeling brute force.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .policies import PolicyClass, context_ids


class ErmOracle:
    """Base oracle: counts value queries, delegates the value computation.

    One query is contexts (n,) with Y (d, n) and returns a float. A stack of
    S queries is contexts (S, n) with Y (S, d, n); it returns an (S,) array
    and counts as S calls, the paper's count of ERM calls. A subclass prices
    either shape in one ``_values`` body. A stack equals S sequential calls
    bit for bit on dyadic costs and to 1e-12 otherwise: its products sum in
    another order than a single query's. Oracles are stateless across calls
    apart from the counter (and a noise stream or a penalty cache). ``folds``
    says whether a value depends on a query only through its fold Z[j, x].
    """

    folds = False

    def __init__(self):
        self._calls = 0

    @property
    def calls(self) -> int:
        return self._calls

    def __call__(self, contexts, Y):
        Y = np.asarray(Y, dtype=float)
        if Y.ndim == 3:
            if len(contexts) != Y.shape[0]:
                raise ValueError(
                    f"a stack of {Y.shape[0]} cost matrices needs as many context rows; "
                    f"got {len(contexts)}")
            self._calls += Y.shape[0]
            return self._values(contexts, Y)
        self._calls += 1
        return float(self._values(contexts, Y))

    def _values(self, contexts, Y: np.ndarray):
        """The value of one query, or the (S,) values of a stack."""
        raise NotImplementedError


class ExactErmOracle(ErmOracle):
    """Exact minimum over a finite class (delta = 0)."""

    folds = True

    def __init__(self, policy_class: PolicyClass):
        super().__init__()
        if policy_class.size == 0:
            raise ValueError("ERM over an empty policy class")
        self.policy_class = policy_class

    def _values(self, contexts, Y: np.ndarray):
        return np.minimum.reduce(self.policy_class.values(contexts, Y), axis=-1)


class ApproximateErmOracle(ErmOracle):
    """Wraps an oracle with seeded uniform noise in [-delta, +delta].

    A noise variate is drawn for every logical call, in stack order and
    including at delta = 0, so runs at different delta values share the same
    underlying noise stream.
    """

    def __init__(self, inner: ErmOracle, delta: float, seed):
        super().__init__()
        if delta < 0:
            raise ValueError("delta must be nonnegative")
        self.inner = inner
        self.folds = inner.folds
        self.delta = float(delta)
        self._rng = np.random.default_rng(seed)

    def reseed(self, seed) -> None:
        self._rng = np.random.default_rng(seed)

    def _values(self, contexts, Y: np.ndarray):
        return self.inner(contexts, Y) + self.delta * self._rng.uniform(-1.0, 1.0, Y.shape[:-2])


class PairwiseDisagreement:
    """Constraint charging w(x_s, x_r) for every ordered round pair whose
    actions differ. The double sum runs over all ordered pairs, so each
    unordered pair with symmetric weights is counted twice. ``weights`` is
    the (|X|, |X|) matrix w, or None for unit weights."""

    def __init__(self, weights="uniform"):
        self.weights = None
        if isinstance(weights, str):
            if weights != "uniform":
                raise ValueError(f"unknown weight spec {weights!r}")
        else:
            W = np.asarray(weights, dtype=float)
            if W.ndim != 2 or W.shape[0] != W.shape[1]:
                raise ValueError("weight matrix must be square")
            if (W < 0).any():
                raise ValueError("pair weights must be nonnegative")
            if not np.array_equal(W, W.T):
                raise ValueError("pair weights must be symmetric")
            self.weights = W
        self._differ = (None, None)

    def per_policy(self, policy_class: PolicyClass, contexts) -> np.ndarray:
        """Constraint value of every policy at once, shape (|F|,).

        Rounds that share a context share every policy's action, so the sum
        over round pairs folds into one over the distinct contexts u with
        counts c, weighted by W_u * outer(c, c): O(|F|*|u|^2), not O(|F|*n^2).
        The disagreement tensor, a function of the class and u only, is kept.
        """
        ids = policy_class._checked_ids(contexts)  # before bincount sizes by the largest id
        counts = np.bincount(ids, minlength=policy_class.universe_size)
        u = counts.nonzero()[0]  # sorted
        c = counts[u]
        W = c[:, None] * c
        if self.weights is not None:
            W = self.weights[np.ix_(u, u)] * W
        key = (policy_class, u.tobytes())  # a class's table is frozen: its identity keys it
        if self._differ[0] != key:
            actions = policy_class.actions_on(u)
            self._differ = (key, actions[:, :, None] != actions[:, None, :])
        return (self._differ[1] * W).sum(axis=(1, 2))


class CoveragePenalty:
    """Hinge penalty sum_l sum_j [k - (# rounds in block T_l given action j)]_+.

    ``partition`` holds 0-based round-index blocks that cover the horizon
    0..n-1 disjointly, checked once here; ``n`` is the horizon they cover.
    """

    def __init__(self, partition, k: int):
        if k < 0:
            raise ValueError("k must be nonnegative")
        self.partition = [np.asarray(sorted(block), dtype=np.int64) for block in partition]
        seen = np.sort(np.concatenate([np.empty(0, dtype=np.int64), *self.partition]))
        if not np.array_equal(seen, np.arange(seen.size)):
            raise ValueError("constraint partition must cover the round indices 0..n-1 disjointly")
        self.n = seen.size
        self.k = int(k)

    def per_policy(self, policy_class: PolicyClass, contexts) -> np.ndarray:
        """Constraint value of every policy at once, shape (|F|,); the blocks
        index rounds, so this prices the (|F|, n) actions on the sequence."""
        actions = policy_class.actions_on(contexts)
        if actions.shape[1] != self.n:
            raise ValueError(f"partition covers {self.n} rounds; got {actions.shape[1]}")
        out = np.zeros(actions.shape[0])
        for block in self.partition:
            sub = actions[:, block]
            for j in range(policy_class.d):
                counts = (sub == j).sum(axis=1)
                out += np.maximum(self.k - counts, 0)
        return out


def policy_constraint_values(constraint, policy_class: PolicyClass, contexts) -> np.ndarray:
    """Every policy's constraint value: (|F|,) for contexts (n,), and (S, |F|)
    for a stack of S context rows, each distinct row priced once. Negative
    values, which would reward a policy for its constraint, are refused."""
    ids = context_ids(contexts)
    if ids.ndim == 1:
        values = constraint.per_policy(policy_class, ids)
    else:
        keys = [row.tobytes() for row in ids]
        priced = {key: constraint.per_policy(policy_class, row)
                  for key, row in dict(zip(keys, ids)).items()}
        values = np.array([priced[key] for key in keys]).reshape(len(ids), policy_class.size)
    if values.min(initial=0) < 0:
        raise ValueError("constraint values must be nonnegative")
    return values


class EmptyBenchmarkError(ValueError):
    """No policy meets the budget K on a query's contexts: a config error."""


def benchmark(policy_class: PolicyClass, contexts, Y, constraint=None, K: float | None = None):
    """Least linear cost sum_t Y[f(x_t), t] over the unrelaxed class, filtered to
    C(f) <= K on each query's contexts when a constraint and its budget K are
    both given: a float for a query, contexts (n,) with Y (d, n), and an (S,)
    array for a stack, contexts (S, n) with Y (S, d, n)."""
    values = policy_class.values(contexts, Y)
    if constraint is not None and K is not None:
        costs = policy_constraint_values(constraint, policy_class, contexts)
        values = np.where(costs <= K, values, np.inf)
    best = values.min(axis=-1, initial=np.inf)
    if np.isinf(best).any():
        raise EmptyBenchmarkError("benchmark class is empty after constraint filtering")
    return float(best) if best.ndim == 0 else best


@dataclass(frozen=True)
class RegularizedErmQuery:
    """Linear-plus-penalty query: minimize sum_t <M_t, Y_t> + lambda_scaled * C(M)."""

    Y: np.ndarray
    lambda_scaled: float
    constraint: object


def regularized_erm_value(policy_class: PolicyClass, contexts, query: RegularizedErmQuery) -> float:
    """Exact minimum of the penalized objective over the unconstrained class."""
    oracle = RegularizedErmOracle(policy_class, query.constraint, query.lambda_scaled)
    return oracle(contexts, query.Y)


class RegularizedErmOracle(ExactErmOracle):
    """Minimum of the penalized objective sum_t <M_t, Y_t> + lambda_scaled * C(M),
    its linear part priced as ExactErmOracle's. At lambda_scaled = 0 the penalty
    is skipped entirely, so a query or a stack matches ExactErmOracle's bit for
    bit."""

    def __init__(self, policy_class: PolicyClass, constraint, lambda_scaled: float):
        super().__init__(policy_class)
        if lambda_scaled < 0:
            raise ValueError("lambda_scaled must be nonnegative")
        self.constraint = constraint
        self.lambda_scaled = float(lambda_scaled)
        self.folds = self.lambda_scaled == 0  # a penalty reads the context sequence itself
        self._memo = (None, None)

    def _values(self, contexts, Y: np.ndarray):
        vals = self.policy_class.values(contexts, Y)
        if self.lambda_scaled > 0:
            vals = vals + self._penalties(contexts)
        return np.minimum.reduce(vals, axis=-1)

    def _penalties(self, contexts) -> np.ndarray:
        """Every policy's lambda_scaled * C for a query (|F|,) or a stack (S, |F|);
        a repeat of the last contexts (play's d queries share one row) reuses them."""
        ids = context_ids(contexts)
        key = (ids.shape, ids.tobytes())  # content: play rewrites its row
        if self._memo[0] != key:
            self._memo = (key, self.lambda_scaled * policy_constraint_values(
                self.constraint, self.policy_class, ids))
        return self._memo[1]


class BoxRelaxedOracle(ErmOracle):
    """ERM value over the loosest superset: matrices with nonnegative entries
    and column sums at most one. Per column the best choice puts unit mass on
    a negative minimum entry or no mass at all, so a query or a stack is
    priced in closed form (delta = 0); the contexts are not read."""

    def _values(self, contexts, Y: np.ndarray) -> np.ndarray:
        return np.minimum(Y.min(axis=-2), 0.0).sum(axis=-1)

