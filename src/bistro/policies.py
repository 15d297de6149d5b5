"""Core domain types for contextual bandit play.

Contexts are indices into a finite universe (optionally carrying feature
vectors), policies map contexts to one of ``d`` actions, and a policy class
is stored as an action table. Every policy's linear cost on a realized
context sequence comes from ``PolicyClass.values``, which folds the cost
matrix by context and prices all policies with one matrix-vector product.

Actions are 0-based everywhere in code; file formats and display use
1-based action indices, converted only at I/O boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SIMPLEX_TOL = 1e-12

ALL_LABELINGS_LIMIT = 10**6


class CapacityError(ValueError):
    """An instance exceeds a hard enumeration limit."""


@dataclass(frozen=True)
class Context:
    """Side information: an index into a finite universe, plus an optional
    feature vector for weight-based policy families."""

    id: int
    features: tuple[float, ...] | None = None


def context_ids(contexts) -> np.ndarray:
    """Normalize a sequence of Context objects / integers to an int array."""
    if isinstance(contexts, np.ndarray) and np.issubdtype(contexts.dtype, np.integer):
        return contexts
    ids = [c.id if isinstance(c, Context) else int(c) for c in contexts]
    return np.asarray(ids, dtype=np.int64)


class Policy:
    """Deterministic rule mapping contexts to one of ``d`` actions (0-based)."""

    d: int

    def action(self, context) -> int:
        raise NotImplementedError


class TablePolicy(Policy):
    """Policy given as an explicit context-id -> action lookup table."""

    def __init__(self, actions, d: int):
        table = np.array(actions, dtype=np.int64)
        if table.ndim != 1:
            raise ValueError("action table must be one-dimensional")
        if d < 1:
            raise ValueError("d must be positive")
        if table.size and (table.min() < 0 or table.max() >= d):
            raise ValueError("action indices must lie in [0, d)")
        table.flags.writeable = False  # shared freely across threads
        self.table = table
        self.d = int(d)

    def action(self, context) -> int:
        i = context.id if isinstance(context, Context) else int(context)
        if not 0 <= i < self.table.size:
            raise ValueError(f"context id {i} outside the policy's universe")
        return int(self.table[i])


class LinearArgmaxPolicy(Policy):
    """Policy choosing argmax_j <w_j, features>; ties go to the lowest action."""

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 2 or w.shape[0] < 1:
            raise ValueError("weights must be a (d, p) matrix")
        self.weights = w
        self.d = w.shape[0]

    def action(self, context) -> int:
        if not isinstance(context, Context) or context.features is None:
            raise ValueError("argmax-linear policies require contexts with features")
        x = np.asarray(context.features, dtype=float)
        if x.shape != (self.weights.shape[1],):
            raise ValueError("feature vector length mismatch")
        return int(np.argmax(self.weights @ x))


class PolicyClass:
    """A finite ordered class of policies over a shared context universe.

    Stored as an (|F|, |X|) action table. Empty classes (|F| = 0) are
    representable -- they arise from constraint filtering -- but cannot be
    queried by ERM oracles.
    """

    def __init__(self, table, d: int):
        table = np.array(table, dtype=np.int64)
        if table.ndim != 2:
            raise ValueError("policy table must be (|F|, |X|)")
        if d < 1:
            raise ValueError("d must be positive")
        if table.size and (table.min() < 0 or table.max() >= d):
            raise ValueError("action indices must lie in [0, d)")
        table.flags.writeable = False  # shared freely across threads
        self.table = table
        self.d = int(d)
        self._onehot = None

    @property
    def size(self) -> int:
        return self.table.shape[0]

    @property
    def universe_size(self) -> int:
        return self.table.shape[1]

    def __len__(self) -> int:
        return self.size

    def policy(self, index: int) -> TablePolicy:
        return TablePolicy(self.table[index], self.d)

    @property
    def policies(self) -> list[TablePolicy]:
        return [self.policy(i) for i in range(self.size)]

    def _checked_ids(self, contexts) -> np.ndarray:
        ids = context_ids(contexts)
        if ids.size and (ids.min() < 0 or ids.max() >= self.universe_size):
            raise ValueError("context id outside the class's universe")
        return ids

    def actions_on(self, contexts) -> np.ndarray:
        """Actions of every policy on a context sequence, shape (|F|, n)."""
        return self.table[:, self._checked_ids(contexts)]

    @property
    def onehot(self) -> np.ndarray:
        """Read-only (|F|, d*|X|) 0/1 matrix; row f marks the cells j*|X| + x
        with j = f(x). Built on first use and cached (d*|F|*|X| floats)."""
        if self._onehot is None:
            size, universe = self.table.shape
            onehot = np.zeros((size, self.d * universe))
            onehot[np.arange(size)[:, None], self.table * universe + np.arange(universe)] = 1.0
            onehot.flags.writeable = False
            self._onehot = onehot
        return self._onehot

    def values(self, contexts, Y) -> np.ndarray:
        """sum_t Y[f(x_t), t] for every policy f, shape (|F|,).

        A table policy's cost depends only on the per-context column sums
        Z[j, x] = sum_{t: x_t = x} Y[j, t], so Y is folded by context with
        one bincount and priced with one product against ``onehot``:
        O(d*n + d*|F|*|X|) per call instead of O(|F|*n).
        """
        ids = self._checked_ids(contexts)
        Y = np.asarray(Y, dtype=float)
        if Y.shape != (self.d, ids.size):
            raise ValueError(
                f"cost matrix must be (d, n) = ({self.d}, {ids.size}); got {Y.shape}")
        universe = self.universe_size
        keys = (np.arange(self.d)[:, None] * universe + ids).ravel()
        z = np.bincount(keys, weights=Y.ravel(), minlength=self.d * universe)
        if not np.isfinite(z).all():
            # 0 * inf in the product would turn every policy's value into nan
            raise ValueError("cost matrix folds to non-finite context sums")
        return self.onehot @ z

    def subset(self, indices) -> "PolicyClass":
        return PolicyClass(self.table[np.asarray(indices, dtype=np.int64)], self.d)

    @classmethod
    def from_policies(cls, policies, universe_size: int, features=None) -> "PolicyClass":
        policies = list(policies)
        if not policies:
            raise ValueError("policy list is empty")
        d = policies[0].d
        if any(p.d != d for p in policies):
            raise ValueError("all policies must share the same number of actions")
        if features is not None:
            features = np.asarray(features, dtype=float)
            if features.shape[0] != universe_size:
                raise ValueError("feature table must have one row per context")
        rows = []
        for p in policies:
            if isinstance(p, TablePolicy):
                if p.table.size != universe_size:
                    raise ValueError("table policy universe mismatch")
                rows.append(p.table)
            else:
                ctxs = [
                    Context(i, tuple(features[i]) if features is not None else None)
                    for i in range(universe_size)
                ]
                rows.append([p.action(c) for c in ctxs])
        return cls(np.asarray(rows, dtype=np.int64), d)

    @classmethod
    def all_labelings(cls, d: int, universe_size: int) -> "PolicyClass":
        count = d**universe_size
        if count > ALL_LABELINGS_LIMIT:
            raise CapacityError(
                f"all-labelings class would contain {count} policies "
                f"(limit {ALL_LABELINGS_LIMIT})"
            )
        codes = np.arange(count, dtype=np.int64)
        table = (codes[:, None] // d ** np.arange(universe_size, dtype=np.int64)) % d
        return cls(table, d)

    @classmethod
    def from_json(cls, doc: dict, features=None) -> "PolicyClass":
        """Build a class from its JSON document form.

        Action entries in documents are 1-based; conversion to the internal
        0-based indexing happens here.
        """
        family = doc.get("family")
        if family is None:
            d = int(doc["d"])
            table = np.asarray(doc["policies"], dtype=np.int64) - 1
            pc = cls(table, d)
            if "universe" in doc and pc.universe_size != int(doc["universe"]):
                raise ValueError("declared universe size does not match policy tables")
            return pc
        if family == "all_labelings":
            return cls.all_labelings(int(doc["d"]), int(doc["universe"]))
        if family == "argmax_linear":
            if features is None:
                raise ValueError("argmax_linear policy classes require universe features")
            policies = [LinearArgmaxPolicy(w) for w in doc["weights"]]
            return cls.from_policies(policies, len(features), features=features)
        raise ValueError(f"unknown policy family {family!r}")


def policy_to_matrix(policy: Policy, contexts) -> np.ndarray:
    """One-hot (d, n) matrix whose column t marks the action at context t."""
    ctxs = list(contexts)
    M = np.zeros((policy.d, len(ctxs)), dtype=float)
    for t, c in enumerate(ctxs):
        M[policy.action(c), t] = 1.0
    return M


def policy_cost(M: np.ndarray, Y: np.ndarray) -> float:
    """Total cost sum_t <M_t, Y_t> of a policy matrix against a cost matrix."""
    M = np.asarray(M, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if M.shape != Y.shape:
        raise ValueError(f"shape mismatch: {M.shape} vs {Y.shape}")
    return float((M * Y).sum())


def uniform_distribution(d: int) -> np.ndarray:
    return np.full(d, 1.0 / d)


def check_distribution(q: np.ndarray, tol: float = SIMPLEX_TOL) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.ndim != 1:
        raise ValueError("distribution must be a vector")
    if (q < 0).any():
        raise ValueError("distribution has negative entries")
    if abs(q.sum() - 1.0) > tol:
        raise ValueError(f"distribution sums to {q.sum()!r}, not 1")
    return q


def check_cost_vector(c: np.ndarray) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    if c.ndim != 1:
        raise ValueError("cost vector must be one-dimensional")
    if (c < 0).any() or (c > 1).any():
        raise ValueError("cost entries must lie in [0, 1]")
    return c


def mix_with_uniform(q_star: np.ndarray, gamma: float) -> np.ndarray:
    """Shift a simplex point away from the boundary: (1 - gamma*d)*q + gamma.

    Every coordinate of the result is at least ``gamma``; requires
    ``0 < gamma <= 1/d``.
    """
    q_star = check_distribution(q_star)
    d = q_star.size
    if not 0.0 < gamma <= 1.0 / d:
        raise ValueError(f"gamma must lie in (0, 1/d]; got {gamma} with d={d}")
    return (1.0 - gamma * d) * q_star + gamma


@dataclass(frozen=True)
class SparseCostVector:
    """A cost vector with at most one nonzero coordinate, stored sparsely.

    One such vector persists per round, so memory stays O(n) rather than
    O(n*d) over an episode.
    """

    d: int
    index: int
    value: float

    def dense(self) -> np.ndarray:
        out = np.zeros(self.d)
        out[self.index] = self.value
        return out


def ips_estimate(c_observed: float, chosen: int, q: np.ndarray) -> SparseCostVector:
    """Inverse-propensity reconstruction of a cost vector from one coordinate.

    Coordinate ``chosen`` is c_observed / q[chosen]; all others are exactly 0.
    """
    q = np.asarray(q, dtype=float)
    d = q.size
    if not 0 <= chosen < d:
        raise ValueError("chosen action out of range")
    if q[chosen] <= 0.0:
        raise ValueError("chosen action has zero probability; cannot reweight")
    return SparseCostVector(d=d, index=int(chosen), value=float(c_observed) / float(q[chosen]))
