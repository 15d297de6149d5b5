"""Core domain types for contextual bandit play.

Contexts are indices into a finite universe, policies map contexts to one
of ``d`` actions, and a policy class is stored as an (|F|, |X|) action
table: a policy is a row of it. Every policy's linear cost on a realized
context sequence comes from ``PolicyClass.values``, which folds the cost
matrix by context and prices all policies with one matrix product; only
the learners' running losses are summed round by round, as they play.

Actions are 0-based everywhere in code; policy documents and the episode
CSV use 1-based action indices, converted in ``runner.py``.
"""

from __future__ import annotations

from functools import cached_property
from math import isfinite

import numpy as np

SIMPLEX_TOL = 1e-12

ALL_LABELINGS_LIMIT = 10**6


class CapacityError(ValueError):
    """An instance exceeds a hard enumeration limit."""


def context_ids(contexts) -> np.ndarray:
    """Normalize integer context ids to a native int64 array; floats and bools are refused."""
    if isinstance(contexts, np.ndarray) and contexts.dtype == np.int64:
        return contexts
    ids = np.asarray(contexts)
    # a (nested) list is read by its entries: NumPy reads a bool among ints as
    # an int, and an int beyond int64 as a float or an object
    entries = []
    if isinstance(contexts, list):
        entries = np.asarray(contexts, dtype=object).ravel().tolist()
    if ids.size and ids.dtype.kind not in "iu":
        if entries and all(type(x) is int for x in entries):
            raise ValueError("context id outside the class's universe")  # an int beyond int64
        raise ValueError(f"context ids must be integers; got dtype {ids.dtype}")
    if any(isinstance(x, (bool, np.bool_)) for x in entries):
        raise ValueError("context ids must be integers; got a bool among them")
    return ids.astype(np.int64, copy=False)  # uint64 ids from 2^63 wrap to negatives


class PolicyClass:
    """A finite ordered class of policies over a shared context universe.

    Stored as an (|F|, |X|) action table. Empty classes (|F| = 0) are
    representable but cannot be queried by ERM oracles.
    """

    def __init__(self, table, d: int):
        self._adopt(np.array(table, dtype=np.int64), d)  # a copy: the caller's array stays as is

    def _adopt(self, table: np.ndarray, d: int) -> None:
        """Check ``table``, an int64 array no caller holds, and freeze it as the class's own."""
        if table.ndim != 2:
            raise ValueError("policy table must be (|F|, |X|)")
        if d < 1:
            raise ValueError("d must be positive")
        if table.size and (table.min() < 0 or table.max() >= d):
            raise ValueError("action indices must lie in [0, d)")
        table.flags.writeable = False  # shared freely across threads
        self.table = table
        self.d = int(d)
        self._fold_shape = (self.d, table.shape[1])  # the Y of a fold query

    @property
    def size(self) -> int:
        return self.table.shape[0]

    @property
    def universe_size(self) -> int:
        return self.table.shape[1]

    def _checked_ids(self, contexts) -> np.ndarray:
        ids = context_ids(contexts)  # viewed unsigned, a negative id reads at least 2^63
        if ids.size and ids.view(np.uint64).max() >= self.universe_size:
            raise ValueError("context id outside the class's universe")
        return ids

    def actions_on(self, contexts) -> np.ndarray:
        """Actions of every policy on a context sequence, shape (|F|, n)."""
        return self.table[:, self._checked_ids(contexts)]

    @cached_property
    def universe(self) -> np.ndarray:
        """Read-only context ids 0..|X|-1, built on first use and cached: the
        contexts of a fold query, which ``values`` recognizes by identity."""
        universe = np.arange(self.universe_size)
        universe.flags.writeable = False
        return universe

    @cached_property
    def onehot(self) -> np.ndarray:
        """Read-only (|F|, d*|X|) 0/1 matrix, 64-byte aligned; row f marks the
        cells j*|X| + x with j = f(x). Built on first use and cached (d*|F|*|X|
        floats)."""
        size, universe = self.table.shape
        # written into a buffer that starts on a 64-byte boundary, because the
        # product's time depends on where the one-hot starts; sliced in two
        # steps, since an empty raw[start:start] would keep raw's own address
        nbytes = 8 * size * self.d * universe
        raw = np.empty(nbytes + 64, dtype=np.uint8)
        start = -raw.ctypes.data % 64
        onehot = raw[start:][:nbytes].view(float).reshape(size, self.d, universe)
        # one comparison, laid out (|F|, d, |X|) and C-ordered: the products
        # that price a query sum in the order this layout gives them
        np.equal(self.table[:, None, :], np.arange(self.d)[:, None], out=onehot)
        onehot = onehot.reshape(size, self.d * universe)
        onehot.flags.writeable = False
        return onehot

    @cached_property
    def by_context(self) -> np.ndarray:
        """Read-only (|X|, |F|) copy of the table: row x holds every policy's
        action at x, contiguous for the learners that read it each round.
        Built on first use and cached (|F|*|X| ints)."""
        rows = np.ascontiguousarray(self.table.T)
        rows.flags.writeable = False
        return rows

    @cached_property
    def by_cell(self) -> np.ndarray:
        """Read-only (d*|X|, |F|) copy of the one-hot: row j*|X| + x is 1.0 on
        the policies that play j at x and 0.0 elsewhere. Built on first use and
        cached (d*|F|*|X| floats)."""
        cells = (self.by_context == np.arange(self.d)[:, None, None]).astype(float)
        cells = cells.reshape(self.d * self.universe_size, self.size)
        cells.flags.writeable = False
        return cells

    @cached_property
    def _key_offsets(self) -> np.ndarray:
        # the (d, 1) offsets j*|X| of action j's fold cells, built on first use
        return np.arange(self.d)[:, None] * self.universe_size

    def values(self, contexts, Y) -> np.ndarray:
        """sum_t Y[f(x_t), t] for every policy f: contexts (n,) with Y (d, n)
        give shape (|F|,), and a stack of S queries, contexts (S, n) with
        Y (S, d, n), gives shape (S, |F|).

        A table policy's cost depends only on the per-context column sums
        Z[j, x] = sum_{t: x_t = x} Y[j, t], so Y is folded by context with
        one bincount (a stack's query s into cells s*d*|X| onwards) and
        priced with one product against ``onehot``: O(d*n + d*|F|*|X|) per
        query instead of O(|F|*n), and the one-hot is streamed once per
        stack. One query keeps a matrix-vector product. A fold query, the
        array ``universe`` itself with Y (d, |X|), is already its fold: it is
        priced with the one product, with no id check and no bincount.
        """
        Y = np.asarray(Y, dtype=float)
        if contexts is self.universe and Y.shape == self._fold_shape:
            z = Y.ravel()  # Z itself; the bincount would add each cell once to +0.0
        else:
            ids = self._checked_ids(contexts)
            cells = self.d * self.universe_size
            if ids.ndim == 1 and Y.shape == (self.d, ids.size):
                queries = 1
                keys = self._key_offsets + ids
            elif ids.ndim == 2 and Y.shape == (len(ids), self.d, ids.shape[1]):
                queries = len(ids)
                keys = np.arange(queries)[:, None, None] * cells + self._key_offsets + ids[:, None, :]
            else:
                raise ValueError(
                    f"a query needs contexts (n,) and Y (d, n), a stack contexts (S, n) and "
                    f"Y (S, d, n), with d={self.d}; got {ids.shape} and {Y.shape}")
            z = np.bincount(keys.ravel(), weights=Y.ravel(), minlength=queries * cells)
        # 0 * inf in the product would turn every policy's value into nan. A sum
        # with an inf or NaN term is not finite, so only a sum that is not finite
        # (such a term, or an overflow) needs the entrywise test; a sum of Python
        # floats raises no floating-point error, whatever np.errstate says.
        if not isfinite(sum(z.tolist())) and not np.isfinite(z).all():
            raise ValueError("cost matrix folds to non-finite context sums")
        onehot = self.onehot
        return onehot @ z if Y.ndim == 2 else z.reshape(len(Y), onehot.shape[1]) @ onehot.T

    @classmethod
    def all_labelings(cls, d: int, universe_size: int) -> "PolicyClass":
        count = d**universe_size
        if count > ALL_LABELINGS_LIMIT:
            raise CapacityError(
                f"all-labelings class would contain {count} policies "
                f"(limit {ALL_LABELINGS_LIMIT})"
            )
        # policy c plays digit x of c in base d at context x: column x repeats
        # each action d**x times, cycling, written as one broadcast into the
        # rows viewed as (cycles, action, repeat)
        table = np.empty((count, universe_size), dtype=np.int64)
        for x in range(universe_size):
            rows = table.reshape(d ** (universe_size - 1 - x), d, d**x, universe_size)
            rows[:, :, :, x] = np.arange(d)[:, None]
        pc = cls.__new__(cls)
        pc._adopt(table, d)  # fresh, so not copied again
        return pc

    @classmethod
    def argmax_linear(cls, weights, features) -> "PolicyClass":
        """Policy f at context x plays argmax_j <w_fj, features[x]>; ties go to
        the lowest action."""
        if features is None:
            raise ValueError("argmax_linear policy classes require universe features")
        features = np.asarray(features, dtype=float)
        ws = [np.asarray(w, dtype=float) for w in weights]
        if not ws:
            raise ValueError("argmax_linear needs at least one weight matrix")
        if any(w.ndim != 2 or w.shape[0] < 1 for w in ws):
            raise ValueError("weights must be (d, p) matrices")
        d = ws[0].shape[0]
        if any(w.shape[0] != d for w in ws):
            raise ValueError("all policies must share the same number of actions")
        if features.ndim != 2 or any(w.shape[1] != features.shape[1] for w in ws):
            raise ValueError("feature vector length mismatch")
        return cls([[int(np.argmax(w @ x)) for x in features] for w in ws], d)


def float_entries(q) -> list[float] | None:
    """q's entries as Python floats (a list's by ``float``), or None if q is not a vector."""
    if type(q) is list:
        try:
            return [float(v) for v in q]
        except (TypeError, ValueError, OverflowError):
            pass  # not a list of numbers: read as its array, refusals included
    q = np.asarray(q, dtype=float)
    return q.tolist() if q.ndim == 1 else None


def check_distribution(q) -> list[float]:
    """The entries of ``q`` as floats, if q is a vector on the simplex."""
    values = float_entries(q)
    if values is None:
        raise ValueError("distribution must be a vector")
    if not all(map((0.0).__le__, values)):
        raise ValueError("distribution has negative or NaN entries")
    if abs(sum(values) - 1.0) > SIMPLEX_TOL:
        raise ValueError(f"distribution sums to {sum(values)!r}, not 1")
    return values


def in_unit_interval(v: np.ndarray) -> bool:
    """Whether every entry lies in [0, 1]; NaN entries fail."""
    return v.size == 0 or bool(0 <= v.min() and v.max() <= 1)


def check_cost_vector(c: np.ndarray) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    if c.ndim != 1:
        raise ValueError("cost vector must be one-dimensional")
    # checked on floats: d entries are too few for NumPy's per-call cost; NaN fails
    if not all(0.0 <= v <= 1.0 for v in c.tolist()):
        raise ValueError("cost entries must lie in [0, 1]")
    return c


def mix_with_uniform(q_star, gamma: float) -> list[float]:
    """Shift a simplex point away from the boundary: (1 - gamma*d)*q + gamma.

    ``q_star`` is any vector of d floats; each entry of the list returned
    is at least ``gamma``; requires ``0 < gamma <= 1/d``. Computed per entry,
    in the float operations of the NumPy expression.
    """
    values = check_distribution(q_star)
    d = len(values)
    if not 0.0 < gamma <= 1.0 / d:
        raise ValueError(f"gamma must lie in (0, 1/d]; got {gamma} with d={d}")
    scale = 1.0 - gamma * d
    return [scale * v + gamma for v in values]


def ips_estimate(c_observed: float, chosen: int, q) -> float:
    """Inverse-propensity estimate c_observed / q[chosen] of the chosen action's
    cost, q any vector of d floats; every other action's estimate is 0."""
    if not 0 <= chosen < len(q):
        raise ValueError("chosen action out of range")
    p = float(q[chosen])
    if p <= 0.0:
        raise ValueError("chosen action has zero probability; cannot reweight")
    return float(c_observed) / p
