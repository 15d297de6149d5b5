"""Simulation environments: i.i.d. contexts crossed with fixed, stochastic,
or adaptive cost processes.

A cost process commits the full cost vector for round t from (t, x_t)
before the learner's action is drawn, and is then shown that round's q_t and
action. So an adaptive process knows only x_1..x_t, q_1..q_{t-1} and
y_1..y_{t-1} when it commits, the strongest visibility consistent with costs
being chosen independently of the current action.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .config import CONFIG
from .policies import float_entries, in_unit_interval


def context_probs(probs) -> np.ndarray:
    """probs as a float vector: nonempty, nonnegative (not NaN), summing to 1."""
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or probs.size == 0:
        raise ValueError("context distribution must be a nonempty vector")
    if not (probs >= 0).all() or abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError("context probabilities must be nonnegative and sum to 1")
    return probs


def categorical_sampler(probs):
    """Sampler drawing context ids i.i.d. from a categorical distribution.

    Draws exactly what ``rng.choice(probs.size, size=n, p=probs)`` draws --
    n uniforms looked up in the normalised CDF -- with the CDF computed once
    here instead of on every call. ``probs`` is checked by ``context_probs``.
    """
    cdf = context_probs(probs).cumsum()
    cdf /= cdf[-1]

    def sample(rng: np.random.Generator, n: int) -> np.ndarray:
        return cdf.searchsorted(rng.random(n), side="right")

    return sample


class CostProcess:
    d: int

    def begin(self, rng: np.random.Generator, n: int) -> None:
        pass

    def commit(self, t: int, x: int) -> np.ndarray:
        raise NotImplementedError

    def observe(self, q, action: int) -> None:
        """Round t's q_t, as the learner gave it (any vector of d floats), and
        drawn action, after the draw; the next commit is t + 1's."""


class FixedTableCosts(CostProcess):
    """Cost vectors fixed ahead of time, one row per round."""

    def __init__(self, values):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise ValueError("cost table must be (n, d)")
        if not in_unit_interval(values):
            raise ValueError("cost entries must lie in [0, 1]")
        self.values = values
        self.d = values.shape[1]

    def begin(self, rng, n):
        if n > self.values.shape[0]:
            raise ValueError("cost table shorter than the horizon")

    def commit(self, t, x):
        return self.values[t]


class IidBernoulliCosts(CostProcess):
    """Independent Bernoulli costs with per-context per-action means."""

    def __init__(self, means):
        means = np.asarray(means, dtype=float)
        if means.ndim != 2:
            raise ValueError("means must be (|X|, d)")
        if not in_unit_interval(means):
            raise ValueError("means must lie in [0, 1]")
        self.means = means
        self.d = means.shape[1]

    def begin(self, rng, n):
        self._rng = rng

    def commit(self, t, x):
        return (self._rng.random(self.d) < self.means[x]).astype(float)


class AdaptiveCosts(CostProcess):
    """``argmax_punish``, committed pre-action: charge the action of largest
    total past q. The totals are running sums that ``begin`` resets and
    ``observe`` extends in round order."""

    def __init__(self, d: int):
        self.d = int(d)

    def begin(self, rng, n):
        self._totals = [0.0] * self.d

    def commit(self, t, x):
        totals, c = self._totals, np.zeros(self.d)
        c[max(range(self.d), key=totals.__getitem__)] = 1.0  # the first maximum, as np.argmax
        return c

    def observe(self, q, action):
        # Python floats: d entries are too few for NumPy's per-call cost
        self._totals = [s + v for s, v in zip(self._totals, float_entries(q))]


class Environment:
    """Context distribution plus a cost process.

    The unlabeled pool drawn at episode start (pool_factor * n fresh draws)
    stands in for sampling access to the context distribution.
    """

    def __init__(self, probs, cost_process: CostProcess,
                 pool_factor: int = CONFIG["pool_factor"].default):
        self.probs = context_probs(probs)
        if pool_factor < 1:
            raise ValueError("pool_factor must be at least 1")
        self.cost_process = cost_process
        self.pool_factor = int(pool_factor)

    @cached_property
    def sample_contexts(self):
        """``sample_contexts(rng, size)``: the same draws as
        ``rng.choice(self.probs.size, size=size, p=self.probs)``."""
        # built on first use: set-up that never samples pays nothing for it
        return categorical_sampler(self.probs)
