"""Reduction from full-information online learning to adversarial contextual
bandits.

Any admissible full-information relaxation yields an admissible bandit
relaxation by evaluating it on gamma-scaled inverse-propensity estimates
(which lie in [0,1]^d) and adding an exploration tax of (n - t) * d * gamma.
An exponential-weights relaxation over a finite class ships as the stock
full-information instance. It reads a history only through each policy's
cumulative loss, which one round extends in O(|F|): the reduction keeps
those losses running and never re-prices the history.
"""

from __future__ import annotations

import numpy as np

from .policies import PolicyClass
from .policies import mix_with_uniform  # noqa: F401  (a patch point of perfbench/spans.py)
from .strategies import RelaxationStrategy


def _logsumexp(a: np.ndarray) -> float:
    m = a.max()
    return float(m + np.log(np.exp(a - m).sum()))


class ExpWeightsRelaxation:
    """Exponential-weights potential for a finite policy class.

    value(c_1..c_t) = (1/eta) log sum_f exp(-eta L_t(f)) + (n - t) eta / 2,
    with L_t(f) the policy's cumulative cost on the realized contexts, from
    ``PolicyClass.values``, whose checks refuse a bad history. The eta/2 slack
    per remaining round makes the potential admissible for costs in [0, 1];
    eta defaults to sqrt(2 log |F| / n).
    """

    def __init__(self, policy_class: PolicyClass, horizon: int, eta: float | None = None):
        if policy_class.size == 0:
            raise ValueError("exp-weights needs a nonempty policy class")
        self.policy_class, self._eta = policy_class, eta
        self.begin(horizon)

    def begin(self, horizon: int) -> None:
        """Set the horizon n, and with it the rate of an unset eta."""
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")
        eta = self._eta
        if eta is None:  # |F| floored at 2 so singleton classes still get a positive rate
            eta = float(np.sqrt(2.0 * np.log(max(self.policy_class.size, 2)) / max(horizon, 1)))
        if eta <= 0:
            raise ValueError("eta must be positive")
        self.horizon, self.eta = int(horizon), float(eta)

    def value(self, costs, contexts) -> float:
        t = len(costs)
        if t > self.horizon:
            raise ValueError("history longer than the horizon")
        L = self.policy_class.values(contexts, np.asarray(costs, dtype=float).T)
        return _logsumexp(-self.eta * L) / self.eta + (self.horizon - t) * self.eta / 2.0

    def strategy(self, losses: np.ndarray, x: int) -> np.ndarray:
        """q(j) proportional to the posterior mass of policies playing j at x,
        given each policy's cumulative loss L_t(f) on the history."""
        w = np.exp(-self.eta * (losses - losses.min()))
        w /= w.sum()
        return np.bincount(self.policy_class.by_context[x], weights=w,
                           minlength=self.policy_class.d)

    def initial_value(self) -> float:
        """``value`` of the empty history, bit for bit: every L_0(f) is 0, so the
        log-sum-exp is log |F|, with no (|F|,) losses to check, fill and exponentiate."""
        return float(np.log(self.policy_class.size)) / self.eta + self.horizon * self.eta / 2.0


class ReductionStrategy(RelaxationStrategy):
    """Bandit play whose q* is a full-information relaxation's strategy on
    ``_L``, each policy's loss on the gamma-scaled history. ``update`` extends
    it by gamma * c~_t on the policies that play the drawn action at x, in one
    dense O(|F|) pass, so a round's cost grows with neither t nor |X|."""

    def __init__(self, relaxation, gamma: float):
        super().__init__(relaxation.policy_class, gamma)
        self.relaxation = relaxation

    def begin_episode(self, n: int, seed_seq, pool=None, known_futures=None) -> None:
        super().begin_episode(n, seed_seq)
        self.relaxation.begin(n)  # the episode's horizon, and the rate of an unset eta
        self._L = np.zeros(self.policy_class.size)

    def _extend(self, x: int, action: int, est: float) -> None:
        inc = self.gamma * est  # gamma * c~_t
        # the one-hot's cell row (action, x) is 1.0 on the policies that play the
        # action at x, and inc * 0.0 adds exactly 0.0 to the others: _L stays
        # the history's losses summed in round order, bit for bit
        self._L += inc * self.policy_class.by_cell[action * self._universe.size + x]

    def _q_star(self, x: int) -> np.ndarray:
        return self.relaxation.strategy(self._L, x)
