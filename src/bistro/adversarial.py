"""Reduction from full-information online learning to adversarial contextual
bandits.

Any admissible full-information relaxation yields an admissible bandit
relaxation by evaluating it on gamma-scaled inverse-propensity estimates
(which lie in [0,1]^d) and adding an exploration tax of (n - t) * d * gamma.
An exponential-weights relaxation over a finite class ships as the stock
full-information instance.
"""

from __future__ import annotations

import numpy as np

from .policies import PolicyClass, context_ids, ips_estimate, mix_with_uniform
from .strategies import Strategy

SCALED_COST_TOL = 1e-12


def _logsumexp(a: np.ndarray) -> float:
    m = a.max()
    return float(m + np.log(np.exp(a - m).sum()))


class ExpWeightsRelaxation:
    """Exponential-weights potential for a finite policy class.

    value(c_1..c_t) = (1/eta) log sum_f exp(-eta L_t(f)) + (n - t) eta / 2,
    with L_t(f) the policy's cumulative cost on the realized contexts. The
    eta/2 slack per remaining round makes the potential admissible for costs
    in [0, 1]; eta defaults to sqrt(2 log |F| / n).
    """

    def __init__(self, policy_class: PolicyClass, horizon: int, eta: float | None = None):
        if policy_class.size == 0:
            raise ValueError("exp-weights needs a nonempty policy class")
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")
        if eta is None:
            # |F| floored at 2 so singleton classes still get a positive rate.
            eta = float(np.sqrt(2.0 * np.log(max(policy_class.size, 2)) / max(horizon, 1)))
        if eta <= 0:
            raise ValueError("eta must be positive")
        self.policy_class = policy_class
        self.horizon = int(horizon)
        self.eta = float(eta)

    def _losses(self, costs, contexts) -> np.ndarray:
        costs = np.asarray(costs, dtype=float)
        ids = context_ids(contexts)
        if costs.shape[0] != ids.size:
            raise ValueError("history lengths disagree")
        return self.policy_class.values(ids, costs.T)

    def value(self, costs, contexts) -> float:
        t = len(costs)
        if t > self.horizon:
            raise ValueError("history longer than the horizon")
        L = self._losses(costs, contexts)
        return _logsumexp(-self.eta * L) / self.eta + (self.horizon - t) * self.eta / 2.0

    def strategy(self, costs, contexts, x: int) -> np.ndarray:
        """q(j) proportional to the posterior mass of policies playing j at x."""
        L = self._losses(costs, contexts)
        w = np.exp(-self.eta * (L - L.min()))
        w /= w.sum()
        return np.bincount(self.policy_class.table[:, x], weights=w,
                           minlength=self.policy_class.d)

    def initial_value(self) -> float:
        """``value`` of the empty history, bit for bit, without building the one-hot."""
        return float(np.log(self.policy_class.size)) / self.eta + self.horizon * self.eta / 2.0


class ReductionStrategy(Strategy):
    """Bandit play driven by a full-information relaxation on scaled estimates.

    Every vector handed to the full-information side is gamma * c~_t, which
    stays inside [0,1]^d because mixing keeps q_t(y) >= gamma.
    """

    def __init__(self, relaxation, gamma: float, horizon: int):
        d = relaxation.policy_class.d
        if not 0.0 < gamma <= 1.0 / d:
            raise ValueError(f"gamma must lie in (0, 1/d]; got {gamma}")
        self.relaxation = relaxation
        self.gamma = float(gamma)
        self.horizon = int(horizon)
        self._scaled = None
        self._contexts = None
        self._t = 0

    @property
    def policy_class(self):
        return self.relaxation.policy_class

    def begin_episode(self, n: int, seed_seq, pool=None, known_futures=None) -> None:
        if n != self.horizon:
            raise ValueError("episode length does not match the configured horizon")
        d = self.relaxation.policy_class.d
        self._scaled = np.zeros((n, d))
        self._contexts = np.zeros(n, dtype=np.int64)
        self._t = 0

    def choose(self, x: int) -> np.ndarray:
        q_star = self.relaxation.strategy(
            self._scaled[: self._t], self._contexts[: self._t], x
        )
        return mix_with_uniform(q_star, self.gamma)

    def update(self, x: int, q: np.ndarray, action: int, observed_cost: float) -> None:
        est = ips_estimate(observed_cost, action, q)
        scaled = self.gamma * est
        if scaled.min() < -SCALED_COST_TOL or scaled.max() > 1.0 + SCALED_COST_TOL:
            raise RuntimeError("scaled estimate left [0,1]^d; mixing invariant violated")
        self._scaled[self._t] = scaled
        self._contexts[self._t] = x
        self._t += 1
