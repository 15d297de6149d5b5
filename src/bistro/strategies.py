"""Per-round bandit strategies.

One learner, ``RelaxationStrategy``, estimates the gamma-scaled history and
plays a q* mixed toward uniform; ``begin_episode`` sets its horizon n and
resets its state, so one learner plays any number of episodes. Subclasses
differ in the rule for q* and the form they keep the history in. BISTRO
keeps its per-context fold and water-fills ERM oracle values on a hybrid cost
matrix (the history, a basis-vector column for the candidate action, and
doubled random signs for hypothetical futures, drawn as counts); its variants
plug in a penalized or relaxed oracle. The adversarial reduction prices q*
with a full-information relaxation from each policy's running loss, all it
keeps, and epsilon-greedy plays its leader at gamma = epsilon/d.
"""

from __future__ import annotations

import numpy as np

from .config import CONFIG, MODES
from .erm import ErmOracle
from .policies import ips_estimate, mix_with_uniform
from .waterfill import waterfill

# Magnitude of the playout sign columns: the relaxation the regret bound and
# the admissibility checks price.
SIGN_SCALE = 2.0


class Strategy:
    """Interface of every per-round strategy; bandit feedback reaches it only by ``update``."""

    transductive = False
    oracle_calls = 0

    def begin_episode(self, n: int, seed_seq, pool=None, known_futures=None) -> None:
        """Start an episode of n rounds: the one place a learner learns its horizon."""

    def choose(self, x: int) -> list[float]:
        """q at context x: a list of d Python floats, or any vector ``draw_action`` reads."""
        raise NotImplementedError

    def update(self, x: int, q, action: int, observed_cost: float) -> None:
        pass


class RelaxationStrategy(Strategy):
    """Bandit play on a relaxation of gamma-scaled estimates: q = mix(q*, gamma).

    ``update`` hands each round's estimate c~_t[action], at most 1/gamma
    because mixing keeps q_t(y) >= gamma, to ``_extend(x, action, est)``
    while ``_t`` is still round t, and ``_q_star(x)`` prices the next round;
    both are a subclass's, which stores the estimate in the form its rule reads.
    """

    def __init__(self, policy_class, gamma: float):
        if not 0.0 < gamma <= 1.0 / policy_class.d:
            raise ValueError(f"gamma must lie in (0, 1/d]; got {gamma}")
        self.policy_class = policy_class
        self.gamma = float(gamma)
        self._universe = policy_class.universe

    def begin_episode(self, n: int, seed_seq, pool=None, known_futures=None) -> None:
        if n < 0:
            raise ValueError("horizon must be nonnegative")
        self.horizon, self._t = int(n), 0

    def choose(self, x: int) -> list[float]:
        return mix_with_uniform(self._q_star(x), self.gamma)

    def update(self, x: int, q, action: int, observed_cost: float) -> None:
        est = ips_estimate(observed_cost, action, q)
        if est > 1.0 / self.gamma + 1e-9:
            raise RuntimeError("estimate exceeds 1/gamma; mixing invariant violated")
        if self._t >= self.horizon:
            raise ValueError("episode already complete")
        self._extend(x, action, est)  # c~_t's other entries are 0
        self._t += 1


class BistroStrategy(RelaxationStrategy):
    """Random-playout relaxation strategy; d oracle calls per playout per round.

    A playout's future, k = n - t - 1 columns of a context and SIGN_SCALE *
    eps (eps uniform on {-1, +1}^d), is drawn as its (|X|, 2^d) counts of
    (context, pattern) cells: multinomial over the pool's empirical p(x) *
    2^-d, or per context over the known future's counts (transductive). The
    history is kept as its (d, |X|) per-context fold
    Z[j, x] = sum_{t: x_t = x} gamma * c~_t[j], extended in round order, as
    ``PolicyClass.values`` bincounts columns. An oracle that ``folds``
    prices the (d, |X|) sums Z_h + Z_f + e_{j,x}, so no round's cost or
    state grows with n. With any other oracle it also keeps the history's
    (n,) contexts and (d, n) columns, and rebuilds the future from the
    counts on the rounds after t, shuffled (iid_pool) or on the known ones.
    """

    def __init__(self, policy_class, oracle: ErmOracle, gamma: float,
                 playouts: int = CONFIG["playouts"].default,
                 mode: str = CONFIG["horizon_mode"].default):
        super().__init__(policy_class, gamma)
        if playouts < 1:
            raise ValueError("at least one playout per round")
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        self.oracle = oracle
        self.folded = oracle.folds
        self.playouts = playouts
        self.transductive = mode == "transductive"
        d = policy_class.d
        bits = np.arange(2**d) >> np.arange(d)[:, None] & 1
        # (d, 2^d) integers, column s pattern s: SIGN_SCALE is a whole number, so
        # the counts' sign sums are exact integers, and so are their floats
        self._signs = int(SIGN_SCALE) * (2 * bits - 1)
        # the column path's tables: cell x * 2^d + s's id, context x and sign column s
        self._cells = np.arange(policy_class.universe_size << d)
        self._cell_contexts, self._cell_signs = self._cells >> d, self._signs[:, self._cells % 2**d]

    @property
    def oracle_calls(self) -> int:
        return self.oracle.calls

    def begin_episode(self, n: int, seed_seq, pool=None, known_futures=None) -> None:
        super().begin_episode(n, seed_seq)
        count_ss, order_ss, noise_ss = seed_seq.spawn(3)
        self._count_rng = np.random.default_rng(count_ss)
        self._order_rng = np.random.default_rng(order_ss)
        if hasattr(self.oracle, "reseed"):
            self.oracle.reseed(noise_ss)
        cells = self._signs.shape[1]
        self._Z = np.zeros((self.policy_class.d, self._universe.size))
        if not self.folded:
            self._ctx, self._Y = np.zeros(n, dtype=np.int64), np.zeros((self.policy_class.d, n))
        if self.transductive:
            if known_futures is None or len(known_futures) != n:
                raise ValueError("transductive mode requires the full context sequence")
            self._known = self.policy_class._checked_ids(known_futures)
            self._future = np.bincount(self._known[1:], minlength=self._universe.size)
            self._probs = np.full(cells, 1.0 / cells)
        else:
            if pool is None or len(pool) == 0:
                raise ValueError("iid_pool mode requires a nonempty unlabeled pool")
            counts = np.bincount(self.policy_class._checked_ids(pool),
                                 minlength=self._universe.size)
            self._probs = np.repeat(counts / (counts.sum() * cells), cells)

    def _extend(self, x: int, action: int, est: float) -> None:
        inc = self.gamma * est  # c~_t's other entries scale to gamma * 0 = 0
        self._Z[action, x] += inc  # the round's gamma * c~_t, in cell (action, x)
        if not self.folded:  # _q_star zeroed the round's column; its played entry is the fold's
            self._Y[action, self._t] = inc
        if self.transductive and self._t + 1 < self.horizon:  # the next round leaves the future
            self._future[self._known[self._t + 1]] -= 1

    def _q_star(self, x: int) -> list[float]:
        d, t = self.policy_class.d, self._t
        k = self.horizon - t - 1
        psi = [0.0] * d
        for p in range(self.playouts):
            counts = self._count_rng.multinomial(self._future if self.transductive else k,
                                                 self._probs).reshape(-1, 2**d)
            if self.folded:  # e_j goes into the fold's cell (j, x)
                ctx, Y, col = self._universe, self._Z + self._signs @ counts.T, x
            else:  # e_j goes into column t, the future onto t + 1..n - 1
                ctx, Y, col = self._ctx, self._Y, t
                ctx[t], Y[:, t] = x, 0.0
                cells = np.repeat(self._cells, counts.ravel())  # x * 2^d + s, sorted
                if self.transductive:  # the signs' order on a context's rounds changes no value
                    slots = t + 1 + np.argsort(self._known[t + 1 :], kind="stable")
                else:
                    self._order_rng.shuffle(cells)
                    slots = slice(t + 1, None)
                ctx[slots], Y[:, slots] = self._cell_contexts[cells], self._cell_signs[:, cells]
            column = Y[:, col]
            for j, y in enumerate(column.tolist()):
                column[j] = y + 1.0
                psi[j] = self.oracle(ctx, Y)
                column[j] = y
            w = waterfill(psi)
            q = w if p == 0 else [a + b for a, b in zip(q, w)]  # 0.0 + w is w: w >= +0.0
        return q if self.playouts == 1 else [v / self.playouts for v in q]


class UniformStrategy(Strategy):
    """Plays uniformly at random; the no-learning anchor."""

    def __init__(self, d: int):
        self.d = d

    def choose(self, x: int) -> list[float]:
        return [1.0 / self.d] * self.d


class EpsilonGreedyStrategy(RelaxationStrategy):
    """Follows the policy with smallest reweighted cumulative cost ``_L``, with
    an epsilon floor of uniform exploration: the learner at gamma = epsilon/d,
    whose q* is the leader's action at x."""

    def __init__(self, policy_class, epsilon: float = CONFIG["epsilon"].default):
        if not 0.0 < epsilon <= 1.0:
            raise ValueError("epsilon must lie in (0, 1]")
        super().__init__(policy_class, epsilon / policy_class.d)

    def begin_episode(self, n: int, seed_seq, pool=None, known_futures=None) -> None:
        super().begin_episode(n, seed_seq)
        self._L = np.zeros(self.policy_class.size)

    def _extend(self, x: int, action: int, est: float) -> None:
        self._L[self.policy_class.by_context[x] == action] += est

    def _q_star(self, x: int) -> list[float]:
        q = [0.0] * self.policy_class.d
        q[self.policy_class.table[int(np.argmin(self._L)), x]] = 1.0  # the first leader's action
        return q
