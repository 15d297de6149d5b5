import numpy as np
import pytest

from bistro.adversarial import ExpWeightsRelaxation, ReductionStrategy
from bistro.environments import AdaptiveCosts, Environment, FixedTableCosts
from bistro.policies import PolicyClass
from bistro.rademacher import tune_gamma
from bistro.runner import resolve_strategy_params, run_episode
from bistro.strategies import EpsilonGreedyStrategy
from bistro.verify import expweights_initial_margin, expweights_recursive_gap, sequence_values
from test_strategies import scaled_history


def constants_class():
    return PolicyClass(np.array([[0, 0], [1, 1]]), 2)


def round_order_losses(pc, costs, contexts):
    """L_t(f) = sum_s costs[s, f(x_s)] for every policy, costs (t, d) on
    contexts (t,), summed in round order with one addition per round: the
    additions ``ReductionStrategy`` makes to its running losses, and the
    reference for their bits."""
    losses = np.zeros(pc.size)
    for c, x in zip(np.asarray(costs, dtype=float), contexts):
        losses += c[pc.table[:, x]]
    return losses


def strided_strategy(relaxation, losses, x):
    """Exp-weights' q* at x, bincounting column x of the (|F|, |X|) table:
    the read ``by_context`` replaced, and the reference for its bits."""
    pc = relaxation.policy_class
    w = np.exp(-relaxation.eta * (losses - losses.min()))
    w /= w.sum()
    return np.bincount(pc.table[:, x], weights=w, minlength=pc.d)


def strided_extend(learner, L, x, action, est):
    """One round's update of a learner's running losses through column x of
    the table, or column (action, x) of the one-hot for the reduction: the
    reads ``by_context`` and ``by_cell`` replaced, and the reference for their bits."""
    pc = learner.policy_class
    if isinstance(learner, ReductionStrategy):
        L += learner.gamma * est * pc.onehot[:, action * pc.universe_size + x]
    else:
        L[pc.table[:, x] == action] += est


class TestExpWeightsValue:
    def test_terminal_zero_costs(self):
        rel = ExpWeightsRelaxation(constants_class(), horizon=2, eta=1.0)
        assert rel.value(np.zeros((2, 2)), [0, 1]) == pytest.approx(np.log(2))

    def test_dominates_negated_best(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            X = int(rng.integers(1, 3))
            n = int(rng.integers(1, 5))
            pc = PolicyClass(rng.integers(0, 2, (int(rng.integers(1, 6)), X)), 2)
            rel = ExpWeightsRelaxation(pc, n)
            costs = rng.random((n, 2))
            ctxs = rng.integers(0, X, n)
            L = sequence_values(pc, ctxs, costs.T)
            assert rel.value(costs, ctxs) >= -float(L.min()) - 1e-12

    def test_folded_losses_match_sequence_losses(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            d = int(rng.integers(2, 4))
            X = int(rng.integers(1, 6))
            pc = PolicyClass(rng.integers(0, d, (int(rng.integers(1, 20)), X)), d)
            t = int(rng.integers(0, 30))
            costs = rng.random((t, d))
            ctxs = rng.integers(0, X, t)
            rel = ExpWeightsRelaxation(pc, 30)
            L = sequence_values(pc, ctxs, costs.T)  # 0 on every policy at t = 0
            lse = np.log(np.exp(-rel.eta * L).sum()) / rel.eta
            assert rel.value(costs, ctxs) == pytest.approx(lse + (30 - t) * rel.eta / 2,
                                                           rel=0, abs=1e-12)

    def test_losses_reject_bad_history(self):
        rel = ExpWeightsRelaxation(constants_class(), horizon=4)
        with pytest.raises(ValueError):
            rel.value(np.zeros((2, 2)), [0, 2])  # context outside the universe
        with pytest.raises(ValueError):
            rel.value(np.zeros((2, 3)), [0, 1])  # cost vectors of the wrong length
        with pytest.raises(ValueError):
            rel.value(np.array([[np.inf, 0.0]]), [0])
        with pytest.raises(ValueError, match="a query needs contexts"):
            rel.value(np.zeros((2, 2)), [0])
        with pytest.raises(ValueError, match="longer than the horizon"):
            rel.value(np.zeros((5, 2)), [0] * 5)

    def test_rejects_bad_arguments(self):
        for pc, horizon, eta, match in (
                (PolicyClass(np.zeros((0, 2), dtype=np.int64), 2), 4, None, "nonempty"),
                (constants_class(), -1, None, "horizon"),
                (constants_class(), 4, 0.0, "eta")):
            with pytest.raises(ValueError, match=match):
                ExpWeightsRelaxation(pc, horizon, eta=eta)

    def test_initial_value_at_default_rate(self):
        n = 8
        rel = ExpWeightsRelaxation(constants_class(), horizon=n)
        assert rel.initial_value() == pytest.approx(np.sqrt(2 * n * np.log(2)))

    def test_overflow_guarded(self):
        rel = ExpWeightsRelaxation(constants_class(), horizon=4, eta=2000.0)
        value = rel.value(np.array([[1.0, 0.0]]), [0])
        assert np.isfinite(value)


class TestExpWeightsStrategy:
    def test_uniform_at_start(self):
        rel = ExpWeightsRelaxation(PolicyClass.all_labelings(2, 2), horizon=4)
        q = rel.strategy(round_order_losses(rel.policy_class, np.zeros((0, 2)), []), 0)
        np.testing.assert_allclose(q, [0.5, 0.5], atol=1e-15)

    def test_two_policy_softmax(self):
        eta = 0.7
        rel = ExpWeightsRelaxation(constants_class(), horizon=3, eta=eta)
        costs = np.array([[0.0, 1.0]])  # first policy ahead by margin 1
        q = rel.strategy(round_order_losses(rel.policy_class, costs, [0]), 1)
        assert q[0] == pytest.approx(np.exp(eta) / (np.exp(eta) + 1.0))

    def test_vanishing_rate_counts_votes(self):
        pc = PolicyClass(np.array([[0], [0], [1]]), 2)
        rel = ExpWeightsRelaxation(pc, horizon=3, eta=1e-9)
        q = rel.strategy(round_order_losses(pc, np.array([[0.3, 0.9]]), [0]), 0)
        np.testing.assert_allclose(q, [2 / 3, 1 / 3], atol=1e-6)


class TestExpWeightsAdmissibility:
    def test_initial_condition_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            X = int(rng.integers(1, 3))
            n = int(rng.integers(1, 4))
            pc = PolicyClass(rng.integers(0, 2, (int(rng.integers(1, 5)), X)), 2)
            rel = ExpWeightsRelaxation(pc, n)
            margin = expweights_initial_margin(rel, rng.random((n, 2)), rng.integers(0, X, n))
            assert margin >= -1e-10

    def test_recursive_condition_on_tiny_instances(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            X = int(rng.integers(1, 3))
            n = int(rng.integers(1, 4))
            pc = PolicyClass(rng.integers(0, 2, (int(rng.integers(1, 5)), X)), 2)
            rel = ExpWeightsRelaxation(pc, n)
            t = int(rng.integers(0, n))
            gap = expweights_recursive_gap(
                rel, rng.random((t, 2)), rng.integers(0, X, t), X
            )
            assert gap <= 1e-9


class TestReduction:
    def test_round_one_uniform_over_all_labelings(self):
        pc = PolicyClass.all_labelings(2, 2)
        n = 4
        rel = ExpWeightsRelaxation(pc, n)
        strat = ReductionStrategy(rel, gamma=0.2)
        strat.begin_episode(n, np.random.SeedSequence(0))
        np.testing.assert_allclose(strat.choose(0), [0.5, 0.5], atol=1e-12)

    def test_scaled_history_stays_in_unit_box(self):
        rng = np.random.default_rng(44)
        pc = PolicyClass(rng.integers(0, 2, (6, 4)), 2)
        n = 32
        gamma = 0.15
        env = Environment(np.ones(4) / 4, FixedTableCosts(rng.uniform(0, 1, (n, 2))))
        strat = ReductionStrategy(ExpWeightsRelaxation(pc, n), gamma)
        tr = run_episode(strat, env, n, seed=3)
        Y = scaled_history(tr, gamma)
        assert Y.min() >= 0.0
        assert Y.max() <= 1.0 + 1e-12
        assert tr.distributions.min() >= gamma - 1e-12

    def test_derived_gamma_and_bound(self):
        n, d = 100, 2
        rel0 = float(np.sqrt(2 * n * np.log(8)))  # exp-weights over 8 policies
        pc = PolicyClass.all_labelings(d, 3)
        env = Environment(np.ones(3) / 3, FixedTableCosts(np.zeros((n, d))))
        params = resolve_strategy_params({"algorithm": "adversarial_reduction", "n": n, "d": d},
                                         pc, env)
        assert params["rad_estimate"] == pytest.approx(rel0)
        assert params["gamma"] == pytest.approx(min(np.sqrt(rel0 / (n * d)), 1 / d))
        assert params["bound"] == pytest.approx(2 * np.sqrt(d * n * rel0))
        # clamping at small horizons
        assert tune_gamma(100.0, 2, 2) == 0.5

    @pytest.mark.parametrize("costs", ["fixed", "adaptive"])
    def test_fold_prices_the_sequence_form_bit_for_bit(self, costs):
        # each round's q* from the running losses against the relaxation's
        # strategy on the round-order losses of the t past columns
        rng = np.random.default_rng(49)
        d, universe, n = 3, 6, 300
        pc = PolicyClass(rng.integers(0, d, (64, universe)), d)
        process = (FixedTableCosts(rng.uniform(0, 1, (n, d))) if costs == "fixed"
                   else AdaptiveCosts(d))
        strat = ReductionStrategy(ExpWeightsRelaxation(pc, n), 0.1)
        fold_q_star, played = strat._q_star, []

        def q_star(x):
            played.append(fold_q_star(x))
            return played[-1]

        strat._q_star = q_star
        tr = run_episode(strat, Environment(np.ones(universe) / universe, process), n, seed=10)
        Y = scaled_history(tr, 0.1)
        strategy = strat.relaxation.strategy
        same = [np.array_equal(q, strategy(round_order_losses(pc, Y[:, :t].T, tr.contexts[:t]), x))
                for t, (q, x) in enumerate(zip(played, tr.contexts))]
        assert len(same) == n and all(same)

    @pytest.mark.parametrize("costs", ["fixed", "adaptive"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_running_losses_are_the_summed_history(self, d, costs):
        # after every round of two episodes on one strategy, _L is the
        # round-order losses of the scaled history bit for bit, and the
        # class's values on the history's one-bincount fold to 1e-12; the
        # reduction keeps no fold of its own
        rng = np.random.default_rng(55 + d)
        universe, n, gamma = 5, 150, 0.1
        pc = PolicyClass(rng.integers(0, d, (40, universe)), d)
        process = (FixedTableCosts(rng.uniform(0, 1, (n, d))) if costs == "fixed"
                   else AdaptiveCosts(d))
        strat = ReductionStrategy(ExpWeightsRelaxation(pc, n), gamma)
        update, states = strat.update, []

        def spy(x, q, action, observed_cost):
            update(x, q, action, observed_cost)
            states.append(strat._L.copy())

        strat.update = spy
        env = Environment(np.ones(universe) / universe, process)
        for seed in (12, 13):
            states.clear()
            tr = run_episode(strat, env, n, seed=seed)
            Y = scaled_history(tr, gamma)
            assert len(states) == n
            for t, L in enumerate(states, 1):
                assert np.array_equal(L, round_order_losses(pc, Y[:, :t].T, tr.contexts[:t]))
                np.testing.assert_allclose(L, pc.values(tr.contexts[:t], Y[:, :t]),
                                           rtol=1e-12, atol=1e-12)

    def test_determinism(self):
        rng = np.random.default_rng(45)
        pc = PolicyClass(rng.integers(0, 2, (4, 3)), 2)
        n = 16
        env = Environment(np.ones(3) / 3, FixedTableCosts(rng.uniform(0, 1, (n, 2))))
        runs = [
            run_episode(ReductionStrategy(ExpWeightsRelaxation(pc, n), 0.2), env, n, seed=8)
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].distributions, runs[1].distributions)
        assert np.array_equal(runs[0].actions, runs[1].actions)


class TestContextMajorRows:
    """The reduction and epsilon-greedy read rows of ``by_context`` and
    ``by_cell``; every loss and q* is the strided-column reference's, byte for byte."""

    @staticmethod
    def checked_episode(learner, env, n, seed) -> list[bool]:
        """Play an episode, comparing the running losses after every update
        with the strided reference's and, for the reduction, every q* with
        the strided strategy's on the reference losses."""
        begin, extend, q_star = learner.begin_episode, learner._extend, learner._q_star
        reference, same = [], []

        def begin_spy(*args, **kwargs):
            begin(*args, **kwargs)
            reference[:] = [np.zeros(learner.policy_class.size)]

        def extend_spy(x, action, est):
            extend(x, action, est)
            strided_extend(learner, reference[0], x, action, est)
            same.append(learner._L.tobytes() == reference[0].tobytes())

        def q_star_spy(x):
            q = q_star(x)
            if isinstance(learner, ReductionStrategy):
                expected = strided_strategy(learner.relaxation, reference[0], x)
                same.append(q.tobytes() == expected.tobytes())
            return q

        learner.begin_episode, learner._extend, learner._q_star = begin_spy, extend_spy, q_star_spy
        run_episode(learner, env, n, seed)
        return same

    @pytest.mark.parametrize("costs", ["fixed", "adaptive"])
    @pytest.mark.parametrize("learner", ["reduction", "egreedy"])
    def test_running_losses_and_q_star_match_the_strided_reference(self, learner, costs):
        rng = np.random.default_rng(63)
        n = 512
        if costs == "adaptive":  # the reduction workload's class
            pc, process = PolicyClass.all_labelings(2, 10), AdaptiveCosts(2)
        else:
            pc = PolicyClass(rng.integers(0, 3, (300, 7)), 3)
            process = FixedTableCosts(rng.uniform(0, 1, (n, 3)))
        env = Environment(np.full(pc.universe_size, 1 / pc.universe_size), process)
        strat = (ReductionStrategy(ExpWeightsRelaxation(pc, n), 0.1) if learner == "reduction"
                 else EpsilonGreedyStrategy(pc, 0.1))
        same = self.checked_episode(strat, env, n, seed=21)
        assert len(same) == (2 * n if learner == "reduction" else n) and all(same)

    def test_strategy_on_arbitrary_losses_matches_the_strided_reference(self):
        # as admissibility calls it: any finite losses, ties and spreads included
        rng = np.random.default_rng(64)
        for pc in (PolicyClass.all_labelings(2, 10), PolicyClass.all_labelings(3, 4),
                   PolicyClass(rng.integers(0, 4, (50, 6)), 4), constants_class()):
            rel = ExpWeightsRelaxation(pc, 64)
            for losses in (rng.uniform(-5, 50, pc.size), rng.integers(0, 3, pc.size) * 1.0,
                           rng.uniform(0, 1e4, pc.size), np.zeros(pc.size)):
                for x in range(pc.universe_size):
                    q = rel.strategy(losses, x)
                    assert q.tobytes() == strided_strategy(rel, losses, x).tobytes()
