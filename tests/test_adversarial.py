import numpy as np
import pytest

from bistro.admissibility import expweights_initial_margin, expweights_recursive_gap
from bistro.adversarial import (
    ExpWeightsRelaxation,
    ReductionStrategy,
    expweights_strategy,
    expweights_value,
    reduction_bound,
    reduction_gamma,
)
from bistro.environments import Environment, FixedTableCosts
from bistro.policies import PolicyClass
from bistro.runner import run_episode
from bistro.verify import sequence_values


def constants_class():
    return PolicyClass(np.array([[0, 0], [1, 1]]), 2)


class TestExpWeightsValue:
    def test_terminal_zero_costs(self):
        rel = ExpWeightsRelaxation(constants_class(), horizon=2, eta=1.0)
        assert expweights_value(rel, np.zeros((2, 2)), [0, 1]) == pytest.approx(np.log(2))

    def test_dominates_negated_best(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            X = int(rng.integers(1, 3))
            n = int(rng.integers(1, 5))
            pc = PolicyClass(rng.integers(0, 2, (int(rng.integers(1, 6)), X)), 2)
            rel = ExpWeightsRelaxation(pc, n)
            costs = rng.random((n, 2))
            ctxs = rng.integers(0, X, n)
            L = rel._losses(costs, ctxs)
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
            np.testing.assert_allclose(rel._losses(costs, ctxs),
                                       sequence_values(pc, ctxs, costs.T), rtol=0, atol=1e-12)

    def test_losses_reject_bad_history(self):
        rel = ExpWeightsRelaxation(constants_class(), horizon=4)
        with pytest.raises(ValueError):
            rel.value(np.zeros((2, 2)), [0, 2])  # context outside the universe
        with pytest.raises(ValueError):
            rel.value(np.zeros((2, 3)), [0, 1])  # cost vectors of the wrong length
        with pytest.raises(ValueError):
            rel.value(np.array([[np.inf, 0.0]]), [0])

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
        q = expweights_strategy(rel, np.zeros((0, 2)), [], 0)
        np.testing.assert_allclose(q, [0.5, 0.5], atol=1e-15)

    def test_two_policy_softmax(self):
        eta = 0.7
        rel = ExpWeightsRelaxation(constants_class(), horizon=3, eta=eta)
        costs = np.array([[0.0, 1.0]])  # first policy ahead by margin 1
        q = rel.strategy(costs, [0], 1)
        assert q[0] == pytest.approx(np.exp(eta) / (np.exp(eta) + 1.0))

    def test_vanishing_rate_counts_votes(self):
        pc = PolicyClass(np.array([[0], [0], [1]]), 2)
        rel = ExpWeightsRelaxation(pc, horizon=3, eta=1e-9)
        q = rel.strategy(np.array([[0.3, 0.9]]), [0], 0)
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
        strat = ReductionStrategy(rel, gamma=0.2, horizon=n)
        strat.begin_episode(n, np.random.SeedSequence(0))
        np.testing.assert_allclose(strat.choose(0), [0.5, 0.5], atol=1e-12)

    def test_scaled_history_stays_in_unit_box(self):
        rng = np.random.default_rng(44)
        pc = PolicyClass(rng.integers(0, 2, (6, 4)), 2)
        n = 32
        gamma = 0.15
        env = Environment(np.ones(4) / 4, FixedTableCosts(rng.uniform(0, 1, (n, 2))))
        strat = ReductionStrategy(ExpWeightsRelaxation(pc, n), gamma, n)
        tr = run_episode(strat, env, n, seed=3)
        assert strat._scaled.min() >= 0.0
        assert strat._scaled.max() <= 1.0 + 1e-12
        assert tr.distributions.min() >= gamma - 1e-12

    def test_derived_gamma_and_bound(self):
        n, d = 100, 2
        rel0 = float(np.sqrt(2 * n * np.log(8)))
        gamma = reduction_gamma(rel0, n, d)
        assert gamma == pytest.approx(min(np.sqrt(rel0 / (n * d)), 1 / d))
        assert reduction_bound(rel0, n, d) == pytest.approx(2 * np.sqrt(d * n * rel0))
        # clamping at small horizons
        assert reduction_gamma(100.0, 2, 2) == 0.5

    def test_determinism(self):
        rng = np.random.default_rng(45)
        pc = PolicyClass(rng.integers(0, 2, (4, 3)), 2)
        n = 16
        env = Environment(np.ones(3) / 3, FixedTableCosts(rng.uniform(0, 1, (n, 2))))
        runs = [
            run_episode(ReductionStrategy(ExpWeightsRelaxation(pc, n), 0.2, n), env, n, seed=8)
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].distributions, runs[1].distributions)
        assert np.array_equal(runs[0].actions, runs[1].actions)
