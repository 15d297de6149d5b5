import os

import numpy as np
import pytest

from bistro.erm import PairwiseDisagreement
from bistro.policies import CapacityError, PolicyClass
from bistro.runner import (
    build_constraint,
    build_environment,
    build_policy_class,
    load_config,
    resolve_strategy_params,
)
from bistro.strategies import SIGN_SCALE
from bistro.verify import (
    bruteforce_erm,
    enumerate_grid_minimax,
    exact_rademacher,
    exact_regularized_bound,
    grid_minimax,
)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


class TestBruteforceErm:
    def test_singleton_zero(self):
        pc = PolicyClass(np.array([[0, 1]]), 2)
        assert bruteforce_erm(pc, [0, 1], np.zeros((2, 2))) == 0.0

    def test_all_labelings_closed_form(self):
        rng = np.random.default_rng(50)
        pc = PolicyClass.all_labelings(3, 4)
        Y = rng.uniform(-1, 1, (3, 4))
        assert bruteforce_erm(pc, [0, 1, 2, 3], Y) == pytest.approx(Y.min(axis=0).sum())

    def test_capacity(self):
        pc = PolicyClass.all_labelings(2, 2)
        with pytest.raises(CapacityError):
            bruteforce_erm(pc, list(range(2)) * 40, np.zeros((2, 80)))


class TestExactRademacher:
    def test_singleton_symmetry(self):
        pc = PolicyClass(np.array([[0, 1]]), 2)
        assert exact_rademacher(pc, [0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_two_constants_single_round(self):
        pc = PolicyClass(np.array([[0], [1]]), 2)
        assert exact_rademacher(pc, [0]) == pytest.approx(0.5)

    def test_all_labelings_two_rounds(self):
        pc = PolicyClass.all_labelings(2, 2)
        assert exact_rademacher(pc, [0, 1]) == pytest.approx(1.0)

    def test_capacity(self):
        pc = PolicyClass.all_labelings(2, 13)
        with pytest.raises(CapacityError):
            exact_rademacher(pc, list(range(13)))


class TestExactRegularizedBound:
    def test_estimate_within_three_standard_errors(self):
        config = load_config(os.path.join(CONFIG_DIR, "regularized_pairwise.json"))
        config["tune_samples"] = 2000
        pc = build_policy_class(config)
        env = build_environment(config, pc)
        params = resolve_strategy_params(config, pc, env)
        exact = exact_regularized_bound(
            pc, env.probs, config["n"], params["gamma"], lam=config["lambda"], K=config["K"],
            constraint=build_constraint(config))
        assert params["bound_stderr"] > 0
        assert abs(params["bound"] - exact) <= 3 * params["bound_stderr"]

    def test_unpenalized_bound_is_scaled_rademacher_average(self):
        pc = PolicyClass(np.array([[0, 1], [1, 1], [0, 0]]), 2)
        n, gamma = 3, 0.25
        seqs = [[a, b, c] for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        for probs in ([0.5, 0.5], [1.0, 0.0]):  # p(x) = 0: no sequence holding x counts
            weights = [np.prod([probs[x] for x in s]) for s in seqs]
            rad = np.dot(weights, [exact_rademacher(pc, s) for s in seqs])
            bound = exact_regularized_bound(pc, probs, n, gamma, lam=0.0, K=0.0,
                                            constraint=None)
            assert bound == pytest.approx(SIGN_SCALE * rad / gamma + n * 2 * gamma, abs=1e-12)

    def test_capacity(self):
        pc = PolicyClass.all_labelings(2, 2)
        with pytest.raises(CapacityError):
            exact_regularized_bound(pc, [0.5, 0.5], 7, 0.25, lam=0.1, K=4,
                                    constraint=PairwiseDisagreement())


class TestGridMinimax:
    def test_one_dimensional(self):
        q, v = grid_minimax(np.array([0.7]), resolution=100)
        np.testing.assert_array_equal(q, [1.0])
        assert v == pytest.approx(0.3)

    def test_symmetric_two_actions(self):
        q, v = grid_minimax(np.zeros(2), resolution=1000)
        np.testing.assert_allclose(q, [0.5, 0.5], atol=1e-12)
        assert v == pytest.approx(0.5)

    def test_lattice_matches_full_enumeration(self):
        rng = np.random.default_rng(51)
        for _ in range(30):
            d = int(rng.integers(2, 4))
            psi = rng.uniform(-3, 3, size=d)
            res = int(rng.integers(5, 60))
            _, fast = grid_minimax(psi, resolution=res)
            _, slow = enumerate_grid_minimax(psi, res)
            assert fast == pytest.approx(slow, abs=1e-12)

    def test_resolution_controls_accuracy(self):
        psi = np.array([0.41, -0.13, 0.27, 0.05])
        _, coarse = grid_minimax(psi, resolution=10)
        _, fine = grid_minimax(psi, resolution=1000)
        assert fine <= coarse + 1e-12
        assert coarse - fine <= 4 / 10
