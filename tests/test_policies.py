import json

import numpy as np
import pytest

from bistro.policies import (
    CapacityError,
    Context,
    LinearArgmaxPolicy,
    PolicyClass,
    TablePolicy,
    ips_estimate,
    mix_with_uniform,
    policy_cost,
    policy_to_matrix,
    uniform_distribution,
)
from bistro.verify import bruteforce_erm, sequence_values


def dyadic(rng, shape):
    """Entries k / 2^20 in [-2, 2]: float sums of them are exact in any order."""
    return rng.integers(-2 << 20, (2 << 20) + 1, size=shape) / (1 << 20)


class TestPolicyToMatrix:
    def test_constant_policy(self):
        f = TablePolicy([0, 0, 0], d=2)
        M = policy_to_matrix(f, [0, 1, 2])
        np.testing.assert_array_equal(M, [[1, 1, 1], [0, 0, 0]])

    def test_table_lookup(self):
        f = TablePolicy([0, 1], d=2)
        M = policy_to_matrix(f, [0, 1, 0])
        np.testing.assert_array_equal(M, [[1, 0, 1], [0, 1, 0]])

    def test_argmax_linear(self):
        f = LinearArgmaxPolicy([[1.0, 0.0], [0.0, 1.0]])
        M = policy_to_matrix(f, [Context(0, features=(0.3, 0.9))])
        np.testing.assert_array_equal(M, [[0], [1]])

    def test_context_outside_universe(self):
        f = TablePolicy([0, 1], d=2)
        with pytest.raises(ValueError):
            policy_to_matrix(f, [0, 2])

    def test_one_hot_invariant_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            universe = int(rng.integers(1, 8))
            n = int(rng.integers(1, 12))
            f = TablePolicy(rng.integers(0, d, universe), d)
            M = policy_to_matrix(f, rng.integers(0, universe, n))
            assert M.shape == (d, n)
            np.testing.assert_array_equal(M.sum(axis=0), np.ones(n))
            assert set(np.unique(M)) <= {0.0, 1.0}


class TestPolicyCost:
    Y = np.array([[0.2, 0.5], [0.9, 0.1]])

    def test_always_first_action(self):
        M = policy_to_matrix(TablePolicy([0, 0], 2), [0, 1])
        assert policy_cost(M, self.Y) == pytest.approx(0.7, abs=1e-12)

    def test_zero_costs(self):
        M = policy_to_matrix(TablePolicy([1, 0], 2), [0, 1])
        assert policy_cost(M, np.zeros((2, 2))) == 0.0

    def test_always_second_action(self):
        M = policy_to_matrix(TablePolicy([1, 1], 2), [0, 1])
        assert policy_cost(M, self.Y) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            policy_cost(np.ones((2, 3)), np.ones((2, 2)))

    def test_linearity_in_costs(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            d, n = int(rng.integers(2, 5)), int(rng.integers(1, 9))
            M = policy_to_matrix(TablePolicy(rng.integers(0, d, 4), d), rng.integers(0, 4, n))
            Y1, Y2 = rng.normal(size=(d, n)), rng.normal(size=(d, n))
            a, b = rng.normal(), rng.normal()
            lhs = policy_cost(M, a * Y1 + b * Y2)
            rhs = a * policy_cost(M, Y1) + b * policy_cost(M, Y2)
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestMixWithUniform:
    def test_corner(self):
        np.testing.assert_allclose(
            mix_with_uniform(np.array([1.0, 0.0]), 0.1), [0.9, 0.1], atol=1e-15
        )

    def test_uniform_fixed_point(self):
        for d in (2, 3, 5):
            for gamma in (1e-4, 0.3 / d, 1.0 / d):
                q = mix_with_uniform(uniform_distribution(d), gamma)
                np.testing.assert_allclose(q, uniform_distribution(d), atol=1e-15)

    def test_three_action_example(self):
        q = mix_with_uniform(np.array([0.5, 0.5, 0.0]), 0.1)
        np.testing.assert_allclose(q, [0.45, 0.45, 0.1], atol=1e-15)

    def test_gamma_out_of_range(self):
        for gamma in (0.0, -0.1, 0.51):
            with pytest.raises(ValueError):
                mix_with_uniform(np.array([1.0, 0.0]), gamma)

    def test_floor_and_normalization(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            d = int(rng.integers(2, 9))
            q_star = rng.dirichlet(np.ones(d))
            gamma = rng.uniform(1e-6, 1.0 / d)
            q = mix_with_uniform(q_star, gamma)
            assert q.min() >= gamma - 1e-15
            assert abs(q.sum() - 1.0) <= 1e-12


class TestIpsEstimate:
    def test_formula(self):
        est = ips_estimate(0.8, 0, np.array([0.5, 0.5]))
        np.testing.assert_allclose(est.dense(), [1.6, 0.0], atol=1e-15)

    def test_zero_cost(self):
        est = ips_estimate(0.0, 1, np.array([0.5, 0.5]))
        np.testing.assert_array_equal(est.dense(), [0.0, 0.0])

    def test_second_action(self):
        est = ips_estimate(1.0, 1, np.array([0.25, 0.75]))
        np.testing.assert_allclose(est.dense(), [0.0, 4.0 / 3.0], atol=1e-15)

    def test_zero_probability_guard(self):
        with pytest.raises(ValueError):
            ips_estimate(0.5, 0, np.array([0.0, 1.0]))

    def test_unbiasedness(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            d = int(rng.integers(2, 7))
            q = mix_with_uniform(rng.dirichlet(np.ones(d)), 0.5 / d)
            c = rng.random(d)
            recon = sum(q[j] * ips_estimate(c[j], j, q).dense() for j in range(d))
            np.testing.assert_allclose(recon, c, atol=1e-12)


class TestPolicyClass:
    def test_all_labelings(self):
        pc = PolicyClass.all_labelings(2, 3)
        assert pc.size == 8
        tables = {tuple(pc.table[i]) for i in range(8)}
        assert len(tables) == 8

    def test_all_labelings_capacity(self):
        with pytest.raises(CapacityError):
            PolicyClass.all_labelings(10, 7)

    def test_from_json_tables_one_based(self):
        doc = {"d": 2, "universe": 3, "policies": [[1, 1, 2], [2, 1, 1]]}
        pc = PolicyClass.from_json(doc)
        np.testing.assert_array_equal(pc.table, [[0, 0, 1], [1, 0, 0]])

    def test_from_json_universe_mismatch(self):
        with pytest.raises(ValueError):
            PolicyClass.from_json({"d": 2, "universe": 4, "policies": [[1, 2]]})

    def test_from_json_argmax_linear(self):
        doc = {
            "family": "argmax_linear",
            "weights": [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]],
        }
        features = np.array([[0.3, 0.9], [0.8, 0.1]])
        pc = PolicyClass.from_json(doc, features=features)
        np.testing.assert_array_equal(pc.table, [[1, 0], [0, 1]])

    def test_argmax_linear_requires_features(self):
        doc = {"family": "argmax_linear", "weights": [[[1.0], [2.0]]]}
        with pytest.raises(ValueError):
            PolicyClass.from_json(doc)

    def test_json_round_trip(self):
        doc = json.loads(json.dumps({"d": 3, "universe": 2, "policies": [[3, 1]]}))
        pc = PolicyClass.from_json(doc)
        assert pc.policy(0).action(0) == 2
        assert pc.policy(0).action(Context(1)) == 0

    def test_actions_on_bounds(self):
        pc = PolicyClass.all_labelings(2, 2)
        with pytest.raises(ValueError):
            pc.actions_on([0, 5])


class TestValues:
    def test_matches_sequence_form_and_bruteforce_exactly(self):
        rng = np.random.default_rng(31)
        for trial in range(200):
            d = int(rng.integers(1, 5))
            universe = int(rng.integers(1, 7))
            pc = PolicyClass(rng.integers(0, d, (int(rng.integers(1, 12)), universe)), d)
            n = trial % 2 if trial < 20 else int(rng.integers(2, 40))
            # ids from a prefix of the universe, so some contexts never occur
            ctxs = rng.integers(0, int(rng.integers(1, universe + 1)), n)
            Y = dyadic(rng, (d, n))
            values = pc.values(ctxs, Y)
            assert values.shape == (pc.size,)
            assert np.array_equal(values, sequence_values(pc, ctxs, Y))
            assert values.min() == bruteforce_erm(pc, ctxs, Y)

    def test_onehot_cached_and_read_only(self):
        pc = PolicyClass(np.array([[0, 1], [1, 1]]), 2)
        onehot = pc.onehot
        # cell j*|X| + x marks action j at context x
        np.testing.assert_array_equal(onehot, [[1, 0, 0, 1], [0, 0, 1, 1]])
        assert pc.onehot is onehot
        assert not onehot.flags.writeable

    def test_rejects_out_of_universe_ids(self):
        pc = PolicyClass.all_labelings(2, 3)
        for ctxs in ([0, 3], [-1, 0]):
            with pytest.raises(ValueError):
                pc.values(ctxs, np.zeros((2, 2)))

    def test_rejects_wrong_cost_shape(self):
        pc = PolicyClass.all_labelings(2, 3)
        for shape in ((2, 3), (3, 2), (1, 2), (4,)):
            with pytest.raises(ValueError):
                pc.values([0, 1], np.zeros(shape))

    def test_rejects_non_finite_costs(self):
        pc = PolicyClass.all_labelings(2, 3)
        for bad in (np.inf, -np.inf, np.nan):
            Y = np.zeros((2, 2))
            Y[1, 0] = bad
            with pytest.raises(ValueError):
                pc.values([0, 1], Y)
