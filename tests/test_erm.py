import numpy as np
import pytest

from bistro.erm import (
    BoxRelaxedOracle,
    CoveragePenalty,
    ExactErmOracle,
    PairwiseDisagreement,
    RegularizedErmOracle,
    RegularizedErmQuery,
    approximate_erm,
    box_relaxed_erm_value,
    coverage_cost,
    exact_erm_value,
    filter_class,
    load_constraint,
    mlc_bruteforce,
    pairwise_disagreement_cost,
    policy_constraint_values,
    regularized_erm_value,
)
from bistro.policies import CapacityError, Context, PolicyClass, TablePolicy, policy_to_matrix
from bistro.verify import bruteforce_erm

Y_EXAMPLE = np.array([[0.2, 0.5], [0.9, 0.1]])


def two_constant_policies():
    return PolicyClass(np.array([[0, 0], [1, 1]]), 2)


class TestExactErm:
    def test_two_policy_example(self):
        assert exact_erm_value(two_constant_policies(), [0, 1], Y_EXAMPLE) == pytest.approx(0.7)

    def test_singleton_zero_costs(self):
        pc = PolicyClass(np.array([[1, 0]]), 2)
        assert exact_erm_value(pc, [0, 1], np.zeros((2, 2))) == 0.0

    def test_all_labelings_column_minima(self):
        pc = PolicyClass.all_labelings(2, 2)
        assert exact_erm_value(pc, [0, 1], Y_EXAMPLE) == pytest.approx(0.3)

    def test_empty_class_errors(self):
        empty = two_constant_policies().subset([])
        with pytest.raises(ValueError):
            exact_erm_value(empty, [0], np.zeros((2, 1)))

    def test_matches_bruteforce_exactly(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(1, 9))
            size = int(rng.integers(1, 11))
            universe = int(rng.integers(1, 6))
            pc = PolicyClass(rng.integers(0, d, (size, universe)), d)
            ctxs = rng.integers(0, universe, n)
            # dyadic entries keep float addition associative across sum orders
            Y = rng.integers(-3 << 20, (3 << 20) + 1, size=(d, n)) / (1 << 20)
            assert exact_erm_value(pc, ctxs, Y) == bruteforce_erm(
                pc, [Context(int(c)) for c in ctxs], Y
            )

    def test_oracles_reject_non_finite_costs(self):
        pc = two_constant_policies()
        Y = Y_EXAMPLE.copy()
        Y[0, 1] = np.nan
        with pytest.raises(ValueError):
            ExactErmOracle(pc)([0, 1], Y)
        with pytest.raises(ValueError):
            exact_erm_value(pc, [0, 1], -np.inf * np.ones((2, 2)))
        with pytest.raises(ValueError):
            RegularizedErmOracle(pc, PairwiseDisagreement("uniform"), 0.5)([0, 1], Y)

    def test_oracle_counter(self):
        oracle = ExactErmOracle(two_constant_policies())
        assert oracle.calls == 0
        for k in range(1, 6):
            oracle([0, 1], Y_EXAMPLE)
            assert oracle.calls == k


class TestApproximateOracle:
    def test_delta_zero_is_identity(self):
        oracle = approximate_erm(ExactErmOracle(two_constant_policies()), 0.0, seed=5)
        for _ in range(5):
            assert oracle([0, 1], Y_EXAMPLE) == 0.7

    def test_interval_containment(self):
        oracle = approximate_erm(ExactErmOracle(two_constant_policies()), 0.1, seed=5)
        values = [oracle([0, 1], Y_EXAMPLE) for _ in range(200)]
        assert all(0.6 <= v <= 0.8 for v in values)
        assert len(set(values)) > 1

    def test_seeded_reproducibility(self):
        mk = lambda: approximate_erm(ExactErmOracle(two_constant_policies()), 0.05, seed=9)
        a, b = mk(), mk()
        assert [a([0, 1], Y_EXAMPLE) for _ in range(20)] == [
            b([0, 1], Y_EXAMPLE) for _ in range(20)
        ]

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            approximate_erm(ExactErmOracle(two_constant_policies()), -0.1, seed=0)


class TestConstraints:
    def test_pairwise_two_rounds(self):
        M = policy_to_matrix(TablePolicy([0, 1], 2), [0, 1])
        assert pairwise_disagreement_cost(M, [0, 1], "uniform") == 2.0

    def test_pairwise_constant_labeling(self):
        M = policy_to_matrix(TablePolicy([0, 0, 0], 2), [0, 1, 2])
        assert pairwise_disagreement_cost(M, [0, 1, 2], "uniform") == 0.0

    def test_pairwise_three_rounds(self):
        M = policy_to_matrix(TablePolicy([0, 0, 1], 2), [0, 1, 2])
        assert pairwise_disagreement_cost(M, [0, 1, 2], "uniform") == 4.0

    def test_pairwise_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            PairwiseDisagreement(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        bad = PairwiseDisagreement(lambda s, r: -1.0)
        M = policy_to_matrix(TablePolicy([0, 1], 2), [0, 1])
        with pytest.raises(ValueError):
            bad(M, [0, 1])

    def test_pairwise_matrix_weights_indexed_by_context(self):
        W = np.array([[0.0, 2.0], [2.0, 0.0]])
        M = policy_to_matrix(TablePolicy([0, 1], 2), [0, 1, 0])
        # ordered pairs over rounds: (1,2),(2,1),(2,3),(3,2) disagree, each w=2
        assert pairwise_disagreement_cost(M, [0, 1, 0], W) == 8.0

    def test_coverage_one_block_constant(self):
        M = policy_to_matrix(TablePolicy([0, 0], 2), [0, 1])
        assert coverage_cost(M, [[0, 1]], 1) == 1.0

    def test_coverage_k_zero(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            labels = rng.integers(0, 2, 4)
            M = policy_to_matrix(TablePolicy(labels, 2), range(4))
            assert coverage_cost(M, [[0, 1], [2, 3]], 0) == 0.0

    def test_coverage_balanced_labeling(self):
        M = policy_to_matrix(TablePolicy([0, 1], 2), [0, 1])
        assert coverage_cost(M, [[0, 1]], 1) == 0.0

    def test_coverage_partition_validation(self):
        M = policy_to_matrix(TablePolicy([0, 1], 2), [0, 1])
        with pytest.raises(ValueError):
            coverage_cost(M, [[0]], 1)  # incomplete
        with pytest.raises(ValueError):
            coverage_cost(M, [[0, 1], [1]], 1)  # overlapping

    def test_nonnegative_on_random_labelings(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            labels = rng.integers(0, 3, 5)
            M = policy_to_matrix(TablePolicy(labels, 3), range(5))
            assert pairwise_disagreement_cost(M, range(5), "uniform") >= 0.0
            assert coverage_cost(M, [[0, 1, 2], [3, 4]], 2) >= 0.0

    def test_load_constraint(self):
        c1 = load_constraint({"type": "pairwise", "weights": "uniform"})
        assert isinstance(c1, PairwiseDisagreement)
        c2 = load_constraint({"type": "coverage", "partition": [[0, 1]], "k": 1})
        assert isinstance(c2, CoveragePenalty)
        with pytest.raises(ValueError):
            load_constraint({"type": "nope"})


def sequence_penalties(constraint, pc, ctxs):
    """Round-pair form: the constraint on each policy's one-hot matrix."""
    return np.array([constraint(policy_to_matrix(p, ctxs), ctxs) for p in pc.policies])


def symmetric_weights(rng, universe):
    A = rng.uniform(0, 1, (universe, universe))
    return A + A.T


class TestFoldedPairwise:
    def test_matches_sequence_form(self):
        rng = np.random.default_rng(27)
        uniform = PairwiseDisagreement("uniform")
        for trial in range(60):
            d = int(rng.integers(2, 4))
            universe = int(rng.integers(1, 6))
            pc = PolicyClass(rng.integers(0, d, (int(rng.integers(1, 10)), universe)), d)
            ctxs = rng.integers(0, universe, trial % 3 if trial < 6 else int(rng.integers(3, 14)))
            assert np.array_equal(policy_constraint_values(uniform, pc, ctxs),
                                  sequence_penalties(uniform, pc, ctxs))
            W = symmetric_weights(rng, universe)
            for constraint in (PairwiseDisagreement(W),
                               PairwiseDisagreement(lambda s, r: W[s, r])):
                np.testing.assert_allclose(policy_constraint_values(constraint, pc, ctxs),
                                           sequence_penalties(constraint, pc, ctxs),
                                           rtol=0, atol=1e-12)

    def test_coverage_matches_sequence_form(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            d = int(rng.integers(2, 4))
            pc = PolicyClass(rng.integers(0, d, (int(rng.integers(1, 10)), 4)), d)
            n = int(rng.integers(2, 10))
            ctxs = rng.integers(0, 4, n)
            coverage = CoveragePenalty([range(n // 2), range(n // 2, n)], 1)
            assert np.array_equal(policy_constraint_values(coverage, pc, ctxs),
                                  sequence_penalties(coverage, pc, ctxs))

    def test_callable_weights_priced_per_distinct_context_pair(self):
        pairs = []

        def weight(s, r):
            pairs.append((s, r))
            return 1.0

        pc = PolicyClass.all_labelings(2, 3)
        policy_constraint_values(PairwiseDisagreement(weight), pc, [2, 0, 2, 2, 0])
        assert sorted(pairs) == [(0, 0), (0, 2), (2, 0), (2, 2)]

    def test_out_of_universe_ids_rejected(self):
        pc = PolicyClass.all_labelings(2, 2)
        with pytest.raises(ValueError):
            policy_constraint_values(PairwiseDisagreement("uniform"), pc, [0, 2])

    def test_regularized_value_matches_metric_labeling(self):
        # Nodes are the contexts: folded node costs, and per unordered pair
        # twice the ordered-pair weight times the product of the counts.
        rng = np.random.default_rng(28)
        for _ in range(30):
            d = int(rng.integers(2, 4))
            universe = int(rng.integers(1, 5))
            n = int(rng.integers(1, 16))
            pc = PolicyClass.all_labelings(d, universe)
            ctxs = rng.integers(0, universe, n)
            Y = rng.uniform(-1, 1, (d, n))
            lam = float(rng.uniform(0, 0.8))
            W = symmetric_weights(rng, universe)
            reg = regularized_erm_value(
                pc, ctxs, RegularizedErmQuery(Y=Y, lambda_scaled=lam,
                                              constraint=PairwiseDisagreement(W)))
            node = np.array([Y[:, ctxs == x].sum(axis=1) for x in range(universe)])
            counts = np.bincount(ctxs, minlength=universe)
            edges = 2.0 * lam * W * np.outer(counts, counts)
            np.fill_diagonal(edges, 0.0)
            assert mlc_bruteforce(node, edges, 1.0 - np.eye(d)) == pytest.approx(reg, abs=1e-10)


class TestFilterClass:
    def test_infinite_budget_keeps_everything(self):
        pc = PolicyClass.all_labelings(2, 3)
        kept = filter_class(pc, [0, 1, 2], PairwiseDisagreement("uniform"), np.inf)
        np.testing.assert_array_equal(kept.table, pc.table)

    def test_negative_budget_empties(self):
        pc = PolicyClass.all_labelings(2, 3)
        kept = filter_class(pc, [0, 1, 2], PairwiseDisagreement("uniform"), -1.0)
        assert kept.size == 0

    def test_selects_satisfying_policy(self):
        pc = PolicyClass(np.array([[0, 0], [0, 1]]), 2)
        kept = filter_class(pc, [0, 1], PairwiseDisagreement("uniform"), 1.0)
        assert kept.size == 1
        np.testing.assert_array_equal(kept.table, [[0, 0]])


class TestRegularizedErm:
    def test_zero_penalty_equals_exact(self):
        rng = np.random.default_rng(24)
        constraint = PairwiseDisagreement("uniform")
        for _ in range(30):
            pc = PolicyClass(rng.integers(0, 2, (5, 3)), 2)
            ctxs = rng.integers(0, 3, 4)
            Y = rng.uniform(-2, 2, (2, 4))
            q = RegularizedErmQuery(Y=Y, lambda_scaled=0.0, constraint=constraint)
            assert regularized_erm_value(pc, ctxs, q) == exact_erm_value(pc, ctxs, Y)

    def test_hand_enumerated_example(self):
        pc = PolicyClass.all_labelings(2, 2)
        L = np.array([[0.0, 0.0], [1.0, 1.0]])
        q = RegularizedErmQuery(Y=L, lambda_scaled=0.3, constraint=PairwiseDisagreement("uniform"))
        # labelings (1,1)->0, (1,2)->1.6, (2,1)->1.6, (2,2)->2
        assert regularized_erm_value(pc, [0, 1], q) == pytest.approx(0.0)

    def test_large_penalty_forces_constant_labeling(self):
        pc = PolicyClass.all_labelings(2, 2)
        # linear part favors the discriminating labeling (1,2)
        L = np.array([[0.0, 1.0], [1.0, 0.0]])
        constraint = PairwiseDisagreement("uniform")
        q = RegularizedErmQuery(Y=L, lambda_scaled=10.0, constraint=constraint)
        value = regularized_erm_value(pc, [0, 1], q)
        assert value == pytest.approx(1.0)  # constant labeling pays 1, mixed pays 20

    def test_oracle_matches_value(self):
        pc = PolicyClass.all_labelings(2, 2)
        constraint = PairwiseDisagreement("uniform")
        oracle = RegularizedErmOracle(pc, constraint, 0.3)
        Y = np.array([[0.0, 0.0], [1.0, 1.0]])
        q = RegularizedErmQuery(Y=Y, lambda_scaled=0.3, constraint=constraint)
        assert oracle([0, 1], Y) == regularized_erm_value(pc, [0, 1], q)
        assert oracle.calls == 1

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            RegularizedErmQuery(Y=np.zeros((2, 1)), lambda_scaled=-0.1, constraint=None)


class TestMetricLabeling:
    def test_decoupled_when_no_edges(self):
        rng = np.random.default_rng(25)
        node = rng.uniform(0, 1, (4, 3))
        value = mlc_bruteforce(node, np.zeros((4, 4)), 1.0 - np.eye(3))
        assert value == pytest.approx(node.min(axis=1).sum())

    def test_single_node(self):
        node = np.array([[0.4, 0.1, 0.7]])
        assert mlc_bruteforce(node, np.zeros((1, 1)), 1.0 - np.eye(3)) == pytest.approx(0.1)

    def test_matches_regularized_erm_translation(self):
        # ordered-pair sum maps to edge weight 2*lambda'*w per unordered edge
        rng = np.random.default_rng(26)
        constraint = PairwiseDisagreement("uniform")
        for _ in range(50):
            d = int(rng.integers(2, 4))
            n = int(rng.integers(1, 7))
            pc = PolicyClass.all_labelings(d, n)
            ctxs = np.arange(n)
            Y = rng.uniform(-1, 1, (d, n))
            lam = float(rng.uniform(0, 0.8))
            reg = regularized_erm_value(
                pc, ctxs, RegularizedErmQuery(Y=Y, lambda_scaled=lam, constraint=constraint)
            )
            W = np.full((n, n), 2.0 * lam)
            np.fill_diagonal(W, 0.0)
            mlc = mlc_bruteforce(Y.T, W, 1.0 - np.eye(d))
            assert mlc == pytest.approx(reg, abs=1e-10)

    def test_matches_hand_example_under_translation(self):
        L = np.array([[0.0, 0.0], [1.0, 1.0]])
        W = np.array([[0.0, 0.6], [0.6, 0.0]])
        assert mlc_bruteforce(L.T, W, 1.0 - np.eye(2)) == pytest.approx(0.0)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            mlc_bruteforce(np.zeros((21, 2)), np.zeros((21, 21)), 1.0 - np.eye(2))

    def test_non_metric_rejected(self):
        node = np.zeros((2, 2))
        with pytest.raises(ValueError):
            mlc_bruteforce(node, np.zeros((2, 2)), np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ValueError):
            mlc_bruteforce(node, np.zeros((2, 2)), np.array([[0.5, 1.0], [1.0, 0.0]]))


class TestBoxRelaxation:
    def test_example_with_negative_entry(self):
        Y = np.array([[0.2, -0.5], [0.9, 0.1]])
        assert box_relaxed_erm_value(None, Y) == pytest.approx(-0.5)

    def test_nonnegative_costs_give_zero(self):
        rng = np.random.default_rng(27)
        assert box_relaxed_erm_value(None, rng.uniform(0, 1, (3, 5))) == 0.0

    def test_all_minus_one(self):
        assert box_relaxed_erm_value(None, -np.ones((2, 7))) == pytest.approx(-7.0)

    def test_dominates_exact_erm(self):
        rng = np.random.default_rng(28)
        for _ in range(200):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(1, 9))
            pc = PolicyClass(rng.integers(0, d, (int(rng.integers(1, 9)), 3)), d)
            Y = rng.uniform(-2, 1, (d, n))
            ctxs = rng.integers(0, 3, n)
            assert box_relaxed_erm_value(ctxs, Y) <= exact_erm_value(pc, ctxs, Y) + 1e-12

    def test_oracle_counter(self):
        oracle = BoxRelaxedOracle()
        oracle(None, np.zeros((2, 2)))
        oracle(None, np.zeros((2, 2)))
        assert oracle.calls == 2

    def test_superset_complexity_dominates_with_shared_signs(self):
        # per sign draw: sup over the box is sum_t max(0, max_j eps), at least
        # any policy's correlation
        rng = np.random.default_rng(29)
        pc = PolicyClass(rng.integers(0, 2, (6, 4)), 2)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            ctxs = rng.integers(0, 4, n)
            eps = rng.integers(0, 2, (2, n)) * 2.0 - 1.0
            sup_box = -box_relaxed_erm_value(ctxs, -eps)
            sup_class = -exact_erm_value(pc, ctxs, -eps)
            assert sup_box >= sup_class - 1e-12
