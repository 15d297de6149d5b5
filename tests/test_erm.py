import numpy as np
import pytest

from bistro import erm, runner
from bistro.erm import (
    ApproximateErmOracle,
    BoxRelaxedOracle,
    CoveragePenalty,
    EmptyBenchmarkError,
    ExactErmOracle,
    PairwiseDisagreement,
    RegularizedErmOracle,
    RegularizedErmQuery,
    benchmark,
    policy_constraint_values,
    regularized_erm_value,
)
from bistro.policies import CapacityError, PolicyClass
from bistro.verify import (
    bruteforce_erm,
    mlc_bruteforce,
    policy_to_matrix,
    sequence_constraint,
    sequence_values,
)

Y_EXAMPLE = np.array([[0.2, 0.5], [0.9, 0.1]])


def one_hot(row, d, ctxs):
    """One-hot matrix of the single policy given by an action-table row."""
    return policy_to_matrix(PolicyClass([row], d), 0, ctxs)


def two_constant_policies():
    return PolicyClass(np.array([[0, 0], [1, 1]]), 2)


class TestExactErm:
    def test_two_policy_example(self):
        assert ExactErmOracle(two_constant_policies())([0, 1], Y_EXAMPLE) == pytest.approx(0.7)

    def test_singleton_zero_costs(self):
        pc = PolicyClass(np.array([[1, 0]]), 2)
        assert ExactErmOracle(pc)([0, 1], np.zeros((2, 2))) == 0.0

    def test_all_labelings_column_minima(self):
        pc = PolicyClass.all_labelings(2, 2)
        assert ExactErmOracle(pc)([0, 1], Y_EXAMPLE) == pytest.approx(0.3)

    def test_empty_class_errors(self):
        empty = PolicyClass(two_constant_policies().table[[]], 2)
        with pytest.raises(ValueError):
            ExactErmOracle(empty)([0], np.zeros((2, 1)))

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
            assert ExactErmOracle(pc)(ctxs, Y) == bruteforce_erm(pc, ctxs, Y)

    def test_oracles_reject_non_finite_costs(self):
        pc = two_constant_policies()
        Y = Y_EXAMPLE.copy()
        Y[0, 1] = np.nan
        with pytest.raises(ValueError):
            ExactErmOracle(pc)([0, 1], Y)
        with pytest.raises(ValueError):
            ExactErmOracle(pc)([0, 1], -np.inf * np.ones((2, 2)))
        with pytest.raises(ValueError):
            RegularizedErmOracle(pc, PairwiseDisagreement("uniform"), 0.5)([0, 1], Y)

    def test_oracle_counter(self):
        oracle = ExactErmOracle(two_constant_policies())
        assert oracle.calls == 0
        for k in range(1, 6):
            oracle([0, 1], Y_EXAMPLE)
            assert oracle.calls == k


class TestStackedQueries:
    """A stack of S queries, contexts (S, n) and Y (S, d, n), counts as S
    calls and answers as S sequential calls: bit for bit on dyadic costs, to
    1e-12 otherwise, since its products sum in another order."""

    def queries(self, seed, stack=6, n=5):
        rng = np.random.default_rng(seed)
        pc = PolicyClass(rng.integers(0, 3, (9, 4)), 3)
        return pc, rng.integers(0, 4, (stack, n)), rng.uniform(-2, 2, (stack, 3, n))

    def assert_stack_equals_sequence(self, make, ctxs, Y):
        stacked, sequential = make(), make()
        values = stacked(ctxs, Y)
        assert values.shape == (len(Y),)
        assert stacked.calls == len(Y)
        expected = [sequential(c, y) for c, y in zip(ctxs, Y)]
        assert values.tolist() == expected
        assert stacked.calls == sequential.calls

    def assert_stack_matches_sequence(self, make, ctxs, Y):
        dyadic = np.round(Y * (1 << 20)) / (1 << 20)
        self.assert_stack_equals_sequence(make, ctxs, dyadic)
        sequential = make()
        np.testing.assert_allclose(
            make()(ctxs, Y), [sequential(c, y) for c, y in zip(ctxs, Y)], rtol=0, atol=1e-12)

    def test_exact(self):
        pc, ctxs, Y = self.queries(51)
        self.assert_stack_matches_sequence(lambda: ExactErmOracle(pc), ctxs, Y)

    def test_approximate_draws_noise_in_order(self):
        pc, ctxs, Y = self.queries(52)
        make = lambda: ApproximateErmOracle(ExactErmOracle(pc), 0.1, seed=3)
        self.assert_stack_matches_sequence(make, ctxs, Y)
        # the inner stack plus delta times one draw per query, in stack order
        rng = np.random.default_rng(3)
        noise = np.array([rng.uniform(-1.0, 1.0) for _ in Y])
        assert make()(ctxs, Y).tolist() == (ExactErmOracle(pc)(ctxs, Y) + 0.1 * noise).tolist()

    def test_box_relaxed(self):
        _, ctxs, Y = self.queries(53)
        self.assert_stack_equals_sequence(BoxRelaxedOracle, ctxs, Y)

    def test_regularized(self):
        pc, ctxs, Y = self.queries(54)
        for constraint in (PairwiseDisagreement("uniform"), CoveragePenalty([[0, 1], [2, 3, 4]], 1)):
            self.assert_stack_matches_sequence(
                lambda: RegularizedErmOracle(pc, constraint, 0.3), ctxs, Y)
            # lambda = 0 skips the penalty: the exact oracle's stack, bit for bit
            assert (RegularizedErmOracle(pc, constraint, 0.0)(ctxs, Y).tolist()
                    == ExactErmOracle(pc)(ctxs, Y).tolist())

    def test_penalty_once_per_distinct_context_row(self, monkeypatch):
        pc, ctxs, Y = self.queries(57, stack=8)
        ctxs[[2, 5, 7]] = ctxs[0]
        ctxs[6] = ctxs[1]
        rows = []
        constraint = PairwiseDisagreement("uniform")

        def spy(policy_class, contexts):
            rows.append(np.array(contexts).tolist())
            return penalties(policy_class, contexts)

        penalties = constraint.per_policy
        monkeypatch.setattr(constraint, "per_policy", spy)
        oracle = RegularizedErmOracle(pc, constraint, 0.3)
        oracle(ctxs, Y)
        assert rows == [ctxs[s].tolist() for s in (0, 1, 3, 4)]
        rows.clear()
        oracle(ctxs[0], Y[0])
        assert rows == [ctxs[0].tolist()]

    @staticmethod
    def spied_oracle(monkeypatch, pc):
        """A pairwise oracle at lambda 0.3, and the context rows it prices."""
        rows = []
        penalties = erm.policy_constraint_values

        def spy(constraint, policy_class, contexts):
            rows.append(np.array(contexts).tolist())
            return penalties(constraint, policy_class, contexts)

        monkeypatch.setattr(erm, "policy_constraint_values", spy)
        return RegularizedErmOracle(pc, PairwiseDisagreement("uniform"), 0.3), rows

    def test_single_queries_on_one_row_price_it_once(self, monkeypatch):
        # play's d queries of a playout share their context row and differ only in Y
        pc, ctxs, Y = self.queries(58)
        fresh = [RegularizedErmOracle(pc, PairwiseDisagreement("uniform"), 0.3)(ctxs[0], y)
                 for y in Y]
        oracle, rows = self.spied_oracle(monkeypatch, pc)
        assert [oracle(ctxs[0], y) for y in Y] == fresh
        assert rows == [ctxs[0].tolist()]

    def test_row_rewritten_in_place_prices_again(self, monkeypatch):
        # the strategy rewrites one context array in place between playouts
        pc, ctxs, Y = self.queries(59)
        fresh = [RegularizedErmOracle(pc, PairwiseDisagreement("uniform"), 0.3)(c, y)
                 for c, y in zip(ctxs[:2], Y[:2])]
        oracle, rows = self.spied_oracle(monkeypatch, pc)
        row = ctxs[0].copy()
        first = oracle(row, Y[0])
        row[:] = ctxs[1]
        assert [first, oracle(row, Y[1])] == fresh
        assert rows == [ctxs[0].tolist(), ctxs[1].tolist()]

    def test_repeated_row_needs_a_repeated_dtype(self):
        # int32 [1, 0] and int64 [1] are the same eight bytes; no constant
        # policy hides a stale penalty behind a zero one
        pc = PolicyClass([[0, 1], [1, 0]], 2)
        make = lambda: RegularizedErmOracle(pc, PairwiseDisagreement("uniform"), 0.5)
        pair, single = np.array([1, 0], dtype=np.int32), np.array([1], dtype=np.int64)
        assert pair.tobytes() == single.tobytes()
        oracle = make()
        for ctxs in (pair, single, pair):
            Y = Y_EXAMPLE[:, :ctxs.size]
            assert oracle(ctxs, Y) == make()(ctxs, Y)

    def test_repeated_bytes_need_a_repeated_shape(self):
        # one query of four rounds and a stack of two two-round rows share
        # their dtype and bytes, not their penalties
        pc = PolicyClass([[0, 1], [1, 0], [0, 0]], 2)
        make = lambda: RegularizedErmOracle(pc, PairwiseDisagreement("uniform"), 0.05)
        single, stack = np.array([0, 1, 1, 0]), np.array([[0, 1], [1, 0]])
        Y = np.array([[-1.0, 1.0], [1.0, -1.0]])  # the disagreeing policies win
        Ys = {1: np.hstack([Y, Y[:, ::-1]]), 2: np.stack([Y, Y[:, ::-1]])}
        oracle = make()
        for ctxs in (single, stack, single):
            assert np.array_equal(oracle(ctxs, Ys[ctxs.ndim]), make()(ctxs, Ys[ctxs.ndim]))

    def test_refuses_negative_constraint_values(self):
        class Negative:
            def per_policy(self, policy_class, contexts):
                return -np.ones(policy_class.size)

        pc, ctxs, Y = self.queries(60)
        for query in ((ctxs[0], Y[0]), (ctxs, Y)):
            with pytest.raises(ValueError, match="nonnegative"):
                RegularizedErmOracle(pc, Negative(), 0.3)(*query)

    def test_counter_adds_stack_size(self):
        pc, ctxs, Y = self.queries(55, stack=7)
        oracle = ExactErmOracle(pc)
        oracle(ctxs[0], Y[0])
        oracle(ctxs[:3], Y[:3])
        oracle(ctxs, Y)
        assert oracle.calls == 1 + 3 + 7

    def test_rejects_mismatched_stack(self):
        pc, ctxs, Y = self.queries(56)
        for oracle in (ExactErmOracle(pc), BoxRelaxedOracle()):
            with pytest.raises(ValueError):
                oracle(ctxs[:-1], Y)
        Y[2, 0, 1] = np.nan
        with pytest.raises(ValueError):
            ExactErmOracle(pc)(ctxs, Y)


class TestApproximateOracle:
    def test_delta_zero_is_identity(self):
        oracle = ApproximateErmOracle(ExactErmOracle(two_constant_policies()), 0.0, seed=5)
        for _ in range(5):
            assert oracle([0, 1], Y_EXAMPLE) == 0.7

    def test_interval_containment(self):
        oracle = ApproximateErmOracle(ExactErmOracle(two_constant_policies()), 0.1, seed=5)
        values = [oracle([0, 1], Y_EXAMPLE) for _ in range(200)]
        assert all(0.6 <= v <= 0.8 for v in values)
        assert len(set(values)) > 1

    def test_seeded_reproducibility(self):
        mk = lambda: ApproximateErmOracle(ExactErmOracle(two_constant_policies()), 0.05, seed=9)
        a, b = mk(), mk()
        assert [a([0, 1], Y_EXAMPLE) for _ in range(20)] == [
            b([0, 1], Y_EXAMPLE) for _ in range(20)
        ]

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            ApproximateErmOracle(ExactErmOracle(two_constant_policies()), -0.1, seed=0)


class TestConstraints:
    def test_pairwise_two_rounds(self):
        M = one_hot([0, 1], 2, [0, 1])
        assert sequence_constraint(PairwiseDisagreement("uniform"), M, [0, 1]) == 2.0

    def test_pairwise_constant_labeling(self):
        M = one_hot([0, 0, 0], 2, [0, 1, 2])
        assert sequence_constraint(PairwiseDisagreement("uniform"), M, [0, 1, 2]) == 0.0

    def test_pairwise_three_rounds(self):
        M = one_hot([0, 0, 1], 2, [0, 1, 2])
        assert sequence_constraint(PairwiseDisagreement("uniform"), M, [0, 1, 2]) == 4.0

    def test_pairwise_negative_weight_rejected(self):
        for weights, match in (([[0.0, -1.0], [-1.0, 0.0]], "nonnegative"),
                               ("unit", "weight spec"), ([[0.0, 1.0, 1.0]], "square"),
                               ([[0.0, 1.0], [2.0, 0.0]], "symmetric")):
            with pytest.raises(ValueError, match=match):
                PairwiseDisagreement(weights if isinstance(weights, str) else np.array(weights))

    def test_pairwise_matrix_weights_indexed_by_context(self):
        W = np.array([[0.0, 2.0], [2.0, 0.0]])
        M = one_hot([0, 1], 2, [0, 1, 0])
        # ordered pairs over rounds: (1,2),(2,1),(2,3),(3,2) disagree, each w=2
        assert sequence_constraint(PairwiseDisagreement(W), M, [0, 1, 0]) == 8.0

    def test_coverage_one_block_constant(self):
        M = one_hot([0, 0], 2, [0, 1])
        assert sequence_constraint(CoveragePenalty([[0, 1]], 1), M) == 1.0

    def test_coverage_k_zero(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            labels = rng.integers(0, 2, 4)
            M = one_hot(labels, 2, range(4))
            assert sequence_constraint(CoveragePenalty([[0, 1], [2, 3]], 0), M) == 0.0

    def test_coverage_balanced_labeling(self):
        M = one_hot([0, 1], 2, [0, 1])
        assert sequence_constraint(CoveragePenalty([[0, 1]], 1), M) == 0.0

    def test_coverage_partition_validation(self):
        M = one_hot([0, 1], 2, [0, 1])
        # the reference checks on its own: covers of other horizons, and an
        # overlap set after construction
        for partition in ([[0]], [[0, 1, 2]]):
            with pytest.raises(ValueError, match="partition"):
                sequence_constraint(CoveragePenalty(partition, 1), M)
        overlapping = CoveragePenalty([[0, 1]], 1)
        overlapping.partition = [np.array([0, 1]), np.array([1])]
        with pytest.raises(ValueError, match="partition"):
            sequence_constraint(overlapping, M)
        # the folded form checks the cover once, on construction, and then the horizon
        for partition in ([[0, 1], [1]], [[1]], [[0], [2]], [[-1, 0, 1]]):
            with pytest.raises(ValueError, match="partition"):
                CoveragePenalty(partition, 1)
        for partition in ([[0]], [[0, 1, 2]]):
            with pytest.raises(ValueError, match="partition"):
                CoveragePenalty(partition, 1).per_policy(PolicyClass.all_labelings(2, 2), [0, 1])

    def test_coverage_negative_k_rejected(self):
        with pytest.raises(ValueError, match="k must be nonnegative"):
            CoveragePenalty([[0, 1]], -1)

    def test_nonnegative_on_random_labelings(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            labels = rng.integers(0, 3, 5)
            M = one_hot(labels, 3, range(5))
            assert sequence_constraint(PairwiseDisagreement("uniform"), M, range(5)) >= 0.0
            assert sequence_constraint(CoveragePenalty([[0, 1, 2], [3, 4]], 2), M) >= 0.0

    def test_load_constraint(self):
        c1 = runner.build_constraint({"constraint": {"type": "pairwise", "weights": "uniform"}})
        assert isinstance(c1, PairwiseDisagreement)
        c2 = runner.build_constraint(
            {"constraint": {"type": "coverage", "partition": [[0, 1]], "k": 1}})
        assert isinstance(c2, CoveragePenalty)
        with pytest.raises(ValueError):
            runner.build_constraint({"constraint": {"type": "nope"}})


def sequence_penalties(constraint, pc, ctxs):
    """Round-pair form: the constraint on each policy's one-hot matrix."""
    return np.array([sequence_constraint(constraint, policy_to_matrix(pc, f, ctxs), ctxs)
                     for f in range(pc.size)])


def sorted_fold(constraint, pc, ctxs):
    """The pairwise fold over np.unique's sorted contexts and counts: the
    summation order every weighted penalty is kept in, bit for bit."""
    u, c = np.unique(ctxs, return_counts=True)
    actions = pc.actions_on(u)
    W = constraint.weights[np.ix_(u, u)] * np.outer(c, c)
    return ((actions[:, :, None] != actions[:, None, :]) * W).sum(axis=(1, 2))


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
            constraint = PairwiseDisagreement(symmetric_weights(rng, universe))
            np.testing.assert_allclose(policy_constraint_values(constraint, pc, ctxs),
                                       sequence_penalties(constraint, pc, ctxs),
                                       rtol=0, atol=1e-12)
            assert np.array_equal(policy_constraint_values(constraint, pc, ctxs),
                                  sorted_fold(constraint, pc, ctxs))

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

    def test_out_of_universe_ids_rejected(self):
        pc = PolicyClass.all_labelings(2, 2)
        for ctxs in ([0, 2], [0, -1], [0, 10**12]):
            with pytest.raises(ValueError, match="universe"):
                policy_constraint_values(PairwiseDisagreement("uniform"), pc, ctxs)

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


def reference_per_policy(constraint, policy_class, contexts):
    """``PairwiseDisagreement.per_policy`` as it was before it kept its
    disagreement tensor: the reference its values must equal bit for bit."""
    ids = policy_class._checked_ids(contexts)  # before bincount sizes by the largest id
    counts = np.bincount(ids, minlength=policy_class.universe_size)
    u = np.flatnonzero(counts)  # sorted
    c = counts[u]
    actions = policy_class.actions_on(u)
    W = np.outer(c, c)
    if constraint.weights is not None:
        W = constraint.weights[np.ix_(u, u)] * W
    differ = actions[:, :, None] != actions[:, None, :]
    return (differ * W).sum(axis=(1, 2))


def rounds_on(rng, present, n):
    """n >= len(present) rounds that visit every context of ``present`` and no other."""
    return rng.permutation(np.concatenate([present, rng.choice(present, n - len(present))]))


class TestPairwiseBits:
    def test_random_sequences_match_the_reference_body(self):
        rng = np.random.default_rng(71)
        for trial in range(200):
            d, universe = int(rng.integers(2, 4)), int(rng.integers(1, 8))
            pc = PolicyClass(rng.integers(0, d, (int(rng.integers(1, 12)), universe)), d)
            present = rng.choice(universe, int(rng.integers(1, universe + 1)), replace=False)
            ctxs = rounds_on(rng, present, len(present) + int(rng.integers(0, 40)))
            scale = 10.0 ** int(rng.integers(-3, 4))
            for constraint in (PairwiseDisagreement("uniform"),
                               PairwiseDisagreement(scale * symmetric_weights(rng, universe))):
                expected = reference_per_policy(constraint, pc, ctxs).tobytes()
                for _ in range(2):  # a miss, then a hit
                    assert constraint.per_policy(pc, ctxs).tobytes() == expected
            empty = np.zeros(0, dtype=np.int64)  # no round: every penalty is 0
            assert (PairwiseDisagreement("uniform").per_policy(pc, empty).tobytes()
                    == reference_per_policy(PairwiseDisagreement("uniform"), pc, empty).tobytes())

    def test_kept_tensor_follows_the_class_and_the_present_contexts(self, monkeypatch):
        # one constraint priced alternately on two classes of one universe, and
        # on present-context sets that change, keep or only permute their size
        rng = np.random.default_rng(72)
        classes = [PolicyClass(rng.integers(0, 2, (9, 5)), 2) for _ in range(2)]
        constraint = PairwiseDisagreement(symmetric_weights(rng, 5))
        sets = {"all": [0, 1, 2, 3, 4], "three": [0, 1, 3], "other three": [0, 2, 4],
                "two": [1, 2]}
        calls = [(0, "all"), (1, "all"), (0, "all"), (0, "all"), (0, "three"),
                 (0, "other three"), (1, "other three"), (1, "two"), (1, "two"), (0, "all")]
        queries = [(classes[k], rounds_on(rng, np.array(sets[name]), 12)) for k, name in calls]
        expected = [reference_per_policy(constraint, pc, ctxs).tobytes() for pc, ctxs in queries]
        gathers = []
        actions_on = PolicyClass.actions_on
        monkeypatch.setattr(PolicyClass, "actions_on",
                            lambda pc, ids: gathers.append(ids.tolist()) or actions_on(pc, ids))
        assert [constraint.per_policy(pc, ctxs).tobytes() for pc, ctxs in queries] == expected
        # a miss gathers the present contexts; a repeat of the last class and set gathers none
        misses = [i for i in range(len(calls)) if i == 0 or calls[i] != calls[i - 1]]
        assert gathers == [sets[calls[i][1]] for i in misses]


class TestBenchmark:
    def test_infinite_budget_keeps_everything(self):
        # -M_f makes policy f the unique minimum, so each value shows f was kept
        pc = PolicyClass.all_labelings(2, 3)
        for f in range(pc.size):
            Y = -one_hot(pc.table[f], 2, [0, 1, 2])
            assert benchmark(pc, [0, 1, 2], Y, PairwiseDisagreement("uniform"), np.inf) == -3.0

    def test_negative_budget_empties(self):
        pc = PolicyClass.all_labelings(2, 3)
        with pytest.raises(EmptyBenchmarkError, match="empty after constraint filtering"):
            benchmark(pc, [0, 1, 2], np.zeros((2, 3)), PairwiseDisagreement("uniform"), -1.0)

    def test_selects_satisfying_policy(self):
        # [0, 1] costs -1 but disagrees on its two rounds (C = 2 > K); [0, 0] costs 0
        pc = PolicyClass(np.array([[0, 0], [0, 1]]), 2)
        Y = np.array([[0.0, 0.0], [0.0, -1.0]])
        assert benchmark(pc, [0, 1], Y) == -1.0
        assert benchmark(pc, [0, 1], Y, PairwiseDisagreement("uniform"), 1.0) == 0.0

    def test_matches_sequence_form_reference(self):
        # Reference: the least sequence-form value over the policies whose
        # sequence-form constraint on their one-hot matrix is at most K. Costs
        # and weights are dyadic, so both sides are exact and must agree bit for bit.
        rng = np.random.default_rng(43)
        for trial in range(150):
            d, universe = int(rng.integers(2, 4)), int(rng.integers(1, 5))
            n = int(rng.integers(1, 9))
            pc = PolicyClass(rng.integers(0, d, (int(rng.integers(1, 17)), universe)), d)
            if trial % 2:
                A = rng.integers(0, 4, (universe, universe)) / 2.0
                constraint = PairwiseDisagreement("uniform" if trial % 4 == 1 else A + A.T)
            else:
                cuts = np.sort(rng.choice(np.arange(1, n), size=min(n - 1, 2), replace=False))
                constraint = CoveragePenalty(np.split(rng.permutation(n), cuts),
                                             int(rng.integers(0, 3)))
            S = 3
            ctxs = rng.integers(0, universe, (S, n))
            Y = rng.integers(-8, 9, (S, d, n)) / 4.0
            values = [sequence_values(pc, ctxs[s], Y[s]) for s in range(S)]
            penalties = [sequence_penalties(constraint, pc, ctxs[s]) for s in range(S)]
            least = max(p.min() for p in penalties)  # the least K every query meets
            for K in (least - 0.5, least, least + float(rng.integers(1, 5)), np.inf):
                refs = [values[s][penalties[s] <= K].min(initial=np.inf) for s in range(S)]
                for s in range(S):
                    if refs[s] == np.inf:
                        with pytest.raises(EmptyBenchmarkError):
                            benchmark(pc, ctxs[s], Y[s], constraint, K)
                    else:
                        assert benchmark(pc, ctxs[s], Y[s], constraint, K) == refs[s]
                if np.inf in refs:
                    with pytest.raises(EmptyBenchmarkError):
                        benchmark(pc, ctxs, Y, constraint, K)
                else:
                    assert np.array_equal(benchmark(pc, ctxs, Y, constraint, K), refs)
            # no constraint or no budget: the whole class
            for args in ((), (constraint, None), (None, 0.0)):
                assert np.array_equal(benchmark(pc, ctxs, Y, *args),
                                      [v.min() for v in values])

    def test_refuses_negative_constraint_values(self):
        class Negative:
            def per_policy(self, policy_class, contexts):
                return -np.ones(policy_class.size)

        with pytest.raises(ValueError, match="nonnegative"):
            benchmark(two_constant_policies(), [0, 1], Y_EXAMPLE, Negative(), 1.0)

    def test_empty_class(self):
        empty = PolicyClass(two_constant_policies().table[[]], 2)
        with pytest.raises(EmptyBenchmarkError):
            benchmark(empty, [0, 1], Y_EXAMPLE)


class TestRegularizedErm:
    def test_zero_penalty_equals_exact(self):
        rng = np.random.default_rng(24)
        constraint = PairwiseDisagreement("uniform")
        for _ in range(30):
            pc = PolicyClass(rng.integers(0, 2, (5, 3)), 2)
            ctxs = rng.integers(0, 3, 4)
            Y = rng.uniform(-2, 2, (2, 4))
            q = RegularizedErmQuery(Y=Y, lambda_scaled=0.0, constraint=constraint)
            assert regularized_erm_value(pc, ctxs, q) == ExactErmOracle(pc)(ctxs, Y)

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
        q = RegularizedErmQuery(Y=np.zeros((2, 1)), lambda_scaled=-0.1, constraint=None)
        with pytest.raises(ValueError, match="lambda_scaled must be nonnegative"):
            regularized_erm_value(PolicyClass.all_labelings(2, 1), [0], q)


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

    def test_bad_edge_matrix_rejected(self):
        node = np.zeros((2, 2))
        metric = 1.0 - np.eye(2)
        with pytest.raises(ValueError, match=r"\(n, n\)"):
            mlc_bruteforce(node, np.zeros((2, 3)), metric)
        with pytest.raises(ValueError, match="nonnegative"):
            mlc_bruteforce(node, np.array([[0.0, -0.5], [-0.5, 0.0]]), metric)
        with pytest.raises(ValueError, match="symmetric"):
            mlc_bruteforce(node, np.array([[0.0, 0.5], [0.2, 0.0]]), metric)


class TestBoxRelaxation:
    def test_example_with_negative_entry(self):
        Y = np.array([[0.2, -0.5], [0.9, 0.1]])
        assert BoxRelaxedOracle()(None, Y) == pytest.approx(-0.5)

    def test_nonnegative_costs_give_zero(self):
        rng = np.random.default_rng(27)
        assert BoxRelaxedOracle()(None, rng.uniform(0, 1, (3, 5))) == 0.0

    def test_all_minus_one(self):
        assert BoxRelaxedOracle()(None, -np.ones((2, 7))) == pytest.approx(-7.0)

    def test_dominates_exact_erm(self):
        rng = np.random.default_rng(28)
        for _ in range(200):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(1, 9))
            pc = PolicyClass(rng.integers(0, d, (int(rng.integers(1, 9)), 3)), d)
            Y = rng.uniform(-2, 1, (d, n))
            ctxs = rng.integers(0, 3, n)
            assert BoxRelaxedOracle()(ctxs, Y) <= ExactErmOracle(pc)(ctxs, Y) + 1e-12

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
            sup_box = -BoxRelaxedOracle()(ctxs, -eps)
            sup_class = -ExactErmOracle(pc)(ctxs, -eps)
            assert sup_box >= sup_class - 1e-12
