import json
import tracemalloc

import numpy as np
import pytest

from bistro import runner
from bistro.erm import ExactErmOracle, PairwiseDisagreement, RegularizedErmOracle
from bistro.policies import (
    CapacityError,
    PolicyClass,
    ips_estimate,
    mix_with_uniform,
)
from bistro.verify import bruteforce_erm, policy_to_matrix, sequence_values


def refusal(fn, *args):
    """The type and message of the exception ``fn(*args)`` raises."""
    with pytest.raises(Exception) as err:
        fn(*args)
    return type(err.value), str(err.value)


def class_config(doc):
    """A minimal config that holds the policy-class document ``doc``."""
    return {"d": doc["d"], "n": 1, "policy_class": doc, "cost_process": {"type": "adaptive"}}


def dyadic(rng, shape):
    """Entries k / 2^20 in [-2, 2]: float sums of them are exact in any order."""
    return rng.integers(-2 << 20, (2 << 20) + 1, size=shape) / (1 << 20)


class TestPolicyToMatrix:
    def test_constant_policy(self):
        M = policy_to_matrix(PolicyClass([[0, 0, 0]], 2), 0, [0, 1, 2])
        np.testing.assert_array_equal(M, [[1, 1, 1], [0, 0, 0]])

    def test_table_lookup(self):
        M = policy_to_matrix(PolicyClass([[1, 1], [0, 1]], 2), 1, [0, 1, 0])
        np.testing.assert_array_equal(M, [[1, 0, 1], [0, 1, 0]])

    def test_argmax_linear(self):
        pc = PolicyClass.argmax_linear([[[1.0, 0.0], [0.0, 1.0]]], [[0.3, 0.9]])
        M = policy_to_matrix(pc, 0, [0])
        np.testing.assert_array_equal(M, [[0], [1]])

    def test_context_outside_universe(self):
        pc = PolicyClass([[0, 1]], 2)
        for ctxs in ([0, 2], [-1]):
            with pytest.raises(ValueError):
                policy_to_matrix(pc, 0, ctxs)

    def test_one_hot_invariant_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            universe = int(rng.integers(1, 8))
            n = int(rng.integers(1, 12))
            pc = PolicyClass([rng.integers(0, d, universe)], d)
            M = policy_to_matrix(pc, 0, rng.integers(0, universe, n))
            assert M.shape == (d, n)
            np.testing.assert_array_equal(M.sum(axis=0), np.ones(n))
            assert set(np.unique(M)) <= {0.0, 1.0}


class TestPolicyCost:
    """One policy's cost sum_t Y[f(x_t), t], priced by ``PolicyClass.values``."""

    Y = np.array([[0.2, 0.5], [0.9, 0.1]])

    @staticmethod
    def cost(table, contexts, Y) -> float:
        return float(PolicyClass([table], len(Y)).values(contexts, Y)[0])

    def test_always_first_action(self):
        assert self.cost([0, 0], [0, 1], self.Y) == pytest.approx(0.7, abs=1e-12)

    def test_zero_costs(self):
        assert self.cost([1, 0], [0, 1], np.zeros((2, 2))) == 0.0

    def test_always_second_action(self):
        assert self.cost([1, 1], [0, 1], self.Y) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            self.cost([0, 0], [0, 1, 0], np.ones((2, 2)))

    def test_linearity_in_costs(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            d, n = int(rng.integers(2, 5)), int(rng.integers(1, 9))
            table, ctx = rng.integers(0, d, 4), rng.integers(0, 4, n)
            Y1, Y2 = rng.normal(size=(d, n)), rng.normal(size=(d, n))
            a, b = rng.normal(), rng.normal()
            lhs = self.cost(table, ctx, a * Y1 + b * Y2)
            rhs = a * self.cost(table, ctx, Y1) + b * self.cost(table, ctx, Y2)
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestMixWithUniform:
    def test_corner(self):
        np.testing.assert_allclose(
            mix_with_uniform(np.array([1.0, 0.0]), 0.1), [0.9, 0.1], atol=1e-15
        )

    def test_uniform_fixed_point(self):
        for d in (2, 3, 5):
            for gamma in (1e-4, 0.3 / d, 1.0 / d):
                q = mix_with_uniform(np.full(d, 1.0 / d), gamma)
                np.testing.assert_allclose(q, np.full(d, 1.0 / d), atol=1e-15)

    def test_three_action_example(self):
        q = mix_with_uniform(np.array([0.5, 0.5, 0.0]), 0.1)
        np.testing.assert_allclose(q, [0.45, 0.45, 0.1], atol=1e-15)

    def test_gamma_out_of_range(self):
        # a list is refused as its array is, with the same type and message
        for gamma in (0.0, -0.1, 0.51):
            with pytest.raises(ValueError):
                mix_with_uniform(np.array([1.0, 0.0]), gamma)
            assert (refusal(mix_with_uniform, [1.0, 0.0], gamma)
                    == refusal(mix_with_uniform, np.array([1.0, 0.0]), gamma))

    def test_rejects_points_off_the_simplex(self):
        # check_distribution's refusals, of an array and of its list alike
        for q_star, match in (([[0.5, 0.5]], "vector"), ([1.5, -0.5], "negative"),
                              ([0.5, 0.5 + 1e-9], "sums to"), ([np.nan, 1.0], "NaN"),
                              ([[0.5], [0.5]], "vector")):
            with pytest.raises(ValueError, match=match):
                mix_with_uniform(np.array(q_star), 0.1)
            assert (refusal(mix_with_uniform, q_star, 0.1)
                    == refusal(mix_with_uniform, np.array(q_star), 0.1))

    def test_floor_and_normalization(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            d = int(rng.integers(2, 9))
            q_star = rng.dirichlet(np.ones(d))
            gamma = rng.uniform(1e-6, 1.0 / d)
            q = np.asarray(mix_with_uniform(q_star, gamma))
            assert q.min() >= gamma - 1e-15
            assert abs(q.sum() - 1.0) <= 1e-12


class TestIpsEstimate:
    def test_formula(self):
        est = ips_estimate(0.8, 0, np.array([0.5, 0.5]))
        assert type(est) is float
        assert est == pytest.approx(1.6, abs=1e-15)

    def test_zero_cost(self):
        assert ips_estimate(0.0, 1, np.array([0.5, 0.5])) == 0.0

    def test_second_action(self):
        assert ips_estimate(1.0, 1, np.array([0.25, 0.75])) == pytest.approx(4.0 / 3.0, abs=1e-15)

    def test_zero_probability_guard(self):
        with pytest.raises(ValueError, match="zero probability"):
            ips_estimate(0.5, 0, np.array([0.0, 1.0]))
        assert refusal(ips_estimate, 0.5, 0, [0.0, 1.0]) == refusal(
            ips_estimate, 0.5, 0, np.array([0.0, 1.0]))

    @pytest.mark.parametrize("chosen", [-1, 2])
    def test_out_of_range_guard(self, chosen):
        with pytest.raises(ValueError, match="out of range"):
            ips_estimate(0.5, chosen, np.array([0.5, 0.5]))
        assert refusal(ips_estimate, 0.5, chosen, [0.5, 0.5]) == refusal(
            ips_estimate, 0.5, chosen, np.array([0.5, 0.5]))

    def test_unbiasedness(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            d = int(rng.integers(2, 7))
            q = mix_with_uniform(rng.dirichlet(np.ones(d)), 0.5 / d)
            c = rng.random(d)
            # the estimate's vector is the scalar on the chosen action's one-hot
            recon = sum(q[j] * ips_estimate(c[j], j, q) * np.eye(d)[j] for j in range(d))
            np.testing.assert_allclose(recon, c, atol=1e-12)


class TestPolicyClass:
    def test_all_labelings(self):
        pc = PolicyClass.all_labelings(2, 3)
        assert pc.size == 8
        tables = {tuple(pc.table[i]) for i in range(8)}
        assert len(tables) == 8

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_all_labelings_equal_the_digit_and_scatter_references(self, d):
        # policy c plays digit x of c in base d at context x, and its one-hot
        # row marks the cells j*|X| + x with j = f(x)
        for universe in range(7):
            pc = PolicyClass.all_labelings(d, universe)
            table = np.arange(d**universe)[:, None] // d ** np.arange(universe) % d
            onehot = np.zeros((pc.size, d * universe))
            onehot[np.arange(pc.size)[:, None], table * universe + np.arange(universe)] = 1.0
            assert pc.table.dtype == table.dtype and np.array_equal(pc.table, table)
            assert np.array_equal(pc.onehot, onehot)

    def test_table_and_onehot_are_c_ordered_and_read_only(self):
        # a product against a Fortran-ordered one-hot sums in another order
        classes = [PolicyClass.all_labelings(d, universe)
                   for d in range(1, 5) for universe in range(7)]
        empty = PolicyClass(np.empty((0, 3), dtype=int), 2)
        assert empty.onehot.shape == (0, 6)
        for pc in (*classes, empty):
            for array in (pc.table, pc.onehot):
                assert array.flags.c_contiguous and not array.flags.writeable

    @pytest.mark.parametrize("case", ["labelings-2-12", "labelings-3-7", "table", "empty"])
    def test_layouts_are_aligned_read_only_copies(self, case):
        # the one-hot starts on a 64-byte boundary, and it and the context-major
        # table and one-hot hold the bytes of the comparison-built one-hot, the
        # table's transpose and the one-hot's transpose
        pc = {"labelings-2-12": lambda: PolicyClass.all_labelings(2, 12),
              "labelings-3-7": lambda: PolicyClass.all_labelings(3, 7),
              "table": lambda: PolicyClass(np.random.default_rng(8).integers(0, 4, (37, 9)), 4),
              "empty": lambda: PolicyClass(np.empty((0, 3), dtype=int), 2)}[case]()
        onehot = (pc.table[:, None, :] == np.arange(pc.d)[:, None]).astype(float)
        onehot = onehot.reshape(pc.size, pc.d * pc.universe_size)
        for name, reference in (("onehot", onehot), ("by_context", pc.table.T),
                                ("by_cell", onehot.T)):
            array = getattr(pc, name)
            assert getattr(pc, name) is array, name
            assert name != "onehot" or array.ctypes.data % 64 == 0
            assert array.flags.c_contiguous and not array.flags.writeable, name
            assert array.dtype == reference.dtype and array.shape == reference.shape, name
            assert array.tobytes() == np.ascontiguousarray(reference).tobytes(), name

    def test_all_labelings_builds_its_table_once(self):
        # the class takes the table all_labelings builds: no copy of it is
        # ever alive beside it (4096 x 12 int64 entries, 393,216 bytes)
        tracemalloc.start()
        try:
            pc = PolicyClass.all_labelings(2, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * pc.table.nbytes

    @pytest.mark.parametrize("writeable", [True, False])
    def test_a_callers_table_is_copied_and_left_as_it_was(self, writeable):
        table = np.array([[0, 1, 1], [1, 0, 1]], dtype=np.int64)
        table.flags.writeable = writeable
        pc = PolicyClass(table, 2)
        assert not np.shares_memory(pc.table, table)
        assert table.flags.writeable == writeable and not pc.table.flags.writeable
        assert np.array_equal(pc.table, [[0, 1, 1], [1, 0, 1]])

    def test_rejects_bad_tables(self):
        for table, d, match in (([0, 1], 2, "table"), ([[0, 1]], 0, "d must"),
                                ([[0, 2]], 2, "action indices"), ([[-1, 0]], 2, "action indices")):
            with pytest.raises(ValueError, match=match):
                PolicyClass(table, d)

    def test_all_labelings_capacity(self):
        with pytest.raises(CapacityError):
            PolicyClass.all_labelings(10, 7)

    def test_from_json_tables_one_based(self):
        doc = {"d": 2, "universe": 3, "policies": [[1, 1, 2], [2, 1, 1]]}
        pc = runner.build_policy_class(class_config(doc))
        np.testing.assert_array_equal(pc.table, [[0, 0, 1], [1, 0, 0]])

    def test_from_json_universe_mismatch(self):
        with pytest.raises(ValueError):
            runner.build_policy_class(class_config({"d": 2, "universe": 4, "policies": [[1, 2]]}))

    def test_from_json_argmax_linear(self):
        weights = [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]]
        features = np.array([[0.3, 0.9], [0.8, 0.1]])
        pc = PolicyClass.argmax_linear(weights, features)
        np.testing.assert_array_equal(pc.table, [[1, 0], [0, 1]])
        # ties go to the lowest action
        pc = PolicyClass.argmax_linear([[[1.0], [1.0], [0.0]]], [[1.0], [-1.0]])
        np.testing.assert_array_equal(pc.table, [[0, 2]])

    def test_argmax_linear_rejects_bad_weights(self):
        bad = ([],                                            # no policies
               [[1.0, 0.0]],                                  # not a (d, p) matrix
               [[[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]],      # d differs
               [[[1.0], [2.0]]])                              # p differs from the features
        for weights in bad:
            with pytest.raises(ValueError):
                PolicyClass.argmax_linear(weights, [[0.3, 0.9]])

    def test_argmax_linear_requires_features(self):
        with pytest.raises(ValueError):
            PolicyClass.argmax_linear([[[1.0], [2.0]]], None)

    def test_json_round_trip(self):
        doc = json.loads(json.dumps({"d": 3, "universe": 2, "policies": [[3, 1]]}))
        pc = runner.build_policy_class(class_config(doc))
        assert pc.table[0, 0] == 2
        assert pc.actions_on([1]).tolist() == [[0]]

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


def pairwise_per_policy(pc, ids):
    """The uniform pairwise penalty of ``ids``, one per_policy call per row of a stack."""
    constraint = PairwiseDisagreement("uniform")
    if np.ndim(ids) == 2:
        return np.array([constraint.per_policy(pc, row) for row in ids])
    return constraint.per_policy(pc, ids)


def distinct_costs(pc, ids):
    """Y for ``ids`` with a distinct cost in every cell: (d, n), or (S, d, n) for a stack."""
    shape = np.shape(ids)
    return np.arange(pc.d * np.size(ids), dtype=float).reshape(shape[:-1] + (pc.d, shape[-1]))


# the three entry points that check context ids, each on one query or a stack
ID_ENTRY_POINTS = {
    "actions_on": lambda pc, ids: pc.actions_on(ids),
    "values": lambda pc, ids: pc.values(ids, distinct_costs(pc, ids)),
    "per_policy": pairwise_per_policy,
}
ID_DTYPES = (np.int8, np.int32, np.int64, np.uint8, np.uint64)
ID_UNIVERSE = 5


def id_layouts(dtype, rows):
    """The (2, 4) ids ``rows`` as a check meets them: a Python list, a
    contiguous array, a 2-D stack, and non-contiguous views of both, whose
    skipped entries hold the type's largest value, far outside the universe."""
    stack = np.array(rows, dtype)
    spread = np.full((2, 8), np.iinfo(dtype).max, dtype)
    spread[:, 1::2] = stack
    return {"list": stack[1].tolist(), "array": stack[1].copy(), "stack": stack,
            "strided": spread[1, 1::2], "strided stack": spread[:, 1::2],
            "transposed stack": np.ascontiguousarray(stack.T).T}


ON_EVERY_ENTRY_POINT = pytest.mark.parametrize("entry", sorted(ID_ENTRY_POINTS))
ON_EVERY_ID_TYPE = pytest.mark.parametrize("dtype", ID_DTYPES, ids=lambda t: np.dtype(t).name)


# ids that are not integers: each reads as a float or bool array
NON_INTEGER_IDS = {
    "float64": np.array([0.0, 2.0, 1.0]),
    "float32": np.array([0.9, 2.2, 1.0], np.float32),
    "bool": np.array([True, False, True]),
    "bool_list": [True, False, True],
    "float_in_a_list": [0, 2.0, 1],
}


class TestIdRangeCheck:
    """Every entry point refuses an id below 0 or from |X| on, in any integer
    type and layout, with one message, and prices in-range ids as int64 ones;
    ids that are not integers are refused, naming their dtype."""

    @ON_EVERY_ENTRY_POINT
    @ON_EVERY_ID_TYPE
    def test_in_range_ids_price_as_int64_ids(self, entry, dtype):
        pc, price = PolicyClass.all_labelings(2, ID_UNIVERSE), ID_ENTRY_POINTS[entry]
        for name, ids in id_layouts(dtype, [[0, 1, 2, 3], [4, 3, 1, 1]]).items():
            assert np.array_equal(price(pc, ids), price(pc, np.array(ids, np.int64))), name
        for empty in (np.zeros(0, dtype), np.zeros((2, 0), dtype), []):
            assert np.array_equal(price(pc, empty),
                                  price(pc, np.zeros(np.shape(empty), np.int64)))

    @ON_EVERY_ENTRY_POINT
    @ON_EVERY_ID_TYPE
    def test_ids_outside_the_universe_are_refused(self, entry, dtype):
        pc, price = PolicyClass.all_labelings(2, ID_UNIVERSE), ID_ENTRY_POINTS[entry]
        info = np.iinfo(dtype)
        bad_ids = {-1, int(info.min), ID_UNIVERSE, int(info.max)} - {0}
        for bad in sorted(b for b in bad_ids if info.min <= b <= info.max):
            for name, ids in id_layouts(dtype, [[0, 1, 2, 3], [4, 3, bad, 1]]).items():
                with pytest.raises(ValueError, match="context id outside the class's universe"):
                    price(pc, ids)

    @ON_EVERY_ENTRY_POINT
    def test_int_lists_beyond_int64_are_refused(self, entry):
        # NumPy reads these lists as float64 or object, yet every entry is an integer id
        pc = PolicyClass.all_labelings(2, ID_UNIVERSE)
        for ids in ([0, 2**63], [0, 2**64], [0, -2**63 - 1]):
            with pytest.raises(ValueError, match="context id outside the class's universe"):
                ID_ENTRY_POINTS[entry](pc, ids)

    @ON_EVERY_ENTRY_POINT
    def test_nested_int_lists_beyond_int64_are_refused(self, entry):
        # a stack read as float64 or object holds an integer id outside the universe
        pc = PolicyClass.all_labelings(2, ID_UNIVERSE)
        for ids in ([[0, 1], [2**63, 1]], [[0, 2**64], [1, 1]], [[1, 1], [0, -2**63 - 1]]):
            with pytest.raises(ValueError, match="context id outside the class's universe"):
                ID_ENTRY_POINTS[entry](pc, ids)

    @ON_EVERY_ENTRY_POINT
    def test_bools_among_int_ids_are_refused(self, entry):
        # NumPy reads these lists as int64, taking True and False for 1 and 0
        pc = PolicyClass.all_labelings(2, ID_UNIVERSE)
        for ids in ([True, 1], [0, False, 2], [np.True_, 1], [[0, 1], [True, 2]]):
            with pytest.raises(ValueError,
                               match="context ids must be integers; got a bool among them$"):
                ID_ENTRY_POINTS[entry](pc, ids)

    @ON_EVERY_ENTRY_POINT
    @pytest.mark.parametrize("kind", sorted(NON_INTEGER_IDS))
    def test_ids_that_are_not_integers_are_refused(self, entry, kind):
        pc, ids = PolicyClass.all_labelings(2, 3), NON_INTEGER_IDS[kind]
        dtype = np.asarray(ids).dtype
        with pytest.raises(ValueError, match=f"context ids must be integers; got dtype {dtype}$"):
            ID_ENTRY_POINTS[entry](pc, ids)


class TestFoldQuery:
    """``values`` on the class's own ``universe`` with Y (d, |X|): the query is its fold."""

    @staticmethod
    def playout_fold(rng, d, universe):
        # Z_h >= 0 (some cells unvisited), plus a future's sign sums and e_j, as play builds them
        history = rng.uniform(0, 3, (d, universe)) * (rng.random((d, universe)) < 0.7)
        Z = history + (rng.integers(-6, 7, (d, universe)) * 2.0).astype(float)
        Z[int(rng.integers(d)), int(rng.integers(universe))] += 1.0
        return Z

    def test_universe_is_a_cached_read_only_arange(self):
        pc = PolicyClass.all_labelings(2, 3)
        universe = pc.universe
        np.testing.assert_array_equal(universe, np.arange(3))
        assert pc.universe is universe
        assert not universe.flags.writeable

    def test_matches_the_bincount_path_bit_for_bit(self):
        rng = np.random.default_rng(51)
        for _ in range(500):
            d = int(rng.integers(1, 5))
            universe = int(rng.integers(1, 8))
            pc = PolicyClass(rng.integers(0, d, (int(rng.integers(1, 30)), universe)), d)
            Z = self.playout_fold(rng, d, universe)
            fresh = np.arange(universe)
            assert np.array_equal(pc.values(pc.universe, Z), pc.values(fresh, Z))
            for oracle in (ExactErmOracle(pc), RegularizedErmOracle(pc, None, 0.0)):
                assert oracle(pc.universe, Z) == oracle(fresh, Z)

    def test_rejects_wrong_shapes(self):
        pc = PolicyClass.all_labelings(2, 3)
        for shape in ((2, 4), (3, 3), (3, 2), (6,)):
            with pytest.raises(ValueError, match="a query needs"):
                pc.values(pc.universe, np.zeros(shape))

    def test_rejects_non_finite_folds(self):
        pc = PolicyClass.all_labelings(2, 3)
        for bad in (np.inf, -np.inf, np.nan):
            Z = np.zeros((2, 3))
            Z[1, 2] = bad
            with pytest.raises(ValueError, match="non-finite"):
                pc.values(pc.universe, Z)

    def test_other_contexts_take_the_bincount_path(self, monkeypatch):
        # |X| rounds on other arrays, even equal to the universe, are columns to fold
        checked = []
        check = PolicyClass._checked_ids
        monkeypatch.setattr(PolicyClass, "_checked_ids",
                            lambda pc, ctxs: checked.append(ctxs) or check(pc, ctxs))
        rng = np.random.default_rng(52)
        for trial in range(100):
            d, universe = int(rng.integers(1, 4)), int(rng.integers(2, 7))
            pc = PolicyClass(rng.integers(0, d, (int(rng.integers(1, 12)), universe)), d)
            ctxs = (np.arange(universe)[::-1] if trial % 3 == 0 else rng.permutation(universe)
                    if trial % 3 == 1 else np.arange(universe))
            Y = dyadic(rng, (d, universe))
            values = pc.values(ctxs, Y)
            assert checked[-1] is ctxs
            assert np.array_equal(values, sequence_values(pc, ctxs, Y))
            assert values.min() == bruteforce_erm(pc, ctxs, Y)


class TestValuesMany:
    """``values`` of a stack of queries: contexts (S, n) and Y (S, d, n)."""

    def stack(self, rng, pc, stack, n, costs):
        # ids from a prefix of the universe, so some contexts never occur
        top = int(rng.integers(1, pc.universe_size + 1))
        ctxs = rng.integers(0, top, (stack, n))
        return ctxs, costs(rng, (stack, pc.d, n))

    def test_equals_per_query_values(self):
        rng = np.random.default_rng(41)
        integer = lambda rng, shape: rng.integers(-3, 4, shape).astype(float)  # noqa: E731
        for costs in (integer, dyadic):
            for trial in range(60):
                d = int(rng.integers(1, 5))
                universe = int(rng.integers(1, 7))
                pc = PolicyClass(rng.integers(0, d, (int(rng.integers(1, 12)), universe)), d)
                for stack in (1, 2, 7):
                    for n in (0, 1, 5):
                        ctxs, Y = self.stack(rng, pc, stack, n, costs)
                        many = pc.values(ctxs, Y)
                        assert many.shape == (stack, pc.size)
                        for s in range(stack):
                            assert np.array_equal(many[s], pc.values(ctxs[s], Y[s]))

    def test_random_costs_within_rounding(self):
        rng = np.random.default_rng(42)
        pc = PolicyClass(rng.integers(0, 3, (40, 6)), 3)
        for stack in (1, 2, 7):
            ctxs, Y = self.stack(rng, pc, stack, 30, lambda rng, shape: rng.normal(size=shape))
            many = pc.values(ctxs, Y)
            for s in range(stack):
                np.testing.assert_allclose(many[s], pc.values(ctxs[s], Y[s]), rtol=0, atol=1e-12)

    def test_list_contexts(self):
        pc = PolicyClass(np.array([[0, 1, 1], [1, 0, 0]]), 2)
        ctxs = [[0, 2], [1, 1]]
        Y = np.arange(8.0).reshape(2, 2, 2)
        many = pc.values(ctxs, Y)
        np.testing.assert_array_equal(many, [pc.values(c, y) for c, y in zip(ctxs, Y)])

    def test_rejects_bad_shapes(self):
        pc = PolicyClass.all_labelings(2, 3)
        ctxs = np.zeros((2, 4), dtype=np.int64)
        for shape in ((2, 2, 3), (3, 2, 4), (2, 3, 4), (2, 4), (2, 2, 4, 1)):
            with pytest.raises(ValueError):
                pc.values(ctxs, np.zeros(shape))
        for bad_ctxs in (np.zeros(4, dtype=np.int64), [[0, 1], [0]]):
            with pytest.raises(ValueError):
                pc.values(bad_ctxs, np.zeros((2, 2, 2)))

    def test_rejects_out_of_universe_ids_in_any_query(self):
        pc = PolicyClass.all_labelings(2, 3)
        for s in range(3):
            for bad in (3, -1):
                ctxs = np.zeros((3, 2), dtype=np.int64)
                ctxs[s, 1] = bad
                with pytest.raises(ValueError):
                    pc.values(ctxs, np.zeros((3, 2, 2)))

    def test_rejects_non_finite_costs(self):
        pc = PolicyClass.all_labelings(2, 3)
        for bad in (np.inf, -np.inf, np.nan):
            Y = np.zeros((3, 2, 2))
            Y[2, 1, 0] = bad
            with pytest.raises(ValueError):
                pc.values(np.zeros((3, 2), dtype=np.int64), Y)


def entrywise_values(pc, contexts, Y):
    """``PolicyClass.values`` as it was when every fold entry was tested with
    ``np.isfinite``, before the sum of the fold was tested first; the
    reference for the fast test's prices and refusals."""
    Y = np.asarray(Y, dtype=float)
    if contexts is pc.universe and Y.shape == (pc.d, pc.universe_size):
        z = Y.ravel()
    else:
        ids = pc._checked_ids(contexts)
        cells = pc.d * pc.universe_size
        if ids.ndim == 1 and Y.shape == (pc.d, ids.size):
            queries, keys = 1, pc._key_offsets + ids
        elif ids.ndim == 2 and Y.shape == (len(ids), pc.d, ids.shape[1]):
            queries = len(ids)
            keys = np.arange(queries)[:, None, None] * cells + pc._key_offsets + ids[:, None, :]
        else:
            raise ValueError("a query needs contexts (n,) and Y (d, n), a stack contexts (S, n) "
                             "and Y (S, d, n)")
        z = np.bincount(keys.ravel(), weights=Y.ravel(), minlength=queries * cells)
        if ids.ndim == 2:
            z = z.reshape(queries, cells)
    if not np.isfinite(z).all():
        raise ValueError("cost matrix folds to non-finite context sums")
    return pc.onehot @ z if z.ndim == 1 else z @ pc.onehot.T


def priced(values, pc, contexts, Y):
    """A query's outcome: its values' bytes, or the refusal's type and message."""
    try:
        return values(pc, contexts, Y).tobytes()
    except (ValueError, FloatingPointError) as exc:
        return type(exc), str(exc)


class TestFiniteCheck:
    """``values`` tests the fold's sum first and its entries only when that sum
    is not finite: the same prices and refusals as the entrywise test."""

    @staticmethod
    def shapes(pc, rng, n):
        """A fold, a column and a stacked query on ``pc``, with dyadic costs."""
        ctxs = rng.integers(0, pc.universe_size, n)
        stack = rng.integers(0, pc.universe_size, (3, n))
        return {"fold": (pc.universe, dyadic(rng, (pc.d, pc.universe_size))),
                "column": (ctxs, dyadic(rng, (pc.d, n))),
                "stack": (stack, dyadic(rng, (3, pc.d, n)))}

    def test_overflowing_sums_price_as_the_entrywise_test(self):
        # two 1e308 cells of one context, one per action: every policy reads one
        # of them, so each value is finite while the fold's sum overflows
        pc = PolicyClass.all_labelings(2, 3)
        for big in (1e308, -1e308):
            queries = self.shapes(pc, np.random.default_rng(62), 4)
            ctx, Y = queries["fold"]
            Y[:, 1] = big
            ctx, Y = queries["column"]
            ctx[:2] = 1
            Y[0, 0] = Y[1, 1] = big
            ctx, Y = queries["stack"]  # one big cell in each of two queries
            ctx[0, 0] = ctx[2, 0] = 1
            Y[0, 0, 0] = Y[2, 1, 0] = big
            for shape, (ctx, Y) in queries.items():
                with np.errstate(all="raise", under="ignore"):
                    values = pc.values(ctx, Y)  # no refusal, no floating-point error
                    assert values.tobytes() == entrywise_values(pc, ctx, Y).tobytes(), shape
                assert np.isfinite(values).all() and np.abs(values).max() >= 1e308, shape

    def test_non_finite_entries_refused_on_every_shape(self):
        pc = PolicyClass.all_labelings(2, 3)
        for bad in ((np.inf,), (-np.inf,), (np.nan,), (np.inf, -np.inf), (1e308, np.inf)):
            for shape, (ctx, Y) in self.shapes(pc, np.random.default_rng(63), 4).items():
                Y.ravel()[:len(bad)] = bad
                for errors in ("ignore", "raise"):  # as in the library and in run_suite
                    with np.errstate(all=errors, under="ignore"):
                        with pytest.raises(ValueError, match="non-finite"):
                            pc.values(ctx, Y)

    def test_random_queries_price_as_the_entrywise_test(self):
        rng = np.random.default_rng(64)
        specials = (np.inf, -np.inf, np.nan, 1e308, -1e308, 9e307)
        for _ in range(300):
            d, universe = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            pc = PolicyClass(rng.integers(0, d, (int(rng.integers(1, 10)), universe)), d)
            for ctx, Y in self.shapes(pc, rng, int(rng.integers(0, 6))).values():
                flat = Y.reshape(-1)  # a view: up to 3 entries become special values
                cells = rng.integers(0, flat.size, int(rng.integers(0, 4))) if flat.size else []
                for cell in cells:
                    flat[cell] = specials[int(rng.integers(len(specials)))]
                with np.errstate(all="ignore"):
                    assert priced(PolicyClass.values, pc, ctx, Y) == priced(
                        entrywise_values, pc, ctx, Y)
