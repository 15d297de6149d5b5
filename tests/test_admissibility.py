import itertools
import math
import os

import numpy as np
import pytest

from bistro.admissibility import (
    RecursiveStep,
    _exact_mixed_q,
    check_bistro_admissibility,
    check_reduction_admissibility,
    playout_values,
)
from bistro.erm import (
    CoveragePenalty,
    ExactErmOracle,
    PairwiseDisagreement,
    RegularizedErmOracle,
)
from bistro.policies import CapacityError, PolicyClass, ips_estimate, mix_with_uniform
from bistro.runner import (
    build_environment,
    build_policy_class,
    load_config,
    make_strategy,
    relaxation,
    resolve_strategy_params,
)
from bistro.strategies import SIGN_SCALE, BistroStrategy
from bistro.verify import exact_regularized_bound, sequence_values
from bistro.waterfill import waterfill
from test_strategies import RecordingDraws, RecordingOracle, future_columns


CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


class TestBistroChecker:
    def test_two_policy_horizon_two(self):
        pc = PolicyClass(np.array([[0, 0], [1, 1]]), 2)
        report = check_bistro_admissibility(
            pc, [0.6, 0.4], n=2, gamma=0.25, seed=0, initial_checks=100
        )
        assert len(report.steps) == 2
        assert report.ok()
        assert report.initial.min_margin >= -1e-9

    def test_degenerate_single_round(self):
        # no playout at n=1: one future on each side, still must hold
        pc = PolicyClass(np.array([[0], [1]]), 2)
        report = check_bistro_admissibility(pc, [1.0], n=1, gamma=0.25, seed=1, initial_checks=50)
        assert report.ok()

    def test_capacity_guard(self):
        pc = PolicyClass.all_labelings(2, 2)
        with pytest.raises(CapacityError):
            check_bistro_admissibility(pc, [0.5, 0.5], n=4, gamma=0.25)
        with pytest.raises(CapacityError):
            check_bistro_admissibility(
                PolicyClass.all_labelings(2, 4), [0.25] * 4, n=2, gamma=0.25
            )

    @pytest.mark.parametrize("check", [check_bistro_admissibility,
                                       check_reduction_admissibility])
    def test_refuses_an_empty_horizon(self, check):
        pc = PolicyClass.all_labelings(2, 2)
        with pytest.raises(ValueError, match="at least one round; got n=0"):
            check(pc, [0.5, 0.5], n=0, gamma=0.25)

    @pytest.mark.parametrize("check", [check_bistro_admissibility,
                                       check_reduction_admissibility])
    @pytest.mark.parametrize("gamma", [0.0, -0.25, 0.5 + 1e-9, np.inf, np.nan])
    def test_refuses_a_rate_outside_the_floor_range(self, check, gamma):
        # mixing needs 0 < gamma <= 1/d (d = 2), refused before any query
        pc = PolicyClass.all_labelings(2, 2)
        with pytest.raises(ValueError, match=r"need gamma in \(0, 1/d\]"):
            check(pc, [0.5, 0.5], n=2, gamma=gamma, initial_checks=5)

    @pytest.mark.parametrize("check", [check_bistro_admissibility,
                                       check_reduction_admissibility])
    @pytest.mark.parametrize("count", [0, -1])
    def test_refuses_horizon_checks_that_check_nothing(self, check, count):
        pc = PolicyClass.all_labelings(2, 2)
        with pytest.raises(ValueError, match=f"initial_checks must be at least 1; got {count}"):
            check(pc, [0.5, 0.5], n=2, gamma=0.25, initial_checks=count)

    @pytest.mark.parametrize("check", [check_bistro_admissibility,
                                       check_reduction_admissibility])
    def test_refuses_a_negative_seed(self, check):
        pc = PolicyClass.all_labelings(2, 2)
        with pytest.raises(ValueError, match="^seed must be a non-negative integer; got -1$"):
            check(pc, [0.5, 0.5], n=2, gamma=0.25, seed=-1, initial_checks=5)

    def test_exact_mixed_q_matches_sequence_form(self):
        # every playout of the strategy's query [past | e_j | scale*eps], priced
        # one query at a time by the sequence-form reference
        rng = np.random.default_rng(12)
        gamma, scale = 0.2, 2.0
        for d, universe, n, k in [(2, 2, 3, 1), (3, 3, 2, 0), (2, 3, 3, 0), (3, 2, 3, 2)]:
            pc = PolicyClass(rng.integers(0, d, (5, universe)), d)
            probs = rng.dirichlet(np.ones(universe))
            realized, past = rng.integers(0, universe, k), rng.uniform(0, 1, (k, d))
            x, m = int(rng.integers(0, universe)), n - k - 1
            expected = np.zeros(d)
            for combo in itertools.product(range(universe), repeat=m):
                ctx = np.concatenate([realized, [x], combo]).astype(np.int64)
                for signs in itertools.product((-1.0, 1.0), repeat=d * m):
                    future = scale * np.reshape(signs, (d, m))
                    psi = np.array([
                        sequence_values(pc, ctx, np.hstack([past.T, np.eye(d)[:, [j]], future]))
                        .min() for j in range(d)])
                    expected += (np.prod(probs[list(combo)]) / 2 ** (d * m)
                                 * np.asarray(waterfill(psi)))
            got = _exact_mixed_q(ExactErmOracle(pc), probs, gamma, n, realized, past, x)
            np.testing.assert_allclose(got, mix_with_uniform(expected, gamma), rtol=0, atol=1e-12)

    def test_report_margins_have_slack(self):
        pc = PolicyClass.all_labelings(2, 2)
        report = check_bistro_admissibility(pc, [0.5, 0.5], n=3, gamma=0.25, seed=2,
                                            initial_checks=50)
        for step in report.steps:
            assert step.margin <= 1e-9

    def test_step_passes_only_within_tolerance(self):
        # both sides are exact: no allowance beyond rounding
        assert RecursiveStep(1, lhs=2.0, rhs=2.0 - 1e-10).passed()
        assert not RecursiveStep(1, lhs=2.0, rhs=2.0 - 1e-6).passed()

    @pytest.mark.parametrize("probs", [[0.5, 0.4], [0.6, 0.5], [1.2, -0.2], [np.nan, 1.0]])
    def test_refuses_bad_probabilities_before_pricing(self, probs):
        # sums 0.9 and 1.1, a negative entry and a NaN: refused before any query
        pc = PolicyClass.all_labelings(2, 2)
        spy = RecordingOracle(ExactErmOracle(pc))
        with pytest.raises(ValueError, match="nonnegative and sum to 1"):
            check_bistro_admissibility(pc, probs, n=2, gamma=0.25, oracle=spy, initial_checks=5)
        with pytest.raises(ValueError, match="nonnegative and sum to 1"):
            check_reduction_admissibility(pc, probs, n=2, gamma=0.25, initial_checks=5)
        assert spy.queries == []


def relaxation_config(algorithm: str) -> dict:
    """admissibility_small.json playing ``algorithm``, with the constraint,
    lambda and budget K the regularized relaxation needs."""
    config = load_config(os.path.join(CONFIG_DIR, "admissibility_small.json"))
    return {**config, "algorithm": algorithm, "lambda": 0.1, "K": 4,
            "constraint": {"type": "pairwise", "weights": "uniform"}}


PLAYOUT_RELAXATIONS = ["bistro", "bistro_relaxed", "bistro_regularized"]


class TestBoundIsRelaxationAtEmptyHistory:
    @pytest.mark.parametrize("algorithm", PLAYOUT_RELAXATIONS)
    def test_bound_matches_first_rhs(self, algorithm):
        # The bound is Rel(empty) at the gamma played, tuned or not; the
        # checker's first rhs is the same value, exact.
        config = relaxation_config(algorithm)
        pc = build_policy_class(config)
        env = build_environment(config, pc)
        for gamma in (0.1, 0.25, 0.5):
            params = resolve_strategy_params(
                {**config, "gamma": gamma, "tune_samples": 2000}, pc, env)
            oracle, budget = relaxation(config, pc, gamma)
            step = check_bistro_admissibility(pc, env.probs, config["n"], gamma, oracle=oracle,
                                              budget=budget, seed=1,
                                              initial_checks=1).steps[0]
            bound_se = params["bound_stderr"]
            if bound_se is None:  # a gamma-free complexity: its estimate's error
                bound_se = SIGN_SCALE * params["rad_stderr"] / gamma
            assert abs(params["bound"] - step.rhs) <= 3 * bound_se + 1e-9, (
                gamma, params["bound"], step.rhs)


@pytest.mark.parametrize("algorithm", PLAYOUT_RELAXATIONS)
def test_play_queries_price_the_checked_relaxation(algorithm):
    # Exact, one round: each of play's d queries, [gamma*c~ | e_j | 2*eps] as
    # columns or as their fold, has the value the checker's playout_values
    # gives the same history, current column and draws.
    config = relaxation_config(algorithm)
    pc = build_policy_class(config)
    env = build_environment(config, pc)
    n, d, gamma = config["n"], pc.d, 0.25
    strategy = make_strategy(config, pc, gamma)
    strategy.oracle = spy = RecordingOracle(strategy.oracle)
    strategy.begin_episode(n=n, seed_seq=np.random.SeedSequence(3), pool=np.array([0, 1, 1, 0]))
    q = strategy.choose(1)
    strategy.update(1, q, 0, 0.7)
    spy.queries.clear()
    strategy._count_rng = draws = RecordingDraws(strategy._count_rng)
    strategy.choose(0)  # round 2: one past column, the current one, m = 1 future

    oracle, _ = relaxation(config, pc, gamma)
    t = 1
    # the walk's units: history gamma*c/q on the played action, playouts 2*eps
    past = gamma * (0.7 / q[0]) * np.eye(d)[0]
    fut_ctx, fut_signs = future_columns(draws.counts[0], d)
    assert len(spy.queries) == d and strategy.folded == (algorithm == "bistro")
    for j, (ctx, Y, value) in enumerate(spy.queries):
        if strategy.folded:
            np.testing.assert_array_equal(ctx, np.arange(pc.universe_size))
            fold = np.zeros((d, pc.universe_size))  # contexts 1 (past), 0 (now), future
            fold[:, 1] += past
            fold[j, 0] += 1.0
            np.add.at(fold.T, fut_ctx, SIGN_SCALE * fut_signs.T)
            np.testing.assert_allclose(Y, fold, rtol=0, atol=1e-12)
        else:
            np.testing.assert_array_equal(ctx, [1, 0, *fut_ctx])
            np.testing.assert_array_equal(Y[:, 0], past)
            np.testing.assert_array_equal(Y[:, t], np.eye(d)[j])
            np.testing.assert_array_equal(Y[:, t + 1:], SIGN_SCALE * fut_signs)
        checked = playout_values(oracle, np.array([[1, 0]]), np.array([[past, np.eye(d)[j]]]),
                                 fut_ctx[None], fut_signs[None])
        assert checked.shape == (1, 1)
        assert value == pytest.approx(checked[0, 0], rel=1e-12, abs=1e-12)


class ScriptedDraws:
    """Stands in for a strategy's two generators: ``multinomial`` returns the
    scripted cell counts and records its arguments, ``shuffle`` puts the
    future's cells in the scripted order."""

    def __init__(self, counts, order):
        self.counts, self.order, self.args = counts, order, []

    def multinomial(self, n, pvals):
        self.args.append((n, np.array(pvals)))
        return self.counts[0] if np.ndim(n) == 0 else self.counts

    def shuffle(self, cells):
        assert len(cells) == len(self.order)
        cells[:] = cells[list(self.order)]


def count_atoms(totals, cells: int):
    """Every (len(totals), cells) count matrix whose row r sums to totals[r]."""
    rows = [[np.bincount(c, minlength=cells)
             for c in itertools.combinations_with_replacement(range(cells), m)] for m in totals]
    return [np.array(atom) for atom in itertools.product(*rows)]


def multinomial_pmf(counts, pvals) -> float:
    return math.factorial(int(counts.sum())) * math.prod(
        p**int(c) / math.factorial(int(c)) for p, c in zip(pvals, counts))


def mean_play(strategy, x: int, totals, cells: int) -> np.ndarray:
    """The strategy's E[q] at x (one playout), its draws enumerated exactly:
    every multinomial atom with its probability under the probabilities the
    strategy asks for, and every column order with probability 1/k!."""
    k = int(sum(totals))
    orders = [()] if strategy.folded else list(itertools.permutations(range(k)))
    mean = np.zeros(strategy.policy_class.d)
    for atom in count_atoms(totals, cells):
        for order in orders:
            draws = ScriptedDraws(atom, order)
            strategy._count_rng = strategy._order_rng = draws
            q = np.asarray(strategy.choose(x))
            (n, pvals), = draws.args
            assert np.array_equal(n, totals if np.ndim(n) else k)
            mean += math.prod(multinomial_pmf(row, pvals) for row in atom) / len(orders) * q
    return mean


CAPS_PENALTIES = {"exact": None, "pairwise": PairwiseDisagreement("uniform"),
                  "coverage": CoveragePenalty([[0, 1], [2]], 1)}


@pytest.mark.parametrize("penalty", sorted(CAPS_PENALTIES))
def test_mean_play_is_the_exact_mixed_q(penalty):
    # At the checker's caps (d = n = |X| = 3, |F| = 8) the folded draw's law,
    # enumerated atom by atom, gives play's mean q; it must equal the
    # checker's enumeration over every future sequence and sign pattern, fed
    # the pool's empirical distribution, at every round of a history.
    constraint, gamma = CAPS_PENALTIES[penalty], 0.2
    pc, d, n = PolicyClass(CAPS_CLASS, 3), 3, 3
    oracle = (ExactErmOracle(pc) if constraint is None
              else RegularizedErmOracle(pc, constraint, 1.0 * gamma))
    pool = np.array([0, 1, 1, 2, 2, 2, 0, 1, 2, 2])
    probs = np.bincount(pool) / pool.size
    strategy = BistroStrategy(pc, oracle, gamma)
    assert strategy.folded == (constraint is None)
    strategy.begin_episode(n, np.random.SeedSequence(8), pool=pool)
    contexts, history = [], np.zeros((n, d))  # the rows gamma * c~_t the updates feed
    for t, x in enumerate([2, 0, 1]):
        expected = _exact_mixed_q(oracle, probs, gamma, n, np.array(contexts, dtype=np.int64),
                                  history[:t].copy(), x)
        got = mean_play(strategy, x, [n - t - 1], pc.universe_size * 2**d)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        # cost 1 on the likeliest action, which the cheapest policies play
        action = int(np.argmax(expected))
        strategy.update(x, expected, action, 1.0)
        contexts.append(x)
        history[t, action] = gamma * ips_estimate(1.0, action, expected)


@pytest.mark.parametrize("penalty", ["exact", "coverage"])
def test_transductive_mean_play_averages_the_known_futures_signs(penalty):
    # Transductive play draws only the signs of the known future: per context,
    # multinomial counts of its rounds' sign patterns, placed on those rounds.
    # Its mean q must equal the average over every sign pattern of the known
    # future columns, priced by playout_values.
    constraint, gamma = CAPS_PENALTIES[penalty], 0.2
    pc, d, n = PolicyClass(CAPS_CLASS, 3), 3, 3
    oracle = (ExactErmOracle(pc) if constraint is None
              else RegularizedErmOracle(pc, constraint, 1.0 * gamma))
    known = np.array([1, 2, 0])
    strategy = BistroStrategy(pc, oracle, gamma, mode="transductive")
    strategy.begin_episode(n, np.random.SeedSequence(8), known_futures=known)
    history = np.zeros((n, d))  # the rows gamma * c~_t the updates feed
    for t in range(n):
        x, m = int(known[t]), n - t - 1
        bits = (np.arange(2 ** (d * m))[:, None] >> np.arange(d * m)) & 1
        signs = (bits * 2.0 - 1.0).reshape(len(bits), d, m)
        cols = np.concatenate([np.broadcast_to(history[:t], (d, t, d)),
                               np.eye(d)[:, None]], axis=1)
        psi = playout_values(oracle, np.broadcast_to(known[: t + 1], (d, t + 1)), cols,
                             np.repeat(known[None, t + 1:], len(signs), axis=0), signs)
        expected = mix_with_uniform(np.mean([waterfill(row) for row in psi], axis=0), gamma)
        got = mean_play(strategy, x, np.bincount(known[t + 1:], minlength=3), 2**d)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        action = int(np.argmin(expected))
        strategy.update(x, expected, action, 1.0)
        history[t, action] = gamma * ips_estimate(1.0, action, expected)


def test_horizon_benchmark_is_the_filtered_class():
    # Costly penalties (lambda = 10, K = 0) leave the relaxation only the
    # constant policies, so an endpoint whose cheap policy switches actions
    # (C > K) would fail against the whole class, but that policy is not in
    # the benchmark.
    pc = PolicyClass.all_labelings(2, 2)
    gamma, lam = 0.25, 10.0
    oracle = RegularizedErmOracle(pc, PairwiseDisagreement("uniform"), lam * gamma)
    failures = {}
    for constraint in (None, PairwiseDisagreement("uniform")):
        report = check_bistro_admissibility(pc, [0.5, 0.5], n=2, gamma=gamma, oracle=oracle,
                                            budget=0.0, constraint=constraint, K=0.0,
                                            seed=5, initial_checks=200)
        failures[constraint is None] = report.initial.failures
    assert failures[True] > 0
    assert failures[False] == 0


class TestReductionChecker:
    def test_exact_margins(self):
        pc = PolicyClass.all_labelings(2, 2)
        report = check_reduction_admissibility(
            pc, [0.6, 0.4], n=3, gamma=0.25, seed=3, initial_checks=100
        )
        assert all(s.margin <= 1e-9 for s in report.steps)
        assert report.initial.failures == 0

    def test_explicit_eta(self):
        pc = PolicyClass(np.array([[0, 1], [1, 0]]), 2)
        report = check_reduction_admissibility(
            pc, [0.5, 0.5], n=2, gamma=0.3, eta=0.5, seed=4, initial_checks=50
        )
        assert report.ok()


# Recorded reports: each step's (lhs, rhs), then the initial condition's
# min_margin and failures. The bistro entries are today's exact walk as
# float.hex, so a wrong mixed strategy or a misordered stack moves them. The
# reduction entries are floats recorded from the sequence-form checker (per-
# policy values gathered round by round) that the folded, stacked queries
# replaced, and must hold to 1e-12; the p(x)=0 one was recorded from its own
# walk, before the two checkers shared one.
D3_CLASS = np.array([[0, 1, 2], [2, 1, 0], [1, 1, 1], [0, 2, 1]])
# (policy class, probs, n, gamma) of the bistro entries
BISTRO_INSTANCES = {
    "bistro d=2 n=3": (PolicyClass.all_labelings(2, 2), [0.5, 0.5], 3, 0.25),
    "bistro d=3 n=2": (PolicyClass(D3_CLASS, 3), [0.5, 0.3, 0.2], 2, 0.2),
    "bistro p(x)=0": (PolicyClass.all_labelings(2, 2), [1.0, 0.0], 2, 0.25),
}
RECORDED = {
    "bistro d=2 n=3": (
        lambda: check_bistro_admissibility(*BISTRO_INSTANCES["bistro d=2 n=3"], seed=2,
                                           initial_checks=50),
        [("0x1.1300000000000p+3", "0x1.5c00000000000p+3"),
         ("0x1.5000000000000p+2", "0x1.0000000000000p+3"),
         ("0x1.6000000000000p-1", "0x1.1000000000000p+2")], "0x0.0p+0", 0),
    "bistro d=3 n=2": (
        lambda: check_bistro_admissibility(*BISTRO_INSTANCES["bistro d=3 n=2"], seed=7,
                                           initial_checks=100),
        [("0x1.007ae147ae148p+3", "0x1.8133333333333p+3"),
         ("0x1.0000000000000p+0", "0x1.d666666666666p+2")], "0x0.0p+0", 0),
    # Non-uniform future weights: the one entry a uniform mean over futures moves.
    "bistro d=3 n=3": (
        lambda: check_bistro_admissibility(PolicyClass(D3_CLASS, 3), [0.5, 0.3, 0.2], 3, 0.2,
                                           seed=7, initial_checks=50),
        [("0x1.923902de00d1ap+3", "0x1.f6e7ae147ae15p+3"),
         ("0x1.007ae147ae148p+3", "0x1.8133333333333p+3"),
         ("0x1.0000000000000p+0", "0x1.d666666666666p+2")], "0x0.0p+0", 0),
    "reduction d=3 n=3": (
        lambda: check_reduction_admissibility(
            PolicyClass(D3_CLASS, 3), [0.5, 0.3, 0.2], n=3, gamma=0.2, seed=5,
            initial_checks=300),
        [(13.45294310209739, 16.22026886600883), (10.449564957762584, 13.216890721674023),
         (6.3380825365414815, 9.112299513232328)], 5.286091393156799, 0),
    # A context of probability 0 gets its q but draws no futures.
    "bistro p(x)=0": (
        lambda: check_bistro_admissibility(*BISTRO_INSTANCES["bistro p(x)=0"], seed=3,
                                           initial_checks=50),
        [("0x1.4000000000000p+2", "0x1.c000000000000p+2"),
         ("0x1.8000000000000p-2", "0x1.0000000000000p+2")], "0x0.0p+0", 0),
    "reduction p(x)=0": (
        lambda: check_reduction_admissibility(
            PolicyClass(D3_CLASS, 3), [0.5, 0.0, 0.5], n=2, gamma=0.2, seed=6,
            initial_checks=100),
        [(9.658215611819031, 12.974100225154746), (6.114690555530346, 9.430575168866058)],
        4.7110121935068845, 0),
}


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_reports_match_sequence_form_checker(name):
    check, steps, min_margin, failures = RECORDED[name]
    report = check()
    if isinstance(min_margin, str):  # the exact walk, bit for bit
        assert [(s.lhs.hex(), s.rhs.hex()) for s in report.steps] == steps
        assert report.initial.min_margin.hex() == min_margin
    else:
        got = [(s.lhs, s.rhs) for s in report.steps]
        np.testing.assert_allclose(got, steps, rtol=1e-12, atol=0)
        assert report.initial.min_margin == pytest.approx(min_margin, rel=1e-12, abs=0)
    assert report.initial.failures == failures


# bistro_regularized at the checker's caps (d = n = |X| = 3, |F| = 8, lambda =
# 0.1, K = 4): every step's (lhs, rhs), then the horizon's min_margin and
# failures, as float.hex. Recorded with each relaxation value's weighted mean
# over the futures correctly rounded (math.fsum), so no entry depends on the
# BLAS thread count; the entries moved by at most 6.1e-14 from the checker
# that took that mean as one BLAS dot product.
CAPS_CLASS = [[1, 1, 2], [1, 2, 0], [1, 1, 0], [1, 1, 0], [0, 2, 0], [2, 2, 0], [0, 2, 0],
              [0, 2, 2]]
CAPS_RECORDED = {
    "pairwise": (
        PairwiseDisagreement("uniform"),
        [("0x1.920e30589487ep+3", "0x1.fdd645a1cac08p+3"),
         ("0x1.ee5c0cc9cb48ep+2", "0x1.7d0ed916872b0p+3"),
         ("0x1.210a8358564a0p+0", "0x1.c000000000000p+2")], "-0x1.0000000000000p-54", 0),
    "coverage": (
        CoveragePenalty([[0, 1], [2]], 1),
        [("0x1.8c8e9d4bdf98dp+3", "0x1.f804f5c28f5c2p+3"),
         ("0x1.ea8787b3be083p+2", "0x1.7a89ba5e353f8p+3"),
         ("0x1.199999999999ap+0", "0x1.bccccccccccccp+2")], "-0x1.0000000000000p-54", 0),
}


@pytest.mark.parametrize("name", sorted(CAPS_RECORDED))
def test_regularized_report_at_the_caps(name):
    constraint, steps, min_margin, failures = CAPS_RECORDED[name]
    pc, gamma, lam, K = PolicyClass(CAPS_CLASS, 3), 0.2, 0.1, 4
    oracle = RegularizedErmOracle(pc, constraint, lam * gamma)
    report = check_bistro_admissibility(pc, [0.5, 0.3, 0.2], 3, gamma, oracle=oracle,
                                        budget=lam * K, constraint=constraint, K=K, seed=4,
                                        initial_checks=20)
    assert [(s.lhs.hex(), s.rhs.hex()) for s in report.steps] == steps
    assert report.initial.min_margin.hex() == min_margin
    assert report.initial.failures == failures


@pytest.mark.parametrize("table", [[[0, 0], [1, 1]], [[0, 0], [1, 0], [0, 1], [1, 1]]])
def test_history_priced_in_relaxation_units(table):
    # Replays round 1 of the walk from its path stream, then enumerates step
    # 2's rhs exactly: E_{x_2, eps} sup_f -(c~_1[f(x_1)] + (2/gamma) eps[f(x_2)])
    # + d*gamma, with the history as the unscaled estimate c~_1 = c/q.
    pc = PolicyClass(np.array(table), 2)
    probs, gamma, n, seed, d = np.array([0.6, 0.4]), 0.25, 2, 102, pc.d
    report = check_bistro_admissibility(pc, probs, n=n, gamma=gamma, seed=seed, initial_checks=1)
    path_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    x1 = int(path_rng.choice(probs.size, p=probs))
    q1 = _exact_mixed_q(ExactErmOracle(pc), probs, gamma, n, np.empty(0, dtype=np.int64),
                        np.empty((0, d)), x1)
    c1 = path_rng.integers(0, 2, size=d).astype(float)
    y1 = int(path_rng.choice(d, p=q1))
    est = np.zeros(d)
    est[y1] = c1[y1] / q1[y1]
    exact = d * gamma
    for x2 in range(probs.size):
        for signs in itertools.product((-1.0, 1.0), repeat=d):
            Y = np.column_stack([est, 2.0 / gamma * np.array(signs)])
            exact -= probs[x2] / 2**d * sequence_values(pc, [x1, x2], Y).min()
    assert report.steps[1].rhs == pytest.approx(exact, rel=0, abs=1e-12)


@pytest.mark.parametrize("name", sorted(BISTRO_INSTANCES))
@pytest.mark.parametrize("algorithm", ["bistro", "bistro_regularized"])
def test_first_rhs_is_the_exact_bound(name, algorithm):
    # Step 1's rhs is Rel(empty history), which verify enumerates on its own:
    # lambda = 0 for bistro, the relaxation's lambda and K for bistro_regularized.
    pc, probs, n, gamma = BISTRO_INSTANCES[name]
    config = {"algorithm": algorithm, "constraint": {"type": "pairwise", "weights": "uniform"},
              "lambda": 0.1, "K": 4}
    oracle, budget = relaxation(config, pc, gamma)
    report = check_bistro_admissibility(pc, probs, n, gamma, oracle=oracle, budget=budget,
                                        initial_checks=1)
    lam = config["lambda"] if algorithm == "bistro_regularized" else 0.0
    exact = exact_regularized_bound(pc, probs, n, gamma, lam, config["K"],
                                    PairwiseDisagreement("uniform"))
    assert report.steps[0].rhs == pytest.approx(exact, rel=0, abs=1e-12)
