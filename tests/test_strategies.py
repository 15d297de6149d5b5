import numpy as np
import pytest

from bistro import strategies
from bistro.adversarial import ExpWeightsRelaxation, ReductionStrategy
from bistro.environments import AdaptiveCosts, Environment, FixedTableCosts
from bistro.erm import BoxRelaxedOracle, ErmOracle, ExactErmOracle, RegularizedErmOracle
from bistro.erm import CoveragePenalty, PairwiseDisagreement
from bistro.policies import PolicyClass, ips_estimate
from bistro.runner import run_episode
from bistro.strategies import SIGN_SCALE, BistroStrategy, EpsilonGreedyStrategy, Strategy
from bistro.verify import minimax_value, policy_to_matrix, sequence_constraint, sequence_values
from bistro.waterfill import waterfill


class RecordingOracle(ErmOracle):
    """Pass-through wrapper keeping copies of every query; a stack is passed
    on and recorded query by query."""

    def __init__(self, inner):
        super().__init__()
        self.inner = inner
        self.policy_class = getattr(inner, "policy_class", None)
        self.queries = []

    def _values(self, contexts, Y):
        if Y.ndim == 3:
            return np.array([self._values(c, y) for c, y in zip(contexts, Y)])
        value = self.inner(contexts, Y)
        self.queries.append((np.array(contexts, copy=True), Y.copy(), value))
        return value


class RecordingDraws:
    """Pass-through wrapper of a strategy's generator keeping every count
    matrix its multinomial returns."""

    def __init__(self, rng):
        self.rng, self.counts = rng, []

    def multinomial(self, n, pvals):
        self.counts.append(self.rng.multinomial(n, pvals))
        return self.counts[-1]

    def shuffle(self, cells):
        self.rng.shuffle(cells)


def future_columns(counts, d):
    """A playout's future as columns, cell by cell in x-major order: contexts
    (k,) and signs (d, k) in {-1, +1}, bit j of pattern s the sign of row j."""
    cells = np.repeat(np.arange(counts.size), np.ravel(counts))
    return cells // 2**d, ((cells % 2**d) >> np.arange(d)[:, None] & 1) * 2.0 - 1.0


def scaled_history(tr, gamma) -> np.ndarray:
    """An episode's history gamma * c~_t as (d, n) columns, in ``update``'s
    float operations: gamma * (cost / q[action]) in the played row, 0 elsewhere."""
    Y = np.zeros((tr.d, tr.n))
    for t, (action, cost, q) in enumerate(zip(tr.actions, tr.observed_costs, tr.distributions)):
        Y[action, t] = gamma * ips_estimate(cost, action, q)
    return Y


def make_strategy(pc, gamma=0.25, oracle=None, **kwargs):
    return BistroStrategy(pc, oracle or ExactErmOracle(pc), gamma, **kwargs)


def make_reduction(pc, gamma=0.25):
    return ReductionStrategy(ExpWeightsRelaxation(pc, 4), gamma)


def make_egreedy(pc, gamma=0.25):
    return EpsilonGreedyStrategy(pc, gamma * pc.d)


# The two relaxation strategies share one learner and so its guards; so does
# epsilon-greedy, whose rate is epsilon/d.
LEARNERS = {"bistro": make_strategy, "reduction": make_reduction}
GUARDED = {**LEARNERS, "egreedy": make_egreedy}


def recorded_queries(n, rounds, seed=0):
    """Queries of a d=2 strategy over ``rounds``, where a round (x, action,
    cost) plays context x and then, if action is not None, updates with q =
    [0.25, 0.75]; cost 1 at probability 0.25 gives estimate 4, scaled to 1."""
    pc = PolicyClass.all_labelings(2, 2)
    recorder = RecordingOracle(ExactErmOracle(pc))
    strat = make_strategy(pc, gamma=0.25, oracle=recorder)
    strat.begin_episode(n, np.random.SeedSequence(seed), pool=np.array([0, 1]))
    for x, action, cost in rounds:
        strat.choose(x)
        if action is not None:
            strat.update(x, np.array([0.25, 0.75]), action, cost)
    return recorder.queries


class TestAssembleQueryMatrix:
    """Layout of the column query the strategy builds in place, as an oracle
    that does not fold sees it."""

    def test_first_round_with_future(self):
        queries = recorded_queries(2, [(0, None, None)], seed=0)
        # the strategy's seed spawns (counts, column order, oracle noise) streams;
        # the pool [0, 1] gives each of the 2 * 2^2 (context, pattern) cells 1/8
        count_ss = np.random.SeedSequence(0).spawn(3)[0]
        counts = np.random.default_rng(count_ss).multinomial(1, np.full(8, 1 / 8))
        ctx, signs = future_columns(counts, 2)
        assert len(queries) == 2
        for j, (contexts, Y, _) in enumerate(queries):
            np.testing.assert_array_equal(contexts, [0, *ctx])
            np.testing.assert_array_equal(Y, np.hstack([np.eye(2)[:, [j]], 2.0 * signs]))

    def test_last_round_no_future(self):
        queries = recorded_queries(2, [(0, 0, 1.0), (1, None, None)])
        np.testing.assert_array_equal(queries[3][1], [[1.0, 0.0], [0.0, 1.0]])

    def test_past_column_is_gamma_scaled(self):
        queries = recorded_queries(3, [(0, 0, 1.0), (1, None, None)])
        np.testing.assert_array_equal(queries[2][1][:, 0], [1.0, 0.0])


class LengthSpy(ErmOracle):
    """Pass-through wrapper keeping the longest query it was handed."""

    def __init__(self, inner):
        super().__init__()
        self.inner, self.longest = inner, 0

    def _values(self, contexts, Y):
        self.longest = max(self.longest, len(contexts))
        return self.inner(contexts, Y)


class TestFoldedPlayouts:
    def test_exact_queries_never_outgrow_the_universe(self):
        # n = 601 rounds, so k = n - t - 1 runs from 600 to 0 future rounds,
        # and no query carries more than one column per context
        rng = np.random.default_rng(43)
        d, n, playouts = 3, 601, 2
        pc = PolicyClass(rng.integers(0, d, (4, 5)), d)
        pool = rng.integers(0, 5, size=37)
        strat = make_strategy(pc, gamma=0.25, playouts=playouts)
        strat.oracle = spy = LengthSpy(strat.oracle)
        strat.begin_episode(n, np.random.SeedSequence(44), pool=pool)
        for t in range(n):
            q = strat.choose(int(pool[t % pool.size]))
            strat.update(int(pool[t % pool.size]), q, t % d, 0.5)
        assert spy.calls == d * playouts * n
        assert spy.longest == pc.universe_size

    def test_reduction_queries_never_outgrow_the_universe(self):
        # n = 600 rounds of history, and exp-weights is handed one loss per policy
        rng = np.random.default_rng(46)
        d, universe, n = 3, 5, 600
        pc = PolicyClass(rng.integers(0, d, (4, universe)), d)
        strat = make_reduction(pc, gamma=0.25)
        rel, widths = strat.relaxation, []

        def spy(losses, x):
            widths.append(len(losses))
            return ExpWeightsRelaxation.strategy(rel, losses, x)

        rel.strategy = spy
        env = Environment(np.ones(universe) / universe, FixedTableCosts(rng.uniform(0, 1, (n, d))))
        run_episode(strat, env, n, seed=47)
        assert len(widths) == n
        assert set(widths) == {pc.size}

    @pytest.mark.parametrize("learner", LEARNERS)
    def test_fold_queries_skip_the_id_check(self, learner, monkeypatch):
        # the fold queries hand over the class's own universe, which is priced
        # without checking its ids: no check ever sees |X| ids
        checked = []
        check = PolicyClass._checked_ids
        monkeypatch.setattr(PolicyClass, "_checked_ids",
                            lambda pc, ctxs: checked.append(len(ctxs)) or check(pc, ctxs))
        rng = np.random.default_rng(53)
        d, universe, n = 3, 5, 600
        pc = PolicyClass(rng.integers(0, d, (8, universe)), d)
        strat = LEARNERS[learner](pc, gamma=0.2)
        env = Environment(np.ones(universe) / universe, FixedTableCosts(rng.uniform(0, 1, (n, d))))
        run_episode(strat, env, n, seed=54)
        assert strat.oracle_calls == (d * n if learner == "bistro" else 0)
        assert universe not in checked
        assert len(checked) <= 1  # the pool's ids, once per episode

    @pytest.mark.parametrize("learner", ["bistro"])
    def test_fold_is_the_bincount_of_the_history(self, learner):
        # update's running Z equals the one-bincount fold of the episode's
        # columns gamma * c~_t on its contexts, bit for bit (the reduction
        # keeps no fold: its running losses are checked in test_adversarial)
        rng = np.random.default_rng(48)
        d, universe, n = 3, 5, 200
        pc = PolicyClass(rng.integers(0, d, (6, universe)), d)
        strat = LEARNERS[learner](pc, gamma=0.2)
        env = Environment(np.ones(universe) / universe, FixedTableCosts(rng.uniform(0, 1, (n, d))))
        tr = run_episode(strat, env, n, seed=9)
        keys = np.arange(d)[:, None] * universe + tr.contexts
        fold = np.bincount(keys.ravel(), weights=scaled_history(tr, 0.2).ravel(),
                           minlength=d * universe)
        assert np.array_equal(strat._Z, fold.reshape(d, universe))

    @pytest.mark.parametrize("learner", ["reduction", "bistro", "bistro-transductive"])
    def test_folded_state_does_not_grow_with_the_horizon(self, learner):
        # the fold is the whole history: nothing the strategy holds has n
        # entries, except the known sequence it is told in transductive mode
        d, universe, n = 2, 5, 100_000
        pc = PolicyClass.all_labelings(d, universe)
        mode = "transductive" if learner == "bistro-transductive" else "iid_pool"
        strat = (make_reduction(pc, 0.2) if learner == "reduction"
                 else make_strategy(pc, 0.2, mode=mode))
        contexts = np.arange(n) % universe
        strat.begin_episode(n, np.random.SeedSequence(5), pool=contexts, known_futures=contexts)
        big = {name for name, value in vars(strat).items()
               if isinstance(value, np.ndarray) and value.size >= n}
        assert big == ({"_known"} if mode == "transductive" else set())

    @pytest.mark.parametrize("oracle", ["box", "coverage"])
    def test_column_path_keeps_the_history_columns(self, oracle):
        # an oracle that does not fold gets the (n,) contexts and (d, n) columns,
        # round t's holding x_t and gamma * c~_t once the round is played
        rng = np.random.default_rng(57)
        d, universe, n, gamma = 2, 3, 40, 0.2
        pc = PolicyClass(rng.integers(0, d, (5, universe)), d)
        inner = (BoxRelaxedOracle() if oracle == "box" else RegularizedErmOracle(
            pc, CoveragePenalty([list(range(0, n, 2)), list(range(1, n, 2))], 1), 0.5))
        strat = make_strategy(pc, gamma, oracle=inner)
        assert not strat.folded
        env = Environment(np.ones(universe) / universe, FixedTableCosts(rng.uniform(0, 1, (n, d))))
        tr = run_episode(strat, env, n, seed=12)
        assert strat._ctx.shape == (n,) and strat._Y.shape == (d, n)
        assert np.array_equal(strat._ctx, tr.contexts)
        assert np.array_equal(strat._Y, scaled_history(tr, gamma))


class TestBistroRound:
    def test_two_policy_single_round_uniform(self):
        pc = PolicyClass(np.array([[0], [1]]), 2)
        for gamma in (0.1, 0.25, 0.5):
            strat = make_strategy(pc, gamma=gamma)
            strat.begin_episode(1, np.random.SeedSequence(0), pool=np.zeros(4, dtype=int))
            np.testing.assert_allclose(strat.choose(0), [0.5, 0.5], atol=1e-12)

    def test_singleton_class_concentrates(self):
        pc = PolicyClass(np.array([[0]]), 2)
        strat = make_strategy(pc, gamma=0.1)
        strat.begin_episode(1, np.random.SeedSequence(0), pool=np.zeros(4, dtype=int))
        np.testing.assert_allclose(strat.choose(0), [0.9, 0.1], atol=1e-12)

    def test_oracle_call_accounting(self):
        rng = np.random.default_rng(31)
        pc = PolicyClass(rng.integers(0, 3, (5, 4)), 3)
        n = 6
        for playouts in (1, 3):
            strat = make_strategy(pc, gamma=0.2, playouts=playouts)
            env = Environment(np.ones(4) / 4, FixedTableCosts(rng.uniform(0, 1, (n, 3))))
            run_episode(strat, env, n, seed=0)
            assert strat.oracle_calls == 3 * playouts * n

    def test_emitted_distributions_valid(self):
        rng = np.random.default_rng(32)
        pc = PolicyClass(rng.integers(0, 2, (6, 4)), 2)
        n, gamma = 12, 0.3
        strat = make_strategy(pc, gamma=gamma)
        env = Environment(np.ones(4) / 4, FixedTableCosts(rng.uniform(0, 1, (n, 2))))
        tr = run_episode(strat, env, n, seed=3)
        assert tr.distributions.min() >= gamma - 1e-12
        np.testing.assert_allclose(tr.distributions.sum(axis=1), 1.0, atol=1e-12)

    def test_determinism(self):
        rng = np.random.default_rng(33)
        pc = PolicyClass(rng.integers(0, 2, (4, 3)), 2)
        n = 8
        env = Environment(np.ones(3) / 3, FixedTableCosts(rng.uniform(0, 1, (n, 2))))
        runs = []
        for _ in range(2):
            strat = make_strategy(pc, gamma=0.25, playouts=2)
            runs.append(run_episode(strat, env, n, seed=11))
        assert np.array_equal(runs[0].distributions, runs[1].distributions)
        assert np.array_equal(runs[0].actions, runs[1].actions)
        assert np.array_equal(runs[0].observed_costs, runs[1].observed_costs)

    def test_transductive_equals_pool_on_singleton_universe(self):
        rng = np.random.default_rng(34)
        pc = PolicyClass(rng.integers(0, 2, (3, 1)), 2)
        n = 6
        env = Environment(np.ones(1), FixedTableCosts(rng.uniform(0, 1, (n, 2))))
        tr_pool = run_episode(make_strategy(pc, mode="iid_pool"), env, n, seed=5)
        tr_trans = run_episode(make_strategy(pc, mode="transductive"), env, n, seed=5)
        assert np.array_equal(tr_pool.distributions, tr_trans.distributions)
        assert np.array_equal(tr_pool.actions, tr_trans.actions)

    @pytest.mark.parametrize("learner", LEARNERS)
    def test_constructor_rejects_bad_arguments(self, learner):
        pc = PolicyClass(np.array([[0]]), 2)
        cases = [({"gamma": 0.0}, "gamma"), ({"gamma": 0.6}, "gamma")]
        if learner == "bistro":
            cases += [({"playouts": 0}, "playout"), ({"mode": "oracle"}, "mode")]
        for kwargs, match in cases:
            with pytest.raises(ValueError, match=match):
                LEARNERS[learner](pc, **kwargs)
        # the horizon is the episode's, told by begin_episode
        with pytest.raises(ValueError, match="horizon"):
            LEARNERS[learner](pc).begin_episode(-1, np.random.SeedSequence(0),
                                                pool=np.zeros(2, dtype=int))

    @pytest.mark.parametrize("learner", GUARDED)
    def test_episode_length_guards(self, learner):
        pc = PolicyClass(np.array([[0]]), 2)
        strat = GUARDED[learner](pc, gamma=0.25)
        strat.begin_episode(1, np.random.SeedSequence(0), pool=np.zeros(2, dtype=int))
        q = strat.choose(0)
        strat.update(0, q, 0, 1.0)
        with pytest.raises(ValueError, match="already complete"):
            strat.update(0, q, 0, 1.0)

    @pytest.mark.parametrize("pool", [None, np.zeros(0, dtype=int)], ids=["none", "empty"])
    def test_iid_pool_requires_a_pool(self, pool):
        strat = make_strategy(PolicyClass(np.array([[0]]), 2))
        with pytest.raises(ValueError, match="iid_pool mode requires a nonempty unlabeled pool"):
            strat.begin_episode(3, np.random.SeedSequence(0), pool=pool)

    def test_pool_of_floats_is_refused(self):
        # a float pool would otherwise be truncated to ids, 1.5 counted as context 1
        strat = make_strategy(PolicyClass(np.array([[0, 1]]), 2))
        with pytest.raises(ValueError, match="context ids must be integers; got dtype float64"):
            strat.begin_episode(3, np.random.SeedSequence(0), pool=np.array([0.0, 1.5, 1.0]))

    def test_transductive_requires_futures(self):
        pc = PolicyClass(np.array([[0]]), 2)
        strat = make_strategy(pc, mode="transductive")
        with pytest.raises(ValueError):
            strat.begin_episode(3, np.random.SeedSequence(0), pool=np.zeros(3, dtype=int))

    @pytest.mark.parametrize("learner", GUARDED)
    def test_estimate_magnitude_guard(self, learner):
        pc = PolicyClass(np.array([[0]]), 2)
        strat = GUARDED[learner](pc, gamma=0.25)
        strat.begin_episode(1, np.random.SeedSequence(0), pool=np.zeros(2, dtype=int))
        q = strat.choose(0)
        with pytest.raises(RuntimeError, match="1/gamma"):
            # claim the low-probability action was played with an inflated cost
            strat.update(0, np.array([1 - 1e-9, 1e-9]), 1, 1.0)
        assert q is not None

    def test_playout_average_is_mean_of_waterfills(self):
        rng = np.random.default_rng(35)
        pc = PolicyClass(rng.integers(0, 2, (4, 3)), 2)
        n, m = 3, 4
        strat = make_strategy(pc, gamma=0.25, playouts=m,
                              oracle=RecordingOracle(ExactErmOracle(pc)))
        strat.begin_episode(n, np.random.SeedSequence(9), pool=np.arange(3))
        q = strat.choose(1)
        psis = np.array([v for (_, _, v) in strat.oracle.queries]).reshape(m, 2)
        expected = np.mean([waterfill(p) for p in psis], axis=0)
        np.testing.assert_allclose(q, (1 - 0.5) * expected + 0.25, atol=1e-12)

    @pytest.mark.parametrize("playouts", [1, 3])
    def test_playout_average_is_the_running_sum_bit_for_bit(self, playouts, monkeypatch):
        # q* has the bytes of (0.0 + w_1 + ... + w_m) / m over the m water-fills
        spied = []
        monkeypatch.setattr(strategies, "waterfill",
                            lambda psi: spied.append(waterfill(psi)) or spied[-1])
        rng = np.random.default_rng(38)
        for trial in range(12):
            d, universe, n = trial % 4 + 1, 3, 16
            pc = PolicyClass(rng.integers(0, d, (6, universe)), d)
            oracle = BoxRelaxedOracle() if trial % 3 == 2 else ExactErmOracle(pc)
            strat = make_strategy(pc, gamma=0.5 / d, oracle=oracle, playouts=playouts,
                                  mode="transductive" if trial % 2 else "iid_pool")

            def checked(x, q_star=strat._q_star):
                spied.clear()
                q = q_star(x)
                total = 0.0
                for w in spied:
                    total = total + np.asarray(w)
                assert len(spied) == playouts
                assert np.asarray(q).tobytes() == (total / playouts).tobytes(), (trial, x)
                return q

            strat._q_star = checked
            costs = AdaptiveCosts(d) if trial % 2 else FixedTableCosts(rng.uniform(0, 1, (n, d)))
            run_episode(strat, Environment(np.ones(universe) / universe, costs), n, seed=trial)


class TestQueryMatrixInvariants:
    def test_past_and_future_column_ranges(self):
        for playouts in (1, 3):
            for mode in ("iid_pool", "transductive"):
                self.check_query_columns(playouts, mode)

    @staticmethod
    def check_query_columns(playouts, mode):
        rng = np.random.default_rng(36)
        d, n, gamma, sign_scale = 2, 10, 0.2, 2.0
        pc = PolicyClass(rng.integers(0, d, (5, 4)), d)
        recorder = RecordingOracle(ExactErmOracle(pc))
        strat = make_strategy(pc, gamma=gamma, oracle=recorder,
                              playouts=playouts, mode=mode)
        env = Environment(np.ones(4) / 4, FixedTableCosts(rng.uniform(0, 1, (n, d))))
        tr = run_episode(strat, env, n, seed=7)
        assert len(recorder.queries) == d * playouts * n
        scaled = np.stack([
            gamma * ips_estimate(tr.observed_costs[s], tr.actions[s], tr.distributions[s])
            * np.eye(d)[tr.actions[s]]
            for s in range(n)
        ], axis=1)
        for call, (ctx, Y, _) in enumerate(recorder.queries):
            t, j = call // (d * playouts), call % d
            past, current, future = Y[:, :t], Y[:, t], Y[:, t + 1 :]
            assert Y.shape == (d, n)
            assert np.array_equal(past, scaled[:, :t])
            assert past.min(initial=0.0) >= 0.0 and past.max(initial=0.0) <= 1.0
            assert np.array_equal(current, np.eye(d)[j])
            assert np.isin(future, [-sign_scale, sign_scale]).all()
            assert np.array_equal(ctx[: t + 1], tr.contexts[: t + 1])
            if mode == "transductive":
                assert np.array_equal(ctx, tr.contexts)
            if j > 0:
                # the d queries of one playout share the contexts and the future
                ctx0, Y0, _ = recorder.queries[call - j]
                assert np.array_equal(future, Y0[:, t + 1 :])
                assert np.array_equal(ctx, ctx0)
        # every playout draws a fresh future (9 rounds of it in round 0)
        firsts = recorder.queries[: d * playouts : d]
        for (ctx_a, Y_a, _), (ctx_b, Y_b, _) in zip(firsts, firsts[1:]):
            assert not np.array_equal(Y_a[:, 1:], Y_b[:, 1:])
            assert mode == "transductive" or not np.array_equal(ctx_a[1:], ctx_b[1:])

    @pytest.mark.parametrize("mode", ["iid_pool", "transductive"])
    @pytest.mark.parametrize("playouts", [1, 3])
    def test_folded_queries_hold_the_history_and_the_future_counts(self, mode, playouts):
        # An exact oracle's query is contexts 0..|X|-1 and Z_h + Z_f + e_{j,x}:
        # the gamma*c~ history folded by context, the future's 2*eps sums
        # (2H - m_x per context, H of m_x signs +1) and the current column.
        rng = np.random.default_rng(36)
        d, universe, n, gamma = 2, 4, 12, 0.2
        pc = PolicyClass(rng.integers(0, d, (5, universe)), d)
        strat = make_strategy(pc, gamma=gamma, playouts=playouts, mode=mode)
        assert strat.folded
        strat.oracle = recorder = RecordingOracle(strat.oracle)
        env = Environment(np.ones(universe) / universe,
                          FixedTableCosts(rng.uniform(0, 1, (n, d))))
        tr = run_episode(strat, env, n, seed=7)
        assert len(recorder.queries) == d * playouts * n
        Z_h = np.zeros((d, universe))
        for call, (ctx, Z, _) in enumerate(recorder.queries):
            t, j = call // (d * playouts), call % d
            if call % (d * playouts) == 0 and t > 0:  # round t - 1's column joins the history
                a = tr.actions[t - 1]
                Z_h[a, tr.contexts[t - 1]] += gamma * ips_estimate(
                    tr.observed_costs[t - 1], a, tr.distributions[t - 1])
            assert np.array_equal(ctx, np.arange(universe))
            future = (Z - Z_h - np.eye(d)[:, [j]] * np.eye(universe)[tr.contexts[t]]) / SIGN_SCALE
            sums = np.round(future)
            np.testing.assert_allclose(future, sums, rtol=0, atol=1e-9)
            k = n - t - 1
            if mode == "transductive":  # m_x is the known future's count of x
                m = np.bincount(tr.contexts[t + 1:], minlength=universe)
                assert (np.abs(sums) <= m).all() and ((sums - m) % 2 == 0).all()
            else:
                assert (np.abs(sums).sum(axis=1) <= k).all()
                assert (sums.sum(axis=1) % 2 == k % 2).all()
            if j == 0:
                playout_sums = sums
            assert np.array_equal(sums, playout_sums)  # the d queries share the future

    def test_box_values_below_exact_values_per_round(self):
        rng = np.random.default_rng(37)
        pc = PolicyClass(rng.integers(0, 2, (5, 4)), 2)
        n = 8
        recorder = RecordingOracle(BoxRelaxedOracle())
        strat = make_strategy(pc, gamma=0.2, oracle=recorder)
        env = Environment(np.ones(4) / 4, FixedTableCosts(rng.uniform(0, 1, (n, 2))))
        tr = run_episode(strat, env, n, seed=13)
        for ctx, Y, value in recorder.queries:
            assert value <= ExactErmOracle(pc)(ctx, Y) + 1e-12
        # with the box oracle all action prices coincide, so play is uniform
        np.testing.assert_allclose(tr.distributions, 0.5, atol=1e-12)

    def test_omitting_zero_candidate_changes_nothing(self):
        # Adding the zero column as a pricing candidate never improves the
        # adversary's side: the minimax value over {e_1..e_d} equals the value
        # over {e_1..e_d, 0}, checked by grid search.
        rng = np.random.default_rng(38)
        for _ in range(40):
            d = 2
            n = int(rng.integers(1, 5))
            pc = PolicyClass(rng.integers(0, d, (int(rng.integers(1, 7)), 3)), d)
            t = int(rng.integers(0, n))
            gamma = 0.25
            past_ctx, past = [], np.zeros((d, t))
            for s in range(t):
                past_ctx.append(int(rng.integers(0, 3)))
                j, value = int(rng.integers(0, d)), float(rng.uniform(0, 4))
                past[j, s] = gamma * value
            future_ctx = rng.integers(0, 3, n - t - 1)
            future = 2.0 * (rng.integers(0, 2, (d, n - t - 1)) * 2 - 1)
            ctx = np.concatenate([past_ctx, [1], future_ctx]).astype(int)

            def query(column):
                return np.concatenate([past, np.asarray(column)[:, None], future], axis=1)

            psi = np.array([ExactErmOracle(pc)(ctx, query(np.eye(d)[j])) for j in range(d)])
            psi0 = ExactErmOracle(pc)(ctx, query(np.zeros(d)))

            grid = np.linspace(0.0, 1.0, 2001)
            qs = np.stack([grid, 1.0 - grid], axis=1)
            without = (qs - psi[None, :]).max(axis=1)
            with_zero = np.maximum(without, -psi0)
            assert abs(without.min() - with_zero.min()) <= 1e-12
            q_star = waterfill(psi)
            assert max(minimax_value(q_star, psi), -psi0) <= without.min() + 1e-9


class TestRegularizedVariant:
    def test_lambda_zero_matches_plain_bitwise(self):
        rng = np.random.default_rng(39)
        pc = PolicyClass.all_labelings(2, 3)
        n = 6
        env = Environment(np.ones(3) / 3, FixedTableCosts(rng.uniform(0, 1, (n, 2))))
        constraint = PairwiseDisagreement("uniform")
        plain = make_strategy(pc, gamma=0.25)
        reg = make_strategy(pc, gamma=0.25,
                            oracle=RegularizedErmOracle(pc, constraint, 0.0))
        tr_a = run_episode(plain, env, n, seed=21)
        tr_b = run_episode(reg, env, n, seed=21)
        assert np.array_equal(tr_a.distributions, tr_b.distributions)
        assert np.array_equal(tr_a.actions, tr_b.actions)
        assert np.array_equal(tr_a.observed_costs, tr_b.observed_costs)

    def test_large_lambda_plays_like_constant_labelings(self):
        # with a huge penalty only constant labelings matter, so action prices
        # equal those computed over the two constant policies
        rng = np.random.default_rng(40)
        pc = PolicyClass.all_labelings(2, 2)
        constants = PolicyClass(np.array([[0, 0], [1, 1]]), 2)
        n = 4
        env = Environment(np.ones(2) / 2, FixedTableCosts(rng.uniform(0, 1, (n, 2))))
        reg = make_strategy(pc, gamma=0.25,
                            oracle=RegularizedErmOracle(pc, PairwiseDisagreement("uniform"), 1e6))
        plain_small = make_strategy(constants, gamma=0.25)
        tr_a = run_episode(reg, env, n, seed=2)
        tr_b = run_episode(plain_small, env, n, seed=2)
        np.testing.assert_allclose(tr_a.distributions, tr_b.distributions, atol=1e-12)

    def test_queries_reprice_in_round_pair_form(self):
        # Every query of a recorded episode, re-priced from forms that share
        # no fold code with the oracle: the gathered linear sum plus the
        # penalty summed over round pairs of each policy's one-hot matrix.
        # lambda is small enough that penalised policies win some queries.
        rng = np.random.default_rng(41)
        universe, n, gamma, lam = 4, 16, 0.25, 0.0025
        pc = PolicyClass.all_labelings(2, universe)
        W = rng.uniform(0, 1, (universe, universe))
        env = Environment(np.ones(universe) / universe,
                          FixedTableCosts(rng.uniform(0, 1, (n, 2))))
        for weights in ("uniform", W + W.T):
            constraint = PairwiseDisagreement(weights)
            recorder = RecordingOracle(RegularizedErmOracle(pc, constraint, lam / gamma))
            run_episode(make_strategy(pc, gamma=gamma, oracle=recorder), env, n, seed=4)
            assert len(recorder.queries) == 2 * n
            penalised_wins = 0
            for ctx, Y, value in recorder.queries:
                penalty = np.array([
                    sequence_constraint(constraint, policy_to_matrix(pc, f, ctx), ctx)
                    for f in range(pc.size)])
                totals = sequence_values(pc, ctx, Y) + lam / gamma * penalty
                assert abs(value - totals.min()) <= 1e-12
                penalised_wins += penalty[totals.argmin()] > 0
            assert penalised_wins > 0


class TestRecordingOracleStack:
    def test_stack_records_and_answers_as_sequential_calls(self):
        rng = np.random.default_rng(42)
        pc = PolicyClass(rng.integers(0, 2, (6, 3)), 2)
        ctxs, Y = rng.integers(0, 3, (5, 4)), rng.uniform(-1, 1, (5, 2, 4))
        stacked, sequential = RecordingOracle(ExactErmOracle(pc)), RecordingOracle(ExactErmOracle(pc))
        values = stacked(ctxs, Y)
        expected = [sequential(c, y) for c, y in zip(ctxs, Y)]
        assert values.tolist() == expected
        assert stacked.calls == sequential.calls == 5
        assert stacked.inner.calls == 5
        for (c_a, Y_a, v_a), (c_b, Y_b, v_b) in zip(stacked.queries, sequential.queries):
            assert np.array_equal(c_a, c_b) and np.array_equal(Y_a, Y_b) and v_a == v_b


class PrivateEpsilonGreedy(Strategy):
    """The body ``EpsilonGreedyStrategy`` had before it became the learner at
    gamma = epsilon/d, with its own losses, update and mixing; the reference
    for its bits."""

    def __init__(self, policy_class, epsilon):
        self.policy_class = policy_class
        self.epsilon = float(epsilon)
        self._losses = None

    def begin_episode(self, n, seed_seq, pool=None, known_futures=None):
        self._losses = np.zeros(self.policy_class.size)

    def choose(self, x):
        d = self.policy_class.d
        best = int(np.argmin(self._losses))
        q = np.full(d, self.epsilon / d)
        q[self.policy_class.table[best, x]] += 1.0 - self.epsilon
        return q

    def update(self, x, q, action, observed_cost):
        hit = self.policy_class.table[:, x] == action
        self._losses[hit] += ips_estimate(observed_cost, action, q)


class TestEpsilonGreedy:
    @pytest.mark.parametrize("epsilon", [0.0, -0.1, 1.5])
    def test_refuses_epsilon_outside_the_unit_interval(self, epsilon):
        with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\]"):
            EpsilonGreedyStrategy(PolicyClass.all_labelings(2, 2), epsilon)

    @pytest.mark.parametrize("costs", ["fixed", "adaptive"])
    def test_plays_the_private_body_bit_for_bit(self, costs):
        # q = mix(one-hot, epsilon/d) is the private epsilon/d + (1 - epsilon)
        # on the leader for every d here; the running losses are its losses
        rng = np.random.default_rng(41)
        n, universe = 24, 3
        for d in range(1, 9):
            pc = PolicyClass(rng.integers(0, d, (12, universe)), d)
            for epsilon in (0.05, 0.1, 0.2, 0.5, 1.0):
                for seed in range(3):
                    process = (FixedTableCosts(rng.uniform(0, 1, (n, d))) if costs == "fixed"
                               else AdaptiveCosts(d))
                    env = Environment(np.full(universe, 1 / universe), process)
                    learner = EpsilonGreedyStrategy(pc, epsilon)
                    private = PrivateEpsilonGreedy(pc, epsilon)
                    tr = run_episode(learner, env, n, seed)
                    ref = run_episode(private, env, n, seed)
                    case = (d, epsilon, seed)
                    assert tr.distributions.tobytes() == ref.distributions.tobytes(), case
                    assert tr.actions.tobytes() == ref.actions.tobytes(), case
                    assert learner._L.tobytes() == private._losses.tobytes(), case
