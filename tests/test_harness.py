import dataclasses
import json
import os
import re

import numpy as np
import pytest

from bistro import config as config_table, erm, runner
from bistro.environments import (
    AdaptiveCosts,
    CostProcess,
    Environment,
    FixedTableCosts,
    IidBernoulliCosts,
)
from bistro.policies import PolicyClass, check_cost_vector
from bistro.runner import (
    Transcript,
    episode_csv_lines,
    expected_regret,
    load_config,
    benchmark_value,
    build_policy_class,
    draw_action,
    make_strategy,
    run_episode,
    run_suite,
)
from bistro.strategies import SIGN_SCALE, Strategy, UniformStrategy
from test_golden import CASES as GOLDEN_CASES
from test_policies import refusal

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

# every golden case, and the two learners no golden plays
REUSE_CASES = {**GOLDEN_CASES,
               "fixed_adversarial_egreedy": ("fixed_adversarial.json", {"algorithm": "egreedy"}),
               "fixed_adversarial_uniform": ("fixed_adversarial.json", {"algorithm": "uniform"})}


def small_config(**overrides):
    config = {
        "d": 2,
        "n": 8,
        "horizon_mode": "iid_pool",
        "context_dist": "uniform",
        "policy_class": {"d": 2, "universe": 2, "family": "all_labelings"},
        "cost_process": {"type": "fixed_table",
                         "values": [[0.1, 0.9]] * 4 + [[0.8, 0.3]] * 4},
        "algorithm": "bistro",
        "gamma": 0.25,
    }
    config.update(overrides)
    return config


class TestRunEpisode:
    def test_uniform_expected_cost_closed_form(self):
        n = 4
        values = np.array([[0.1, 0.9], [0.4, 0.2], [1.0, 0.0], [0.5, 0.5]])
        env = Environment(np.ones(2) / 2, FixedTableCosts(values))
        # expected cumulative cost is the sum of per-round means, every seed
        for seed in range(5):
            tr = run_episode(UniformStrategy(2), env, n, seed)
            assert tr.expected_total == pytest.approx(values.mean(axis=1).sum())
        # realized cost agrees in the mean over seeds
        realized = [float(run_episode(UniformStrategy(2), env, n, s).observed_costs.sum())
                    for s in range(10_000)]
        mean, se = np.mean(realized), np.std(realized, ddof=1) / 100
        assert abs(mean - values.mean(axis=1).sum()) <= 3 * se

    def test_empty_episode(self):
        env = Environment(np.ones(2) / 2, FixedTableCosts(np.empty((0, 2))))
        tr = run_episode(UniformStrategy(2), env, 0, seed=0)
        assert tr.n == 0
        assert expected_regret(tr, PolicyClass.all_labelings(2, 2)) == 0.0

    def test_adaptive_rule_sees_only_the_allowed_history(self):
        # round t's commit is told (t, x_t); the one observe before commit
        # t + 1 is told the transcript's q_t and a_t
        calls = []

        class Spy(CostProcess):
            d = 2

            def commit(self, t, x):
                calls.append(("commit", t, x))
                return np.array([0.0, 1.0]) if t % 2 else np.array([1.0, 0.0])

            def observe(self, q, action):
                calls.append(("observe", list(q), action))

        n = 5
        strategy = make_strategy(small_config(n=n), PolicyClass.all_labelings(2, 2), 0.25)
        tr = run_episode(strategy, Environment(np.ones(2) / 2, Spy()), n, seed=1)
        assert calls == [call for t in range(n) for call in (
            ("commit", t, tr.contexts[t]),
            ("observe", tr.distributions[t].tolist(), tr.actions[t]))]
        assert len({tuple(q) for q in tr.distributions.tolist()}) > 1

    def test_argmax_punish_costs_are_committed_pre_action(self):
        env = Environment(np.ones(2) / 2, AdaptiveCosts(d=2))
        tr = run_episode(UniformStrategy(2), env, 6, seed=2)
        tr.validate()
        np.testing.assert_array_equal(tr.cost_vectors.sum(axis=1), np.ones(6))

    @pytest.mark.parametrize("algorithm", ["bistro", "adversarial_reduction"])
    def test_argmax_punish_running_totals_are_the_resummed_rule(self, algorithm):
        # each round, over three episodes on one process: the running totals
        # at commit equal the transcript's past q rows summed afresh, bit for
        # bit, and so does the vector
        config = load_config(os.path.join(CONFIG_DIR, "adaptive_adversary.json"))
        config["algorithm"] = algorithm
        pc = runner.build_policy_class(config)
        env = runner.build_environment(config, pc)
        gamma = runner.resolve_strategy_params(config, pc, env)["gamma"]
        process, seen, same = env.cost_process, [], []
        running = process.commit

        def commit(t, x):
            c = running(t, x)
            seen.append((list(process._totals), c))
            return c

        process.commit = commit
        for seed in range(3):
            tr = run_episode(make_strategy(config, pc, gamma), env, config["n"], seed)
            for t, (totals, c) in enumerate(seen):
                resummed = tr.distributions[:t].sum(axis=0)
                expected = np.zeros(2)
                expected[int(np.argmax(resummed))] = 1.0
                same.append(np.array_equal(totals, resummed) and np.array_equal(c, expected))
            seen.clear()
        assert len(same) == 3 * config["n"] and all(same)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_argmax_punish_matches_the_numpy_running_sum(self, d):
        # 2,000 rounds in episodes of 1 to 60: the Python-float totals equal
        # a NumPy running sum in round order, and the charged action is
        # np.argmax's first maximum, bit for bit; q in quarters makes ties
        rng = np.random.default_rng(60 + d)
        process, rounds, ties = AdaptiveCosts(d), 0, 0
        while rounds < 2000:
            n = int(rng.integers(1, 61))
            qs = np.where(rng.random((n, 1)) < 0.8, rng.multinomial(4, np.ones(d) / d, n) / 4,
                          rng.dirichlet(np.ones(d), n))
            process.begin(rng, n)
            totals = np.zeros(d)
            for t in range(n):
                c = process.commit(t, 0)
                expected = np.zeros(d)
                expected[np.argmax(totals)] = 1.0
                assert np.array_equal(process._totals, totals) and np.array_equal(c, expected)
                ties += int((totals == totals.max()).sum() > 1)
                process.observe(qs[t], 0)
                totals += qs[t]
            rounds += n
        assert ties > 100

    def test_bernoulli_costs(self):
        means = np.array([[0.0, 1.0], [1.0, 0.0]])
        env = Environment(np.ones(2) / 2, IidBernoulliCosts(means))
        tr = run_episode(UniformStrategy(2), env, 20, seed=3)
        np.testing.assert_array_equal(
            tr.cost_vectors, means[tr.contexts]
        )

    def test_environment_rejects_bad_arguments(self):
        costs = FixedTableCosts(np.tile([0.5, 0.5], (4, 1)))
        for probs, pool_factor, match in (([], 10, "nonempty"), ([[0.5, 0.5]], 10, "nonempty"),
                                          ([0.7, 0.7], 10, "sum to 1"),
                                          ([1.5, -0.5], 10, "nonnegative"),
                                          ([0.5, 0.5], 0, "pool_factor")):
            with pytest.raises(ValueError, match=match):
                Environment(probs, costs, pool_factor=pool_factor)

    def test_strategy_environment_mismatch(self):
        pc = PolicyClass.all_labelings(2, 3)  # universe of 3
        env = Environment(np.ones(2) / 2, FixedTableCosts(np.tile([0.5, 0.5], (4, 1))))
        strat = make_strategy(small_config(n=4), pc, gamma=0.25)
        with pytest.raises(ValueError, match="universe"):
            run_episode(strat, env, 4, seed=0)
        pc3 = PolicyClass.all_labelings(3, 2)  # three actions
        strat3 = make_strategy(small_config(n=4, d=3, gamma=0.2), pc3, gamma=0.2)
        with pytest.raises(ValueError, match="actions"):
            run_episode(strat3, env, 4, seed=0)

    def test_action_draw_is_choices_draw(self):
        source = np.random.default_rng(45)
        mine, numpys = np.random.default_rng(46), np.random.default_rng(46)
        for i in range(20_000):
            d = 1 + i % 8
            q = source.dirichlet(np.ones(d))
            if i % 5 == 0:  # exact zeros, and a sum off 1 inside choice's tolerance
                q[source.integers(0, d, size=d // 2)] = 0.0
                q = q / q.sum() * (1 + 1e-9)
            assert draw_action(mine, q, d) == int(numpys.choice(d, p=q))
        assert mine.bit_generator.state == numpys.bit_generator.state

    @pytest.mark.parametrize("q", [[-0.1, 1.1], [np.nan, 1.0], [0.5, 0.6], [0.5, 0.5 + 1e-6],
                                   [1.0], [0.2, 0.3, 0.5], [[0.5, 0.5]]])
    def test_action_draw_refuses_bad_distributions(self, q):
        # a learner's list is refused as its array is, with the same type and message
        def play(form):
            class FixedQ(UniformStrategy):
                def choose(self, x):
                    return form(q)

            env = Environment(np.ones(2) / 2, FixedTableCosts(np.full((2, 2), 0.5)))
            run_episode(FixedQ(2), env, 2, seed=0)

        with pytest.raises(ValueError):
            play(np.array)
        assert refusal(play, list) == refusal(play, np.array)


class TestRegret:
    def test_best_policy_played_deterministically_has_zero_regret(self):
        pc = PolicyClass(np.array([[0, 1]]), 2)
        values = np.tile([0.2, 0.7], (6, 1))
        env = Environment(np.ones(2) / 2, FixedTableCosts(values))

        class PlaysTheClass(Strategy):  # the class's one policy, with probability 1
            def choose(self, x):
                return np.eye(2)[pc.table[0, x]]

        tr = run_episode(PlaysTheClass(), env, 6, seed=4)
        assert expected_regret(tr, pc) == pytest.approx(0.0, abs=1e-12)

    def test_negative_regret_example(self):
        # singleton class always plays action 1 while costs charge only action 1
        n = 10
        pc = PolicyClass(np.array([[0, 0]]), 2)
        env = Environment(np.ones(2) / 2, FixedTableCosts(np.tile([1.0, 0.0], (n, 1))))
        tr = run_episode(UniformStrategy(2), env, n, seed=5)
        assert expected_regret(tr, pc) == pytest.approx(-n / 2)

    def test_realized_matches_expected_in_the_mean(self):
        n = 6
        pc = PolicyClass.all_labelings(2, 2)
        env = Environment(np.ones(2) / 2, FixedTableCosts(np.tile([0.3, 0.8], (n, 1))))
        exp, real = [], []
        for seed in range(3000):
            tr = run_episode(UniformStrategy(2), env, n, seed)
            exp.append(expected_regret(tr, pc))
            real.append(float(tr.observed_costs.sum()) - benchmark_value(tr, pc))
        se = np.std(np.array(real) - np.array(exp), ddof=1) / np.sqrt(len(real))
        assert abs(np.mean(real) - np.mean(exp)) <= 3 * se + 1e-12

    def test_regret_identity(self):
        config = small_config()
        pc = PolicyClass.all_labelings(2, 2)
        env = Environment(np.ones(2) / 2, FixedTableCosts(np.asarray(
            config["cost_process"]["values"])))
        strat = make_strategy(config, pc, gamma=0.25)
        tr = run_episode(strat, env, config["n"], seed=6)
        from bistro.runner import benchmark_value
        assert expected_regret(tr, pc) + benchmark_value(tr, pc) == pytest.approx(
            tr.expected_total, abs=1e-12
        )

    def test_transcript_consistency(self):
        config = small_config()
        pc = PolicyClass.all_labelings(2, 2)
        env = Environment(np.ones(2) / 2, FixedTableCosts(np.asarray(
            config["cost_process"]["values"])))
        tr = run_episode(make_strategy(config, pc, gamma=0.25), env, config["n"], seed=7)
        tr.validate()
        for broken, match in ((dataclasses.replace(tr, actions=tr.actions[1:]), "lengths"),
                              (dataclasses.replace(tr, observed_costs=tr.observed_costs + 0.5),
                               "inconsistent")):
            with pytest.raises(ValueError, match=match):
                broken.validate()
        np.testing.assert_allclose(
            np.cumsum(tr.expected_costs),
            np.cumsum((tr.distributions * tr.cost_vectors).sum(axis=1)),
            atol=0,
        )

    def test_empty_benchmark_class_errors(self):
        from bistro.erm import PairwiseDisagreement

        pc = PolicyClass(np.array([[0, 1], [1, 0]]), 2)  # no constant policies
        env = Environment(np.ones(2) / 2, FixedTableCosts(np.tile([0.5, 0.5], (4, 1))))
        tr = run_episode(UniformStrategy(2), env, 4, seed=8)
        if len(set(tr.contexts)) > 1:  # both contexts appear, constraint binds
            with pytest.raises(ValueError):
                expected_regret(tr, pc, PairwiseDisagreement("uniform"), K=0.0)


class TestSuite:
    def test_single_seed_summary_matches_episode(self):
        config = small_config()
        summary = run_suite(config, seeds=[7])
        pc = PolicyClass.all_labelings(2, 2)
        env = Environment(np.ones(2) / 2, FixedTableCosts(np.asarray(
            config["cost_process"]["values"])))
        tr = run_episode(make_strategy(config, pc, gamma=0.25), env, config["n"], seed=7)
        assert summary["mean_regret"] == pytest.approx(expected_regret(tr, pc), abs=1e-12)
        assert summary["std_regret"] == 0.0
        assert summary["oracle_calls_total"] == 2 * config["n"]

    def test_outputs_are_byte_identical(self, tmp_path):
        config = small_config(n=6)
        dirs = [tmp_path / "a", tmp_path / "b"]
        for out in dirs:
            run_suite(config, seeds=[0, 1], out_dir=str(out))
        for name in ("summary.json", "episode_0.csv", "episode_1.csv"):
            a = (dirs[0] / name).read_bytes()
            b = (dirs[1] / name).read_bytes()
            assert a == b, name

    def test_regret_stderr_is_the_mean_regrets_standard_error(self, tmp_path):
        # a diagnostic beside violations, which stays mean > bound
        summary = run_suite(small_config(n=6), seeds=[0, 1, 2], out_dir=str(tmp_path))
        assert json.loads((tmp_path / "summary.json").read_text()) == summary
        assert summary["std_regret"] == float(np.std(summary["per_seed_regret"], ddof=1))
        assert summary["regret_stderr"] == summary["std_regret"] / np.sqrt(3)
        assert summary["violations"] == int(summary["mean_regret"] > summary["bound"])

    def test_csv_schema(self):
        config = small_config(n=3)
        pc = PolicyClass.all_labelings(2, 2)
        env = Environment(np.ones(2) / 2, FixedTableCosts(np.asarray(
            config["cost_process"]["values"])))
        tr = run_episode(make_strategy(config, pc, gamma=0.25), env, 3, seed=9)
        lines = episode_csv_lines(tr)
        assert lines[0] == "round,context,action,q_1,q_2,observed_cost,expected_cost,cum_expected_cost"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1"
        assert int(first[2]) in (1, 2)  # actions are 1-based in files
        # every value cell parses back as a finite float
        for line in lines[1:]:
            for cell in line.split(",")[3:]:
                assert np.isfinite(float(cell))

    def test_failure_identifies_seed(self, monkeypatch):
        # a cost table too short for the horizon is a config error, refused before any episode
        config = small_config(cost_process={"type": "fixed_table", "values": [[0.1, 0.9]] * 4})
        with pytest.raises(ValueError, match="cost_process table"):
            run_suite(config, seeds=[3])
        # a cost entry outside [0, 1], committed mid-episode, fails the episode
        monkeypatch.setattr(FixedTableCosts, "commit", lambda self, t, *seen: np.array([0.1, 2.0]))
        with pytest.raises(RuntimeError, match="seed 3"):
            run_suite(small_config(), seeds=[3])

    def test_seed_lists_that_check_nothing_are_refused(self, tmp_path):
        # no episode, a seed that cannot seed one, or one episode's CSV written
        # twice; a bool or a float would name its CSV apart from its seed
        for seeds in ([], range(0), [1, -1], [2, 2], [True], [0.5], [np.float64(1)]):
            with pytest.raises(ValueError, match="seeds must be"):
                run_suite(small_config(), seeds=seeds, out_dir=str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    def test_algorithm_validation(self):
        config = small_config(algorithm="nope")
        with pytest.raises(ValueError):
            run_suite(config, seeds=[0])

    def test_make_strategy_refuses_an_unknown_algorithm(self):
        # make_strategy reads a config the table has not checked
        with pytest.raises(ValueError, match="unknown algorithm 'nope'"):
            make_strategy(small_config(algorithm="nope"), PolicyClass.all_labelings(2, 2), 0.25)

    def test_removed_sign_scale_key_rejected(self):
        for algo in ("bistro", "uniform"):
            with pytest.raises(ValueError, match="sign_scale"):
                run_suite(small_config(algorithm=algo, sign_scale=2.0), seeds=[0])

    def test_unknown_config_key_rejected(self):
        # a typo of "playouts" must not run with the default of 1; load_config
        # resolves paths itself, so a config cannot set a base directory
        for key in ("playout", "_base_dir"):
            with pytest.raises(ValueError, match=f"'{key}'"):
                run_suite(small_config(**{key: 3}), seeds=[0])

    def test_readme_table_lists_every_config_key(self):
        # the README's key table names every top-level key of the config
        # table, and each default it states is the first named key's row's
        with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as f:
            section = f.read().split("## Configuration\n", 1)[1].split("\n## ", 1)[0]
        rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
        keys = {key for cell, _ in rows for key in re.findall(r"`([^`]+)`", cell)}
        assert keys == set(config_table.CONFIG)
        stated = {re.findall(r"`([^`]+)`", cell)[0]: float(default[1]) for cell, meaning in rows
                  if (default := re.search(r"default (\d+(?:\.\d+)?)", meaning))}
        assert stated == {"playouts": 1, "pool_factor": 10, "epsilon": 0.1, "tune_samples": 200,
                          "tune_seed": 0, "lambda": 0}
        assert stated == {key: config_table.CONFIG[key].default for key in stated}

    @pytest.mark.parametrize("name, n", [("fixed_adversarial.json", 16),
                                         ("regularized_pairwise.json", 6),
                                         ("bernoulli_demo.json", 16)])
    def test_a_config_is_checked_once_per_suite(self, name, n, monkeypatch):
        # the table's walk runs once, in build_policy_class; every later
        # builder only reads the checked config
        calls = []
        check = runner.check
        monkeypatch.setattr(runner, "check", lambda config: calls.append(1) or check(config))
        run_suite({**load_config(os.path.join(CONFIG_DIR, name)), "n": n, "tune_samples": 8},
                  seeds=[0, 1])
        assert len(calls) == 1

    @pytest.mark.parametrize("name, n, algorithm", [
        ("regularized_pairwise.json", 6, None), ("fixed_adversarial.json", 16, "bistro"),
        ("fixed_adversarial.json", 16, "bistro_relaxed")])
    def test_set_up_prices_the_unpenalized_class_once(self, name, n, algorithm, monkeypatch):
        # every playout relaxation first prices the unpenalized class at
        # SIGN_SCALE; only the regularized one prices its penalized oracle too
        estimates, builds = [], []
        estimate, build = runner.rademacher_estimate, runner.build_constraint
        monkeypatch.setattr(runner, "rademacher_estimate",
                            lambda oracle, sampler, n, samples, seed, scale=1.0:
                            estimates.append((type(oracle), scale))
                            or estimate(oracle, sampler, n, samples, seed, scale))
        monkeypatch.setattr(runner, "build_constraint",
                            lambda config: builds.append(1) or build(config))
        config = {**load_config(os.path.join(CONFIG_DIR, name)), "n": n, "tune_samples": 8}
        config["algorithm"] = algorithm or config["algorithm"]
        run_suite(config, seeds=[0])
        regularized = config["algorithm"] == "bistro_regularized"
        assert [scale for _, scale in estimates] == [SIGN_SCALE] * (1 + regularized)
        assert estimates[0][0] is erm.ExactErmOracle
        if regularized:
            assert estimates[1][0] is erm.RegularizedErmOracle
            assert len(builds) <= 4

    def test_regularized_requires_budget(self):
        # without K the bound would price lam*K at 0 and the benchmark skip filtering
        config = small_config(algorithm="bistro_regularized", **{"lambda": 0.1},
                              constraint={"type": "pairwise", "weights": "uniform"})
        with pytest.raises(ValueError, match="'K'"):
            run_suite(config, seeds=[0])
        with pytest.raises(ValueError, match="requires a constraint"):
            run_suite({**config, "K": 4, "constraint": None}, seeds=[0])
        assert np.isfinite(run_suite({**config, "K": 4}, seeds=[0])["bound"])

    def test_shipped_config_loads(self):
        for name in ("fixed_adversarial.json", "bernoulli_demo.json"):
            config = load_config(os.path.join(CONFIG_DIR, name))
            summary = run_suite(config, seeds=[0])
            assert summary["gamma_used"] > 0
            assert summary["oracle_calls_total"] == 2 * config["n"]

    def test_baselines_run(self):
        for algo in ("uniform", "egreedy"):
            summary = run_suite(small_config(algorithm=algo), seeds=[0, 1])
            assert summary["bound"] is None
            assert np.isfinite(summary["mean_regret"])

    def test_egreedy_reports_the_rate_it_plays(self):
        # epsilon-greedy plays the learner at gamma = epsilon/d; uniform plays no rate
        assert run_suite(small_config(algorithm="uniform"), seeds=[0])["gamma_used"] is None
        for d, epsilon in ((1, 1.0), (2, 0.1), (3, 0.3)):
            config = small_config(algorithm="egreedy", epsilon=epsilon, d=d, policy_class={
                "d": d, "universe": 2, "family": "all_labelings"},
                cost_process={"type": "adaptive", "rule": "argmax_punish"})
            pc = build_policy_class(config)
            summary = run_suite(config, seeds=[0])
            assert summary["gamma_used"] == make_strategy(config, pc, None).gamma == epsilon / d
            assert summary["bound"] is None

    def test_regularized_bound_at_bench_scale(self):
        # |X|=4, n=128: far past the 2^(n*d) sign patterns an enumeration could price
        config = small_config(
            n=128,
            policy_class={"family": "all_labelings", "d": 2, "universe": 4},
            cost_process={"type": "adaptive", "rule": "argmax_punish"},
            algorithm="bistro_regularized",
            constraint={"type": "pairwise", "weights": "uniform"},
            K=4,
            **{"lambda": 0.1},
        )
        summary = run_suite(config, seeds=range(3))
        assert np.isfinite(summary["bound"]) and np.isfinite(summary["bound_stderr"])
        assert summary["bound_stderr"] > 0
        assert summary["violations"] == 0

    def test_unpenalized_regularized_bound_is_bistro_bound(self):
        # at lambda = 0 the regularized variant plays bistro, so it prices bistro's relaxation
        config = load_config(os.path.join(CONFIG_DIR, "regularized_pairwise.json"))
        config.update({"lambda": 0.0, "tune_seed": 3})
        pc = runner.build_policy_class(config)
        env = runner.build_environment(config, pc)
        for gamma in (0.1, 0.25, "auto"):
            reg = runner.resolve_strategy_params({**config, "gamma": gamma}, pc, env)
            plain = runner.resolve_strategy_params(
                {**config, "gamma": gamma, "algorithm": "bistro"}, pc, env)
            assert reg["gamma"] == plain["gamma"]
            assert reg["bound"] == plain["bound"]

    def test_a_delta_run_reports_the_exact_oracles_bound(self):
        # the rate and the bound read no delta: bound excludes the O(n*delta) term
        config = load_config(os.path.join(CONFIG_DIR, "fixed_adversarial.json"))
        exact = run_suite(config, seeds=[0])
        noisy = run_suite({**config, "delta": 0.05}, seeds=[0])
        for key in ("gamma_used", "rad_estimate", "bound"):
            assert noisy[key] == exact[key]
        assert noisy["per_seed_regret"] != exact["per_seed_regret"]  # the noise is played

    def test_constraint_without_budget_keeps_whole_class(self, monkeypatch):
        constraint = {"type": "pairwise", "weights": "uniform"}
        calls = []

        def spy(*args):
            calls.append(args)
            return values(*args)

        values = erm.policy_constraint_values
        monkeypatch.setattr(erm, "policy_constraint_values", spy)
        plain = run_suite(small_config(), seeds=range(3))
        keyed = run_suite(small_config(constraint=constraint), seeds=range(3))
        assert keyed["per_seed_regret"] == plain["per_seed_regret"]
        assert calls == []
        run_suite(small_config(constraint=constraint, K=4), seeds=range(3))
        assert len(calls) == 3

    def test_play_prices_the_penalty_once_per_playout(self, monkeypatch):
        # a playout's d queries share one context row; a transductive episode
        # never rewrites it, so play prices it once and regret accounting once
        calls = []

        def spy(*args):
            calls.append(args)
            return values(*args)

        values = erm.policy_constraint_values
        monkeypatch.setattr(erm, "policy_constraint_values", spy)
        n, playouts = 32, 2
        for mode in config_table.MODES:
            config = small_config(
                n=n, horizon_mode=mode, playouts=playouts, algorithm="bistro_regularized",
                policy_class={"family": "all_labelings", "d": 2, "universe": 4},
                cost_process={"type": "adaptive", "rule": "argmax_punish"},
                constraint={"type": "pairwise", "weights": "uniform"}, K=4, **{"lambda": 0.1})
            pc = runner.build_policy_class(config)
            strategy = make_strategy(config, pc, 0.25)
            calls.clear()
            tr = run_episode(strategy, runner.build_environment(config, pc), n, seed=0)
            benchmark_value(tr, pc, runner.build_constraint(config), 4)
            assert strategy.oracle_calls == 2 * playouts * n
            if mode == "transductive":
                assert len(calls) == 2
            else:
                assert len(calls) <= playouts * n + 1

    def test_argmax_linear_class_from_context_features(self):
        # unit features: policy f plays argmax_j w_fj[x] at context x
        linear = small_config(
            context_dist={"probs": [0.5, 0.5], "features": [[1.0, 0.0], [0.0, 1.0]]},
            policy_class={"family": "argmax_linear",
                          "weights": [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 1], [0, 0]]]})
        table = small_config(policy_class={"d": 2, "policies": [[1, 2], [2, 1], [1, 1]]})
        assert runner.build_policy_class(linear).table.tolist() == [[0, 1], [1, 0], [0, 0]]
        a, b = run_suite(linear, seeds=range(3)), run_suite(table, seeds=range(3))
        assert a["per_seed_regret"] == b["per_seed_regret"]

    def test_context_dist_has_one_form(self):
        for dist in ({"features": [[1.0], [0.0]]}, [0.5, 0.5],
                     {"probs": [0.5, 0.5], "feature": [[1.0], [0.0]]}, "zipf"):
            with pytest.raises(ValueError, match="context_dist"):
                run_suite(small_config(context_dist=dist), seeds=[0])

    def test_unknown_cost_process_key_rejected(self):
        # a removed key must not silently change what the adversary sees
        for doc, key in (({"type": "adaptive", "sees_current_context": False},
                          "sees_current_context"),
                         ({"type": "fixed_table", "values": [[0.5, 0.5]] * 8, "rule": "x"},
                          "rule")):
            with pytest.raises(ValueError, match=f"'{key}'"):
                run_suite(small_config(cost_process=doc), seeds=[0])

    def test_numeric_error_policy(self, monkeypatch):
        seen = {}

        def spy(*args):
            seen.update(np.geterr())
            return run_episode(*args)

        monkeypatch.setattr(runner, "run_episode", spy)
        with np.errstate(all="ignore"):
            run_suite(small_config(), seeds=[0])
            assert np.geterr()["invalid"] == "ignore"
        assert seen == {"divide": "raise", "over": "raise", "under": "ignore",
                        "invalid": "raise"}


def per_row_episode_csv_lines(transcript: Transcript) -> list[str]:
    """The per-row body ``episode_csv_lines`` had before it formatted each
    distinct float once; the reference for its lines."""
    d = transcript.d
    header = (
        "round,context,action,"
        + ",".join(f"q_{j}" for j in range(1, d + 1))
        + ",observed_cost,expected_cost,cum_expected_cost"
    )
    lines = [header]
    rows = zip(transcript.contexts.tolist(), transcript.actions.tolist(),
               transcript.distributions.tolist(), transcript.observed_costs.tolist(),
               transcript.expected_costs.tolist(), np.cumsum(transcript.expected_costs).tolist())
    for t, (x, a, q, observed, expected, cum) in enumerate(rows, 1):
        qs = ",".join(map(repr, q))
        lines.append(f"{t},{x},{a + 1},{qs},{observed!r},{expected!r},{cum!r}")
    return lines


class TestEpisodeCsv:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_golden_cases_write_the_per_row_lines(self, name):
        path, overrides = GOLDEN_CASES[name]
        config = {**load_config(os.path.join(CONFIG_DIR, path)), **overrides}
        pc = build_policy_class(config)
        env = runner.build_environment(config, pc)
        gamma = runner.resolve_strategy_params(config, pc, env)["gamma"]
        tr = run_episode(make_strategy(config, pc, gamma), env, config["n"], seed=2)
        assert episode_csv_lines(tr) == per_row_episode_csv_lines(tr)

    def test_signed_zeros_keep_their_signs(self):
        # in_unit_interval accepts -0.0 and repr prints it as -0.0: cells
        # formatted once per value, not per bit pattern, would merge the zeros
        values = np.array([[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [0.0, 0.0]] * 4)
        env = Environment(np.ones(2) / 2, FixedTableCosts(values))
        tr = run_episode(UniformStrategy(2), env, len(values), seed=6)
        lines = episode_csv_lines(tr)
        assert lines == per_row_episode_csv_lines(tr)
        assert {line.split(",")[-3] for line in lines[1:]} == {"0.0", "-0.0"}

    def test_repeated_q_rows(self):
        # uniform play repeats one row; epsilon-greedy repeats a few
        env = Environment(np.ones(2) / 2, FixedTableCosts(np.tile([0.25, 0.75], (64, 1))))
        uniform = run_episode(UniformStrategy(2), env, 64, seed=7)
        greedy = run_episode(make_strategy(small_config(algorithm="egreedy"),
                                           PolicyClass.all_labelings(2, 2), None), env, 64, seed=7)
        for tr, rows in ((uniform, 1), (greedy, 2)):
            assert len(set(map(tuple, tr.distributions.tolist()))) == rows
            assert episode_csv_lines(tr) == per_row_episode_csv_lines(tr)

    def test_magnitudes_and_the_empty_episode(self):
        # repr's exponent forms (1e-05, 1e+16) and subnormals, shared across
        # columns; an empty episode writes its header alone
        rng = np.random.default_rng(8)
        special = np.array([1e-5, 1e16, 5e-324, 2.2250738585072014e-309, 0.1, 1.0 - 2**-53])
        n, d = 40, 3
        costs = rng.choice(special, (n, d))
        actions = rng.integers(0, d, n)
        tr = Transcript(contexts=rng.integers(0, 4, n), distributions=rng.choice(special, (n, d)),
                        actions=actions, observed_costs=costs[np.arange(n), actions],
                        cost_vectors=costs)
        lines = episode_csv_lines(tr)
        assert lines == per_row_episode_csv_lines(tr)
        assert all(any(repr(v) in line.split(",") for line in lines) for v in special.tolist())
        empty = run_episode(UniformStrategy(2), Environment(np.ones(2) / 2, FixedTableCosts(
            np.empty((0, 2)))), 0, seed=0)
        assert episode_csv_lines(empty) == per_row_episode_csv_lines(empty)
        assert len(episode_csv_lines(empty)) == 1


class TestLearnerReuse:
    @pytest.mark.parametrize("name", sorted(REUSE_CASES))
    def test_one_learner_plays_every_episode_as_a_fresh_one(self, name):
        # run_suite builds one learner and one environment for all its seeds:
        # whatever episode came before, begin_episode leaves nothing of it, so
        # each episode, of n rounds or of n // 2, is a fresh learner's in a
        # fresh environment, bit for bit, and the calls add up
        path, overrides = REUSE_CASES[name]
        config = {**load_config(os.path.join(CONFIG_DIR, path)), **overrides}
        pc = build_policy_class(config)
        env = runner.build_environment(config, pc)
        gamma = runner.resolve_strategy_params(config, pc, env)["gamma"]
        n = config["n"]
        episodes = [(n, 3), (n, 1), (n // 2, 5), (n, 4), (n, 1)]
        if isinstance(runner.build_constraint(config), erm.CoveragePenalty):
            episodes.remove((n // 2, 5))  # a coverage partition fixes n
        learner, fresh_calls = make_strategy(config, pc, gamma), 0
        for length, seed in episodes:
            fresh = make_strategy(config, pc, gamma)
            want = run_episode(fresh, runner.build_environment(config, pc), length, seed)
            got = run_episode(learner, env, length, seed)
            assert got.distributions.tobytes() == want.distributions.tobytes(), (length, seed)
            assert got.actions.tobytes() == want.actions.tobytes(), (length, seed)
            fresh_calls += fresh.oracle_calls
        assert learner.oracle_calls == fresh_calls


    @pytest.mark.parametrize("eta", [None, 0.3])
    def test_a_reduction_learner_plays_the_rate_of_its_episode(self, eta):
        # begin_episode hands the relaxation the episode's horizon: an unset
        # eta becomes the default rate of n // 2, a configured one stays, and
        # the reused learner's n // 2 episode is that of a fresh learner
        # configured with n // 2
        config = {**load_config(os.path.join(CONFIG_DIR, "adaptive_adversary.json")),
                  "algorithm": "adversarial_reduction", **({} if eta is None else {"eta": eta})}
        pc = build_policy_class(config)
        env = runner.build_environment(config, pc)
        gamma = runner.resolve_strategy_params(config, pc, env)["gamma"]
        n = config["n"]
        learner = make_strategy(config, pc, gamma)
        run_episode(learner, env, n, seed=3)
        got = run_episode(learner, env, n // 2, seed=5)
        fresh = make_strategy({**config, "n": n // 2}, pc, gamma)
        want = run_episode(fresh, runner.build_environment(config, pc), n // 2, seed=5)
        assert learner.relaxation.eta == fresh.relaxation.eta
        assert eta is None or learner.relaxation.eta == eta
        assert got.distributions.tobytes() == want.distributions.tobytes()
        assert got.actions.tobytes() == want.actions.tobytes()


class TestGrowthInN:
    def test_bound_grows_as_n_to_three_quarters_and_the_learners_regret_under_it(self):
        # The bound complexity/gamma + n*d*gamma, tuned, is 2*sqrt(n*d*complexity),
        # and the complexity grows as sqrt(n): n^(3/4). Over n = 256, 1024 and
        # 4096 (equal steps in log n, so the log-log least-squares slope is
        # the end-to-end one), on seeds fixed before any outcome was seen, the
        # learners' mean regret stays under the bound at every n and grows
        # sublinearly, while uniform play's grows linearly.
        config = load_config(os.path.join(CONFIG_DIR, "adaptive_adversary.json"))
        ns = (256, 1024, 4096)

        def slope(values):
            return float(np.log(values[-1] / values[0]) / np.log(ns[-1] / ns[0]))

        for algorithm in ("bistro", "adversarial_reduction", "uniform"):
            runs = [run_suite({**config, "algorithm": algorithm, "n": n}, range(100, 108))
                    for n in ns]
            regrets = [run["mean_regret"] for run in runs]
            if algorithm == "uniform":
                assert slope(regrets) >= 0.95, regrets
                continue
            bounds = [run["bound"] for run in runs]
            assert all(r <= b for r, b in zip(regrets, bounds)), (regrets, bounds)
            assert 0.7 <= slope(bounds) <= 0.8, bounds
            assert slope(regrets) <= 0.85, regrets


class TestCostValidation:
    """NaN fails the [0, 1] check like any other out-of-range cost."""

    BAD = ([[np.nan, 0.5]], [[-0.1, 0.5]], [[0.2, 1.5]])

    def test_fixed_table(self):
        for values in self.BAD:
            with pytest.raises(ValueError, match="cost entries"):
                FixedTableCosts(values)

    def test_bernoulli_means(self):
        for means in self.BAD:
            with pytest.raises(ValueError, match="means"):
                IidBernoulliCosts(means)

    def test_per_round_cost_vector(self):
        for values in self.BAD:
            with pytest.raises(ValueError, match="cost entries"):
                check_cost_vector(values[0])
        np.testing.assert_array_equal(check_cost_vector([0.0, 1.0]), [0.0, 1.0])

        class NanCosts(CostProcess):
            d = 2

            def commit(self, t, x):
                return np.array([np.nan, 0.0])

        env = Environment(np.ones(2) / 2, NanCosts())
        with pytest.raises(ValueError, match="cost entries"):
            run_episode(UniformStrategy(2), env, 3, seed=0)

    def test_cost_vector_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="cost vector must be one-dimensional"):
            check_cost_vector([[0.5, 0.5]])

    def test_cost_vector_of_another_dimension(self):
        class WideCosts(CostProcess):
            d = 2

            def commit(self, t, x):
                return np.array([0.5, 0.5, 0.5])

        env = Environment(np.ones(2) / 2, WideCosts())
        with pytest.raises(ValueError, match="cost process dimension mismatch"):
            run_episode(UniformStrategy(2), env, 3, seed=0)

    def test_fixed_table_shorter_than_the_episode(self):
        # run_suite refuses such a config first; a library caller meets this check
        env = Environment(np.ones(2) / 2, FixedTableCosts(np.full((2, 2), 0.5)))
        with pytest.raises(ValueError, match="cost table shorter than the horizon"):
            run_episode(UniformStrategy(2), env, 3, seed=0)


class TestConfigJson:
    def test_summary_is_json_serializable(self):
        summary = run_suite(small_config(), seeds=[0])
        json.dumps(summary)

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        costs = np.tile([0.2, 0.8], (4, 1))
        np.savetxt(tmp_path / "c.csv", costs, delimiter=",")
        config = small_config(
            n=4, cost_process={"type": "fixed_table", "path": "c.csv"}
        )
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        loaded = load_config(str(tmp_path / "cfg.json"))
        summary = run_suite(loaded, seeds=[0])
        assert np.isfinite(summary["mean_regret"])
