import os

import numpy as np
import pytest

from bistro import rademacher, runner
from bistro.config import load_config
from bistro.environments import Environment, FixedTableCosts, categorical_sampler
from bistro.erm import (
    CoveragePenalty,
    ExactErmOracle,
    PairwiseDisagreement,
    RegularizedErmOracle,
)
from bistro.policies import PolicyClass
from bistro.rademacher import (
    RademacherEstimate,
    rademacher_estimate,
    rademacher_samples,
    tune_gamma,
)
from bistro.verify import exact_rademacher


def fixed_sampler(ids):
    """Sampler returning the same context sequence every time."""
    ids = np.asarray(ids, dtype=np.int64)

    def sample(rng: np.random.Generator, n: int) -> np.ndarray:
        if n != ids.size:
            raise ValueError("fixed sampler length mismatch")
        return ids

    return sample


class StackSpy:
    """Oracle proxy that records the size of each stack it prices."""

    def __init__(self, inner):
        self.inner, self.policy_class, self.stacks = inner, inner.policy_class, []

    def __call__(self, contexts, Y):
        self.stacks.append(len(contexts))
        return self.inner(contexts, Y)


class TestEstimator:
    def test_singleton_class_mean_near_zero(self):
        pc = PolicyClass(np.array([[0, 1, 0]]), 2)
        est = rademacher_estimate(
            ExactErmOracle(pc), categorical_sampler(np.ones(3) / 3), 8, samples=2000, seed=0
        )
        assert abs(est.mean) <= 3 * est.std_error

    def test_all_labelings_distinct_contexts(self):
        # With distinct contexts every column is free: value n * E max sign = n/2.
        pc = PolicyClass.all_labelings(2, 10)
        est = rademacher_estimate(
            ExactErmOracle(pc), fixed_sampler(np.arange(10)), 10, samples=3000, seed=1
        )
        assert abs(est.mean - 5.0) <= 3 * est.std_error

    def test_matches_exact_enumeration_small(self):
        pc = PolicyClass(np.array([[0], [1]]), 2)
        exact = exact_rademacher(pc, [0])
        assert exact == pytest.approx(0.5)
        est = rademacher_estimate(
            ExactErmOracle(pc), fixed_sampler(np.zeros(1, dtype=int)), 1, samples=4000, seed=2
        )
        assert abs(est.mean - exact) <= 3 * est.std_error

    def test_per_sample_values_are_negated_erm(self):
        # Recompute each sample's supremum by direct enumeration over policies.
        pc = PolicyClass(np.random.default_rng(3).integers(0, 3, (12, 4)), 3)
        oracle = ExactErmOracle(pc)
        seed, n, R = 7, 5, 40
        values = rademacher_samples(oracle, categorical_sampler(np.ones(4) / 4), n, R, seed)
        for r in range(R):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
            ctxs = rng.choice(np.arange(4), size=n, p=np.ones(4) / 4)
            signs = rng.integers(0, 2, size=(3, n)) * 2 - 1
            sup = max(
                signs[pc.table[i, ctxs], np.arange(n)].sum() for i in range(pc.size)
            )
            assert values[r] == pytest.approx(float(sup), abs=1e-12)

    def test_inclusion_monotone_with_shared_streams(self):
        rng = np.random.default_rng(4)
        big = PolicyClass(rng.integers(0, 2, (8, 3)), 2)
        small = PolicyClass(big.table[[0, 1, 2]], 2)
        sampler = categorical_sampler(np.ones(3) / 3)
        v_small = rademacher_samples(ExactErmOracle(small), sampler, 6, 200, seed=5)
        v_big = rademacher_samples(ExactErmOracle(big), sampler, 6, 200, seed=5)
        assert (v_small <= v_big + 1e-12).all()

    def test_one_oracle_call_per_sample(self):
        pc = PolicyClass(np.array([[0], [1]]), 2)
        oracle = ExactErmOracle(pc)
        rademacher_estimate(oracle, fixed_sampler(np.zeros(1, dtype=int)), 1, samples=37, seed=0)
        assert oracle.calls == 37

    def test_stack_size_changes_no_value(self, monkeypatch):
        # a sample's query arrays take 8*(2d+1)*n bytes of STACK_BYTES; its
        # product row, 8*|F| bytes, is held to the same or the one-hot's size
        rng = np.random.default_rng(8)
        probs = rng.uniform(0.1, 1.0, 5)
        probs /= probs.sum()
        samples, default = 61, rademacher.STACK_BYTES
        for d, universe, n in ((1, 1, 6), (2, 5, 7), (4, 5, 3)):
            pc = PolicyClass(rng.integers(0, d, (11, universe)), d)
            sampler = categorical_sampler(probs[:universe] / probs[:universe].sum())
            # penalties are priced per row, so a stack changes no penalized value either
            halves = [list(range(0, n, 2)), list(range(1, n, 2))]
            for oracle_of in (lambda: ExactErmOracle(pc),
                              lambda: RegularizedErmOracle(pc, PairwiseDisagreement(), 0.3),
                              lambda: RegularizedErmOracle(pc, CoveragePenalty(halves, 2), 0.3)):
                runs = []
                for stack_samples in (1, 3, 50, None):
                    monkeypatch.setattr(rademacher, "STACK_BYTES", default if stack_samples is None
                                        else 8 * (2 * d + 1) * n * stack_samples)
                    spy = StackSpy(oracle_of())
                    runs.append(rademacher_samples(spy, sampler, n, samples, seed=9))
                    assert spy.inner.calls == samples == sum(spy.stacks)
                    if stack_samples is None:
                        assert spy.stacks[0] > d * universe
                    else:
                        assert spy.stacks[0] == stack_samples
                for values in runs[1:]:
                    assert np.array_equal(values, runs[0])

    def test_a_stack_streams_the_onehot_for_d_x_samples(self):
        # at |F| = 4096 the (|F|, d*|X|) one-hot outweighs STACK_BYTES, and a
        # stack of d*|X| samples has a product as large; smaller classes keep
        # the query budget, 12 samples at n = 512
        sampler = categorical_sampler(np.ones(5) / 5)
        for pc, n, stack in ((PolicyClass.all_labelings(2, 12), 128, 24),
                             (PolicyClass.all_labelings(2, 10), 10, 32),
                             (PolicyClass(np.zeros((8, 5), dtype=int), 2), 512, 12)):
            spy = StackSpy(ExactErmOracle(pc))
            rademacher_samples(spy, sampler, n, 50, seed=0)
            assert spy.stacks[0] == stack

    def test_empty_horizon_prices_every_sample_at_zero(self):
        # at n = 0 a sample has no query arrays to budget
        spy = StackSpy(ExactErmOracle(PolicyClass.all_labelings(2, 3)))
        values = rademacher_samples(spy, categorical_sampler(np.ones(3) / 3), 0, 7, seed=0)
        assert np.array_equal(values, np.zeros(7)) and sum(spy.stacks) == 7

    def test_refuses_no_samples(self):
        oracle = ExactErmOracle(PolicyClass.all_labelings(2, 3))
        with pytest.raises(ValueError, match="at least one sample required"):
            rademacher_samples(oracle, categorical_sampler(np.ones(3) / 3), 4, 0, seed=0)


class TestCategoricalSampler:
    def test_draws_equal_generator_choice(self):
        probs = np.array([0.05, 0.5, 0.0, 0.2, 0.25])
        sampler = categorical_sampler(probs)
        env = Environment(probs, FixedTableCosts(np.zeros((1, 2))))
        for seed in range(5):
            for n in (0, 1, 17, 400):
                expected = np.random.default_rng(seed).choice(np.arange(5), size=n, p=probs)
                drawn = sampler(np.random.default_rng(seed), n)
                assert drawn.dtype == expected.dtype
                assert np.array_equal(drawn, expected)
                assert np.array_equal(env.sample_contexts(np.random.default_rng(seed), n),
                                      expected)

    def test_rejects_what_choice_rejects(self):
        for probs in ([[0.5, 0.5]], [0.5, np.nan], [1.5, -0.5], [0.5, 0.5 + 1e-6], []):
            with pytest.raises(ValueError):
                np.random.default_rng(0).choice(len(probs), size=3, p=probs)
            with pytest.raises(ValueError):
                categorical_sampler(probs)


class TestTuning:
    # tune_gamma takes the complexity in playout units: twice the Rademacher average
    def test_clamp_to_uniform(self):
        # rad = n/2 at d=2 tunes to sqrt(1/2), above 1/d: clamp.
        for n in (4, 10, 64):
            assert tune_gamma(n, n, 2) == 0.5

    def test_zero_rad_floor(self):
        assert tune_gamma(0.0, 10, 2) == pytest.approx(1 / 20)
        assert tune_gamma(-0.6, 10, 2) == pytest.approx(1 / 20)

    def test_full_clamp_case(self):
        n, d = 10, 2
        assert tune_gamma(n * d, n, d) == 0.5

    def test_interior_value(self):
        gamma = tune_gamma(2.0, 100, 2)
        assert gamma == pytest.approx(np.sqrt(2 / 200))
        assert 0 < gamma <= 0.5

    def test_always_in_range(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(1, 1000))
            d = int(rng.integers(1, 20))
            g = tune_gamma(2 * float(rng.uniform(-1, 3 * n)), n, d)
            assert 0 < g <= 1 / d

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            tune_gamma(2.0, 0, 2)
        with pytest.raises(ValueError):
            tune_gamma(2.0, 5, 0)


def bistro_params(monkeypatch, rad, n, d, algorithm="bistro", gamma="auto"):
    """resolve_strategy_params with the class's Rademacher estimate fixed at rad."""
    monkeypatch.setattr(runner, "rademacher_estimate",
                        lambda oracle, sampler, n, samples, seed, scale=1.0:
                        RademacherEstimate(mean=scale * rad, std_error=0.0))
    pc = PolicyClass.all_labelings(d, 2)
    env = Environment(np.ones(2) / 2, FixedTableCosts(np.zeros((n, d))))
    config = {"algorithm": algorithm, "n": n, "d": d, "gamma": gamma}
    return runner.resolve_strategy_params(config, pc, env)


class TestBound:
    # The bound is complexity/gamma + n*d*gamma at the gamma played, with
    # complexity = SIGN_SCALE * rad for bistro.
    def test_zero(self, monkeypatch):
        for rad in (0.0, -0.3):
            params = bistro_params(monkeypatch, rad=rad, n=100, d=4)
            assert params["gamma"] == 1 / 400
            assert params["bound"] == 1.0

    def test_plug_in(self, monkeypatch):
        # interior gamma = sqrt(2 rad / (n d)) = 0.1: the bound is 2 * sqrt(2 d n rad)
        params = bistro_params(monkeypatch, rad=1.0, n=100, d=2)
        assert params["gamma"] == pytest.approx(0.1)
        assert params["bound"] == pytest.approx(2 * np.sqrt(400))

    def test_sqrt_scaling(self, monkeypatch):
        b1 = bistro_params(monkeypatch, rad=3.0, n=500, d=3)["bound"]
        b4 = bistro_params(monkeypatch, rad=12.0, n=500, d=3)["bound"]
        assert b4 == pytest.approx(2 * b1)

    def test_clamped(self, monkeypatch):
        # rad = 5 at n=10, d=2 tunes past 1/d: at gamma = 1/d the bound is complexity*d + n
        params = bistro_params(monkeypatch, rad=5.0, n=10, d=2)
        assert params["gamma"] == 0.5
        assert params["bound"] == 2 * 5.0 * 2 + 10
        # the box superset's complexity 2 * n * (1 - 2^-d) always clamps at d = 2
        params = bistro_params(monkeypatch, rad=5.0, n=512, d=2, algorithm="bistro_relaxed")
        assert params["gamma"] == 0.5
        assert params["rad_estimate"] == 384.0
        assert params["bound"] == 2048.0

    @pytest.mark.parametrize("name", ["fixed_adversarial", "adaptive_adversary", "bernoulli_demo"])
    def test_box_run_reports_the_class_complexity(self, name):
        # bistro_relaxed reports the class's estimate beside the box's: bistro's
        # sign draws at scale 1, where bistro prices them at SIGN_SCALE and
        # divides back, so the pairs agree bit for bit. A finite class's average
        # grows like sqrt(n log|F|), the box's like n.
        config = load_config(os.path.join(os.path.dirname(__file__), "..", "configs",
                                          f"{name}.json"))
        params = {}
        for algorithm in ("bistro", "bistro_relaxed"):
            config["algorithm"] = algorithm
            pc = runner.build_policy_class(config)
            params[algorithm] = runner.resolve_strategy_params(
                config, pc, runner.build_environment(config, pc))
        box, exact = params["bistro_relaxed"], params["bistro"]
        assert box["class_rad_estimate"] == exact["rad_estimate"]
        assert box["class_rad_stderr"] == exact["rad_stderr"]
        assert box["class_rad_estimate"] < box["rad_estimate"] / 4

    def test_fixed_gamma(self, monkeypatch):
        params = bistro_params(monkeypatch, rad=1.0, n=100, d=2, gamma=0.25)
        assert params["gamma"] == 0.25
        assert params["bound"] == 2.0 / 0.25 + 200 * 0.25
