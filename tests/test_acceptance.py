"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its headline numbers and runtime.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete. Tolerances are fixed here, not tuned at runtime.
"""

import os
import time

import numpy as np
import pytest

from bistro.admissibility import check_bistro_admissibility, check_reduction_admissibility
from bistro.adversarial import ExpWeightsRelaxation
from bistro.erm import (
    BoxRelaxedOracle,
    ExactErmOracle,
    PairwiseDisagreement,
    RegularizedErmQuery,
    regularized_erm_value,
)
from bistro.policies import PolicyClass
from bistro.rademacher import rademacher_estimate
from bistro.runner import (
    build_environment,
    build_policy_class,
    load_config,
    make_strategy,
    run_episode,
    run_suite,
)
from bistro.verify import (
    bruteforce_erm,
    exact_rademacher,
    expweights_initial_margin,
    expweights_recursive_gap,
    grid_minimax,
    minimax_value,
    mlc_bruteforce,
    waterfill_oracle,
)
from bistro.waterfill import waterfill
from test_rademacher import fixed_sampler
from test_strategies import scaled_history

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
SEEDS = range(50)


def cfg(name):
    return load_config(os.path.join(CONFIG_DIR, name))


def report(num, ok, detail, elapsed, limit):
    line = (
        f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail} "
        f"({elapsed:.1f}s / limit {limit:.0f}s)"
    )
    print(line)
    assert ok, line
    assert elapsed < limit, line


def test_criterion_1_waterfill_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst_q = worst_v = 0.0
    grid_checked, worst_grid = 0, 0.0
    for _ in range(10_000):
        d = int(rng.integers(2, 17))
        psi = rng.uniform(-32, 32, size=d)
        q = waterfill(psi)
        q_oracle = waterfill_oracle(psi)
        worst_q = max(worst_q, float(np.abs(q - q_oracle).max()))
        v, v_oracle = minimax_value(q, psi), minimax_value(q_oracle, psi)
        worst_v = max(worst_v, abs(v - v_oracle))
        if d <= 4:
            _, v_grid = grid_minimax(psi, resolution=1000)
            assert v <= v_grid + 1e-9
            worst_grid = max(worst_grid, v_grid - v)
            grid_checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst_q <= 1e-8 and worst_v <= 1e-10 and worst_grid <= 2e-3
    report(
        1, ok,
        f"10^4 instances, max |q-q'|={worst_q:.1e}, max value gap={worst_v:.1e}, "
        f"{grid_checked} grid confirmations within {worst_grid:.1e}",
        elapsed, 10,
    )


def test_criterion_2_erm_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1002)
    exact_ok = True
    for _ in range(100):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 9))
        pc = PolicyClass(rng.integers(0, d, (int(rng.integers(1, 11)), 4)), d)
        ctxs = rng.integers(0, 4, n)
        # dyadic entries make float addition associative, so "exactly" is exact
        Y = rng.integers(-3 << 20, (3 << 20) + 1, size=(d, n)) / (1 << 20)
        exact_ok = exact_ok and ExactErmOracle(pc)(ctxs, Y) == bruteforce_erm(pc, ctxs, Y)

    constraint = PairwiseDisagreement("uniform")
    mlc_worst = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(1, 7))
        pc = PolicyClass.all_labelings(d, n)
        ctxs = np.arange(n)
        Y = rng.uniform(-1, 1, (d, n))
        lam = float(rng.uniform(0, 1))
        reg = regularized_erm_value(
            pc, ctxs, RegularizedErmQuery(Y=Y, lambda_scaled=lam, constraint=constraint)
        )
        W = np.full((n, n), 2.0 * lam)
        np.fill_diagonal(W, 0.0)
        mlc_worst = max(mlc_worst, abs(reg - mlc_bruteforce(Y.T, W, 1.0 - np.eye(d))))
    elapsed = time.perf_counter() - t0
    ok = exact_ok and mlc_worst <= 1e-10
    report(
        2, ok,
        f"100 exact==bruteforce, 50 regularized==metric-labeling (max gap {mlc_worst:.1e})",
        elapsed, 10,
    )


def test_criterion_3_rademacher_estimator():
    t0 = time.perf_counter()
    R = 100_000
    # all labelings on 10 distinct contexts: per-column sup enumerates 4 sign pairs
    per_column = np.mean([max(a, b) for a in (-1, 1) for b in (-1, 1)])
    target_all = 10 * per_column
    assert target_all == 5.0
    est_all = rademacher_estimate(
        ExactErmOracle(PolicyClass.all_labelings(2, 10)), fixed_sampler(np.arange(10)),
        10, samples=R, seed=2024,
    )
    dev_all = abs(est_all.mean - target_all) / est_all.std_error

    two = PolicyClass(np.array([[0], [1]]), 2)
    target_two = exact_rademacher(two, [0])
    assert target_two == pytest.approx(0.5)
    est_two = rademacher_estimate(
        ExactErmOracle(two), fixed_sampler(np.zeros(1, dtype=int)), 1, samples=R, seed=2025
    )
    dev_two = abs(est_two.mean - target_two) / est_two.std_error

    single = PolicyClass(np.tile([0, 1], 5)[None, :], 2)
    est_one = rademacher_estimate(
        ExactErmOracle(single), fixed_sampler(np.arange(10)), 10, samples=R, seed=2026
    )
    dev_one = abs(est_one.mean) / est_one.std_error
    elapsed = time.perf_counter() - t0
    ok = dev_all <= 3 and dev_two <= 3 and dev_one <= 3
    report(
        3, ok,
        f"R=10^5 deviations (in std errors): all-labelings {dev_all:.2f}, "
        f"two-policy {dev_two:.2f}, singleton {dev_one:.2f}",
        elapsed, 30,
    )


def test_criterion_4_bistro_admissibility():
    t0 = time.perf_counter()
    probs = [0.6, 0.4]
    classes = {
        2: PolicyClass(np.array([[0, 0], [1, 1]]), 2),
        4: PolicyClass.all_labelings(2, 2),
    }
    worst_step = -np.inf
    init_min = np.inf
    checks = 0
    for n in (1, 2, 3):
        for size, pc in classes.items():
            rep = check_bistro_admissibility(
                pc, probs, n=n, gamma=0.25, seed=100 + n, initial_checks=1000,
            )
            for step in rep.steps:
                worst_step = max(worst_step, step.margin)
                checks += 1
            init_min = min(init_min, rep.initial.min_margin)
            assert rep.ok()
    elapsed = time.perf_counter() - t0
    ok = worst_step <= 1e-9 and init_min >= -1e-9
    report(
        4, ok,
        f"{checks} recursive steps, worst margin={worst_step:+.3f}; "
        f"6000 horizon endpoints, min margin {init_min:+.1e}",
        elapsed, 300,
    )


def test_criterion_5_end_to_end_regret_bound():
    t0 = time.perf_counter()
    fixed = cfg("fixed_adversarial.json")
    adaptive = cfg("adaptive_adversary.json")
    s_fixed = run_suite(fixed, SEEDS)
    s_adapt = run_suite(adaptive, SEEDS)
    s_unif = run_suite({**fixed, "algorithm": "uniform"}, SEEDS)
    elapsed = time.perf_counter() - t0
    ok = (
        s_fixed["mean_regret"] <= s_fixed["bound"]
        and s_adapt["mean_regret"] <= s_adapt["bound"]
        and s_fixed["mean_regret"] < s_unif["mean_regret"]
        and s_fixed["violations"] == 0
        and s_adapt["violations"] == 0
    )
    report(
        5, ok,
        f"fixed adversary {s_fixed['mean_regret']:.1f} <= bound {s_fixed['bound']:.1f}, "
        f"adaptive {s_adapt['mean_regret']:.1f} <= {s_adapt['bound']:.1f}, "
        f"uniform baseline {s_unif['mean_regret']:.1f}",
        elapsed, 300,
    )


def test_criterion_6_approximate_oracle_degradation():
    t0 = time.perf_counter()
    fixed = cfg("fixed_adversarial.json")
    deltas = [0.0, 0.02, 0.05, 0.1]
    per_seed = {}
    for delta in deltas:
        per_seed[delta] = np.array(
            run_suite({**fixed, "delta": delta}, SEEDS)["per_seed_regret"]
        )
    means = [per_seed[d].mean() for d in deltas]
    monotone = True
    for lo, hi in zip(deltas, deltas[1:]):
        diff = per_seed[hi] - per_seed[lo]
        se = diff.std(ddof=1) / np.sqrt(diff.size)
        monotone = monotone and diff.mean() >= -se
    excess = np.array(means) - means[0]
    slope = float(np.polyfit(deltas, excess, 1)[0])
    n = fixed["n"]
    elapsed = time.perf_counter() - t0
    ok = monotone and slope <= 3 * n
    report(
        6, ok,
        f"mean regret {['%.2f' % m for m in means]} non-decreasing within 1 SE, "
        f"excess slope {slope:.1f} <= {3 * n}",
        elapsed, 600,
    )


def test_criterion_7_regularized_variant():
    t0 = time.perf_counter()
    reg_cfg = cfg("regularized_pairwise.json")
    pc = build_policy_class(reg_cfg)
    env = build_environment(reg_cfg, pc)
    n = reg_cfg["n"]

    # lambda = 0 reproduces the plain strategy's transcripts bit for bit
    identical = True
    for seed in range(5):
        tr_reg = run_episode(
            make_strategy({**reg_cfg, "lambda": 0.0}, pc, gamma=0.25), env, n, seed
        )
        tr_plain = run_episode(
            make_strategy({**reg_cfg, "algorithm": "bistro"}, pc, gamma=0.25), env, n, seed
        )
        identical = identical and (
            np.array_equal(tr_reg.distributions, tr_plain.distributions)
            and np.array_equal(tr_reg.actions, tr_plain.actions)
            and np.array_equal(tr_reg.observed_costs, tr_plain.observed_costs)
        )

    summary = run_suite(reg_cfg, SEEDS)  # lambda > 0, benchmark filtered by K
    elapsed = time.perf_counter() - t0
    ok = identical and summary["mean_regret"] <= summary["bound"]
    report(
        7, ok,
        f"lambda=0 transcripts bit-identical over 5 seeds; lambda={reg_cfg['lambda']} "
        f"mean regret {summary['mean_regret']:.3f} <= estimated bound {summary['bound']:.3f}",
        elapsed, 300,
    )


def test_criterion_8_superset_relaxation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1008)
    dominated = True
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 9))
        pc = PolicyClass(rng.integers(0, d, (int(rng.integers(1, 9)), 3)), d)
        Y = rng.uniform(-2, 1.5, (d, n))
        ctxs = rng.integers(0, 3, n)
        dominated = dominated and BoxRelaxedOracle()(ctxs, Y) <= ExactErmOracle(pc)(
            ctxs, Y) + 1e-12

    fixed = cfg("fixed_adversarial.json")
    summary = run_suite({**fixed, "algorithm": "bistro_relaxed"}, SEEDS)
    n, d = fixed["n"], fixed["d"]
    rad_box = 0.75 * n  # d=2: per column E max(0, max sign) = 3/4
    bound = 2.0 * np.sqrt(2 * d * n * rad_box)
    elapsed = time.perf_counter() - t0
    ok = dominated and summary["rad_estimate"] == rad_box and summary["mean_regret"] <= bound
    report(
        8, ok,
        f"10^3 domination checks; box-oracle mean regret {summary['mean_regret']:.1f} "
        f"<= 2*sqrt(2dn*0.75n) = {bound:.1f}",
        elapsed, 300,
    )


def test_criterion_9_adversarial_reduction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1009)
    worst_gap, worst_init = -np.inf, np.inf
    for _ in range(100):
        X = int(rng.integers(1, 3))
        n = int(rng.integers(1, 4))
        pc = PolicyClass(rng.integers(0, 2, (int(rng.integers(1, 5)), X)), 2)
        rel = ExpWeightsRelaxation(pc, n)
        t = int(rng.integers(0, n))
        worst_gap = max(
            worst_gap,
            expweights_recursive_gap(rel, rng.random((t, 2)), rng.integers(0, X, t), X),
        )
        worst_init = min(
            worst_init,
            expweights_initial_margin(rel, rng.random((n, 2)), rng.integers(0, X, n)),
        )
    reduced = check_reduction_admissibility(
        PolicyClass.all_labelings(2, 2), [0.6, 0.4], n=3, gamma=0.25, seed=9,
        initial_checks=200,
    )

    scaled_ok = True
    bounds_ok = True
    for name in ("fixed_adversarial.json", "adaptive_adversary.json"):
        config = cfg(name)
        summary = run_suite({**config, "algorithm": "adversarial_reduction"}, SEEDS)
        bounds_ok = bounds_ok and summary["mean_regret"] <= summary["bound"]
        pc = build_policy_class(config)
        env = build_environment(config, pc)
        strategy = make_strategy({**config, "algorithm": "adversarial_reduction"}, pc,
                                 gamma=summary["gamma_used"])
        scaled = scaled_history(run_episode(strategy, env, config["n"], seed=0),
                                summary["gamma_used"])
        scaled_ok = scaled_ok and (
            scaled.min() >= 0.0 and scaled.max() <= 1.0
        )
    elapsed = time.perf_counter() - t0
    ok = (
        worst_gap <= 1e-9
        and worst_init >= -1e-9
        and reduced.ok()
        and all(s.margin <= 1e-9 for s in reduced.steps)
        and bounds_ok
        and scaled_ok
    )
    report(
        9, ok,
        f"exp-weights recursive gap {worst_gap:+.1e}, initial margin {worst_init:+.1e}, "
        f"reduced recursion exact, scaled estimates in [0,1]^d, bounds hold",
        elapsed, 300,
    )


def test_criterion_10_determinism_and_accounting(tmp_path):
    t0 = time.perf_counter()
    fixed = cfg("fixed_adversarial.json")
    outs = [tmp_path / "a", tmp_path / "b"]
    summaries = [run_suite(fixed, [0, 1], out_dir=str(out)) for out in outs]
    identical = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("summary.json", "episode_0.csv", "episode_1.csv")
    )

    calls_ok = summaries[0]["oracle_calls_total"] == 2 * fixed["n"] * 2  # d * n per episode
    for playouts in (1, 3):
        config = {
            **cfg("regularized_pairwise.json"), "algorithm": "bistro",
            "playouts": playouts,
        }
        summary = run_suite(config, [0])
        calls_ok = calls_ok and summary["oracle_calls_total"] == 2 * playouts * config["n"]
    elapsed = time.perf_counter() - t0
    ok = identical and calls_ok
    report(
        10, ok,
        "byte-identical CSV/JSON outputs; oracle calls equal d*playouts*n per episode",
        elapsed, 300,
    )
