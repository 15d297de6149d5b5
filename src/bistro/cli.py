"""Command-line harness: run episode suites, estimate class complexity and
check relaxation admissibility."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .admissibility import check_bistro_admissibility, check_reduction_admissibility
from .config import get, load_config
from .runner import (
    RELAXATIONS,
    build_constraint,
    build_environment,
    build_policy_class,
    relaxation,
    resolve_strategy_params,
    run_suite,
)


def _parse_seeds(spec: str) -> list[int]:
    try:
        if "," in spec:
            return [int(s) for s in spec.split(",") if s]
        return list(range(int(spec)))
    except ValueError:
        raise ValueError(f"--seeds needs a count or a comma-separated list of integers; "
                         f"got {spec!r}") from None


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.algorithm:
        config["algorithm"] = args.algorithm
    summary = run_suite(config, _parse_seeds(args.seeds), out_dir=args.out)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 1 if summary["violations"] else 0


def _cmd_rademacher(args) -> int:
    config = load_config(args.config)
    pc = build_policy_class(config)
    env = build_environment(config, pc)
    config.update(algorithm="bistro", gamma="auto")  # tuned as run tunes bistro
    params = resolve_strategy_params(config, pc, env)
    print(json.dumps({"rad_estimate": params["rad_estimate"], "rad_stderr": params["rad_stderr"],
                      "samples": get(config, "tune_samples"), "tuned_gamma": params["gamma"],
                      "regret_bound": params["bound"]}, indent=2, sort_keys=True))
    return 0


def _cmd_admissibility(args) -> int:
    config = load_config(args.config)
    if args.algorithm:
        config["algorithm"] = args.algorithm
    algo = get(config, "algorithm")
    checked = (*RELAXATIONS, "adversarial_reduction")
    if algo not in checked:
        raise ValueError(f"checks only {', '.join(map(repr, checked))}; got algorithm {algo!r}")
    pc = build_policy_class(config)
    env = build_environment(config, pc)
    if algo in RELAXATIONS and get(config, "horizon_mode") == "transductive":
        raise ValueError("config key 'horizon_mode' must be 'iid_pool' to be checked; "
                         "the checker enumerates i.i.d. futures, not a known sequence")
    gamma, n, d = resolve_strategy_params(config, pc, env)["gamma"], config["n"], pc.d
    if algo == "adversarial_reduction":
        report = check_reduction_admissibility(
            pc, env.probs, n, gamma, eta=get(config, "eta"), seed=args.seed,
            initial_checks=args.initial_checks)
    else:
        oracle, budget = relaxation(config, pc, gamma)
        report = check_bistro_admissibility(
            pc, env.probs, n, gamma, oracle=oracle, budget=budget,
            constraint=build_constraint(config), K=get(config, "K"),
            seed=args.seed, initial_checks=args.initial_checks)
    print(f"algorithm={algo} gamma={gamma} d={d} n={n}")
    for step in report.steps:
        flag = "ok" if step.passed() else "VIOLATED"
        print(
            f"  round {step.round_index}: lhs={step.lhs:.6f} rhs={step.rhs:.6f} "
            f"margin={step.margin:+.6f} [{flag}]"
        )
    init = report.initial
    print(
        f"  horizon condition: {init.checks} endpoints, min margin "
        f"{init.min_margin:+.3e}, failures {init.failures}"
    )
    print("PASS" if report.ok() else "FAIL")
    return 0 if report.ok() else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bistro",
        description="Relaxation-based contextual bandits: simulation and verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an episode suite from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seeds", default="1", help="seed count k, or comma-separated list")
    p_run.add_argument("--out", default=None, help="directory for per-episode CSVs and summary")
    p_run.add_argument("--algorithm", default=None,
                       help="override the config's algorithm field")
    p_run.set_defaults(fn=_cmd_run)

    p_rad = sub.add_parser("rademacher", help="Monte-Carlo class complexity and tuned rate")
    p_rad.add_argument("--config", required=True)
    p_rad.set_defaults(fn=_cmd_rademacher)

    p_adm = sub.add_parser("admissibility", help="exact per-round inequality check")
    p_adm.add_argument("--config", required=True)
    p_adm.add_argument("--seed", type=int, default=0)
    p_adm.add_argument("--initial-checks", type=int, default=1000)
    p_adm.add_argument("--algorithm", default=None,
                       help="bistro, bistro_relaxed, bistro_regularized or "
                            "adversarial_reduction (default: the config's)")
    p_adm.set_defaults(fn=_cmd_admissibility)

    args = parser.parse_args(argv)
    # a config error exits 2 with one line, as argparse does; episode failures keep a traceback
    try:
        with np.errstate(all="raise", under="ignore"):
            return args.fn(args)
    except ValueError as exc:
        print(f"bistro {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
