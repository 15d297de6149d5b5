"""Golden transcripts: gamma, actions and q of five committed instances,
seeds 0-4, recorded from the sequence-form oracles.

A change that only re-associates float sums must replay them: identical
actions, and gamma and every q within 1e-12. Re-record only when a change
is meant to alter play:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os

import numpy as np
import pytest

from bistro.runner import (
    build_environment,
    build_policy_class,
    load_config,
    make_strategy,
    resolve_strategy_params,
    run_episode,
)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
SEEDS = range(5)
TOL = 1e-12

# golden name -> (config file, algorithm override)
CASES = {
    "fixed_adversarial_bistro": ("fixed_adversarial.json", None),
    "adaptive_adversary_bistro": ("adaptive_adversary.json", None),
    "regularized_pairwise": ("regularized_pairwise.json", None),
    "fixed_adversarial_bistro_relaxed": ("fixed_adversarial.json", "bistro_relaxed"),
    "adaptive_adversary_adversarial_reduction": ("adaptive_adversary.json",
                                                 "adversarial_reduction"),
}


def play(name: str) -> dict:
    """Gamma and the per-seed actions and distributions of one case."""
    path, algorithm = CASES[name]
    config = load_config(os.path.join(CONFIG_DIR, path))
    if algorithm is not None:
        config["algorithm"] = algorithm
    pc = build_policy_class(config)
    env = build_environment(config, pc)
    gamma = resolve_strategy_params(config, pc, env)["gamma"]
    episodes = {}
    for seed in SEEDS:
        tr = run_episode(make_strategy(config, pc, gamma), env, int(config["n"]), seed)
        episodes[str(seed)] = {"actions": tr.actions.tolist(), "q": tr.distributions.tolist()}
    return {"gamma": gamma, "episodes": episodes}


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.json")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_transcript(name):
    with open(golden_path(name)) as f:
        golden = json.load(f)
    got = play(name)
    assert abs(got["gamma"] - golden["gamma"]) <= TOL
    assert sorted(got["episodes"]) == sorted(golden["episodes"])
    for seed, want in golden["episodes"].items():
        have = got["episodes"][seed]
        assert have["actions"] == want["actions"], f"seed {seed}: actions differ"
        dq = np.abs(np.array(have["q"]) - np.array(want["q"])).max()
        assert dq <= TOL, f"seed {seed}: max |dq| = {dq:.3e}"


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for case in sorted(CASES):
        with open(golden_path(case), "w") as f:
            json.dump(play(case), f, separators=(",", ":"))
            f.write("\n")
        print(f"recorded {golden_path(case)}")
