"""Golden transcripts: gamma, actions and q of ten committed instances,
seeds 0-4. The first five were recorded from the sequence-form oracles;
the transductive, coverage, approximate-oracle, multi-playout and
adaptive regularized cases were recorded from the shipped play they
cover, before any change to it. The adaptive regularized case is the
bench's ``regularized`` shape: under ``argmax_punish`` costs an ulp in a
value can flip an action, which the fixed-cost n = 6 cases never show.

A change that only re-associates float sums must replay them: identical
actions, and gamma and every q within 1e-12. Re-record only the cases a
change is meant to alter (with no case named, the script lists them):

    PYTHONPATH=src python tests/test_golden.py CASE [CASE ...]
"""

import json
import os
import sys

import numpy as np
import pytest

from bistro.runner import (
    build_environment,
    build_policy_class,
    draw_action,
    load_config,
    make_strategy,
    resolve_strategy_params,
    run_episode,
)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
SEEDS = range(5)
TOL = 1e-12

TRANSDUCTIVE = {"horizon_mode": "transductive"}
COVERAGE = {"type": "coverage", "partition": [[0, 1, 2], [3, 4, 5]], "k": 1}
# pairwise-penalized play on all 16 labelings of 4 contexts, n = 128: the
# class holds the constant policies, which alone meet the budget K at this n
ADAPTIVE_REGULARIZED = {"algorithm": "bistro_regularized", "n": 128, "gamma": 0.25,
                        "policy_class": {"family": "all_labelings", "d": 2, "universe": 4},
                        "constraint": {"type": "pairwise", "weights": "uniform"},
                        "lambda": 0.1, "K": 4}

# golden name -> (config file, config overrides)
CASES = {
    "fixed_adversarial_bistro": ("fixed_adversarial.json", {}),
    "adaptive_adversary_bistro": ("adaptive_adversary.json", {}),
    "regularized_pairwise": ("regularized_pairwise.json", {}),
    "fixed_adversarial_bistro_relaxed": ("fixed_adversarial.json",
                                         {"algorithm": "bistro_relaxed"}),
    "adaptive_adversary_adversarial_reduction": ("adaptive_adversary.json",
                                                 {"algorithm": "adversarial_reduction"}),
    "regularized_pairwise_transductive": ("regularized_pairwise.json", TRANSDUCTIVE),
    "regularized_coverage_transductive": ("regularized_pairwise.json",
                                          {**TRANSDUCTIVE, "constraint": COVERAGE}),
    "fixed_adversarial_bistro_delta_playouts": ("fixed_adversarial.json",
                                                {"delta": 0.05, "playouts": 3}),
    "adaptive_adversary_bistro_transductive": ("adaptive_adversary.json", TRANSDUCTIVE),
    "adaptive_adversary_bistro_regularized": ("adaptive_adversary.json", ADAPTIVE_REGULARIZED),
}


def play(name: str) -> dict:
    """Gamma and the per-seed actions and distributions of one case."""
    path, overrides = CASES[name]
    config = {**load_config(os.path.join(CONFIG_DIR, path)), **overrides}
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


def load_golden(name: str) -> dict:
    with open(golden_path(name)) as f:
        return json.load(f)


def assert_replays(name: str) -> None:
    golden, got = load_golden(name), play(name)
    assert abs(got["gamma"] - golden["gamma"]) <= TOL
    assert sorted(got["episodes"]) == sorted(golden["episodes"])
    for seed, want in golden["episodes"].items():
        have = got["episodes"][seed]
        assert have["actions"] == want["actions"], f"seed {seed}: actions differ"
        dq = np.abs(np.array(have["q"]) - np.array(want["q"])).max()
        assert dq <= TOL, f"seed {seed}: max |dq| = {dq:.3e}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_transcript(name):
    assert_replays(name)


def test_goldens_blind_to_the_playout_draws_replay_unmodified():
    # The box prices every action alike whatever the playouts draw, so its
    # golden is uniform play, the actions drawn from (1/2, 1/2) by the
    # episode's action stream; the reduction draws no playouts. Neither
    # golden was re-recorded when the playout draws changed.
    for seed, episode in load_golden("fixed_adversarial_bistro_relaxed")["episodes"].items():
        act_rng = np.random.default_rng(np.random.SeedSequence(int(seed)).spawn(5)[3])
        assert all(q == [0.5, 0.5] for q in episode["q"])
        assert episode["actions"] == [draw_action(act_rng, [0.5, 0.5], 2)
                                      for _ in episode["actions"]]
    assert_replays("fixed_adversarial_bistro_relaxed")
    assert_replays("adaptive_adversary_adversarial_reduction")


def record(names, directory: str = GOLDEN_DIR) -> None:
    """Record the golden of each named case, and no other, into ``directory``."""
    os.makedirs(directory, exist_ok=True)
    for name in names:
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w") as f:
            json.dump(play(name), f, separators=(",", ":"))
            f.write("\n")
        print(f"recorded {path}")


def main(names, directory: str = GOLDEN_DIR) -> int:
    known, unknown = " ".join(sorted(CASES)), sorted(set(names) - CASES.keys())
    if unknown:
        print(f"unknown cases {unknown}; known cases: {known}", file=sys.stderr)
        return 2
    if names:
        record(names, directory)
    else:
        print(f"cases: {known}")
    return 0


def test_recorder_writes_only_the_cases_it_is_named(tmp_path, capsys):
    assert main([], str(tmp_path)) == 0
    assert capsys.readouterr().out.split()[1:] == sorted(CASES)
    assert main(["fixed_adversarial_bistro", "nope"], str(tmp_path)) == 2
    assert "'nope'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    main(["fixed_adversarial_bistro"], str(tmp_path / "golden"))
    assert os.listdir(tmp_path / "golden") == ["fixed_adversarial_bistro.json"]
    with open(tmp_path / "golden" / "fixed_adversarial_bistro.json") as f:
        assert json.load(f) == load_golden("fixed_adversarial_bistro")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
