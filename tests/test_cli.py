import errno
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from bistro import runner
from bistro.cli import main
from bistro.config import check
from bistro.policies import PolicyClass
from bistro.runner import load_config
from bistro.strategies import RelaxationStrategy

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def cfg(name):
    return os.path.join(CONFIG_DIR, name)


def test_run_subcommand(tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "run", "--config", cfg("regularized_pairwise.json"),
        "--seeds", "2", "--out", str(out),
    ])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["algorithm"] == "bistro_regularized"
    assert sorted(os.listdir(out)) == ["episode_0.csv", "episode_1.csv", "summary.json"]
    printed = json.loads(capsys.readouterr().out)
    assert printed["mean_regret"] == summary["mean_regret"]


def test_run_algorithm_override_and_seed_list(tmp_path, capsys):
    code = main([
        "run", "--config", cfg("regularized_pairwise.json"),
        "--seeds", "3,5", "--algorithm", "uniform",
    ])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["algorithm"] == "uniform"
    assert printed["seeds"] == [3, 5]


@pytest.mark.parametrize("seeds", ["0", "-2", "1,-1", "2,2"])
def test_run_refuses_seed_lists_that_check_nothing(seeds, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--config", cfg("regularized_pairwise.json"), "--seeds", seeds,
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("bistro run: seeds must be")
    assert captured.err.count("\n") == 1
    assert captured.out == "" and not out.exists()


def test_run_names_seeds_it_cannot_read(capsys):
    for seeds in ("a", "1,b"):
        code = main(["run", "--config", cfg("regularized_pairwise.json"), "--seeds", seeds])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("bistro run: --seeds needs a count or a comma-separated")
        assert captured.err.count("\n") == 1
        assert captured.out == ""


@pytest.mark.parametrize("algorithm", ["bistro", "adversarial_reduction"])
def test_admissibility_names_a_negative_seed(algorithm, capsys):
    code = main(["admissibility", "--config", cfg("admissibility_small.json"),
                 "--algorithm", algorithm, "--seed", "-1", "--initial-checks", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "bistro admissibility: seed must be a non-negative integer; got -1\n"
    assert captured.out == ""


def test_run_refuses_an_out_that_cannot_be_a_directory(tmp_path, capsys, monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "x")

    def no_episode(*args):
        raise AssertionError("an episode ran")

    monkeypatch.setattr(runner, "run_episode", no_episode)
    code = main(["run", "--config", cfg("admissibility_small.json"), "--seeds", "2",
                 "--out", out])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (f"bistro run: cannot make the output directory {out!r}: "
                            f"{os.strerror(errno.ENOTDIR)}\n")
    assert captured.out == ""


@pytest.mark.parametrize("algorithm", ["bistro", "adversarial_reduction"])
@pytest.mark.parametrize("checks", ["0", "-1"])
def test_admissibility_refuses_initial_checks_that_check_nothing(algorithm, checks, capsys):
    code = main(["admissibility", "--config", cfg("admissibility_small.json"),
                 "--algorithm", algorithm, "--initial-checks", checks])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (f"bistro admissibility: initial_checks must be at least 1; "
                            f"got {checks}\n")
    assert captured.out == ""


def test_rademacher_subcommand(tmp_path, capsys):
    code = main(["rademacher", "--config", write_config(tmp_path, tune_samples=150)])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["samples"] == 150
    assert 0 < printed["tuned_gamma"] <= 0.5


# At 20 samples seeds 7 and 0 give the same estimate; seed 3 tells them apart.
@pytest.mark.parametrize("tune_seed", [7, 3])
def test_rademacher_prices_what_run_plays(tune_seed, tmp_path, capsys):
    # it tunes from the config's tuning keys, as run's tuning does
    config = {**load_config(cfg("fixed_adversarial.json")), "tune_samples": 20,
              "tune_seed": tune_seed}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["rademacher", "--config", str(path)]) == 0
    priced = json.loads(capsys.readouterr().out)
    assert main(["run", "--config", str(path), "--seeds", "1"]) == 0
    played = json.loads(capsys.readouterr().out)
    assert priced["samples"] == 20
    assert priced["tuned_gamma"] == played["gamma_used"]
    assert priced["regret_bound"] == played["bound"]


@pytest.mark.parametrize("flag", [["--samples", "5"], ["--seed", "1"]], ids=["samples", "seed"])
def test_rademacher_has_no_tuning_flags(flag, capsys):
    # the config's tune_samples and tune_seed are the only tuning inputs, as for run
    with pytest.raises(SystemExit) as exc:
        main(["rademacher", "--config", cfg("admissibility_small.json"), *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_admissibility_refuses_transductive_configs(tmp_path, capsys):
    # the checker enumerates i.i.d. futures, so a PASS would certify iid_pool's relaxation
    code = main(["admissibility", "--config", write_config(tmp_path, horizon_mode="transductive"),
                 "--initial-checks", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("bistro admissibility: config key 'horizon_mode' must be")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_admissibility_subcommand(capsys):
    code = main([
        "admissibility", "--config", cfg("admissibility_small.json"), "--initial-checks", "50",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    assert "round 3" in out


def test_admissibility_has_no_samples_flag(capsys):
    # the check enumerates every future; there is nothing to sample
    with pytest.raises(SystemExit) as exc:
        main(["admissibility", "--config", cfg("admissibility_small.json"), "--samples", "10"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --samples 10" in capsys.readouterr().err


def test_admissibility_reduction(capsys):
    code = main([
        "admissibility", "--config", cfg("admissibility_small.json"),
        "--algorithm", "adversarial_reduction", "--initial-checks", "50",
    ])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("algorithm", ["bistro", "bistro_relaxed", "adversarial_reduction"])
@pytest.mark.parametrize("gamma", ["auto", None])
def test_admissibility_checks_the_rate_run_plays(gamma, algorithm, tmp_path, capsys):
    # "auto" and a missing gamma are tuned as run tunes them
    config = write_config(tmp_path, gamma=gamma, algorithm=algorithm)
    assert main(["run", "--config", config, "--seeds", "1"]) == 0
    played = json.loads(capsys.readouterr().out)["gamma_used"]
    assert main(["admissibility", "--config", config, "--initial-checks", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"algorithm={algorithm} gamma={played} ")
    assert out.endswith("PASS\n")


def test_config_and_learners_agree_on_the_rate():
    # the table's rate is the learners' (0, 1/d], to the last ulp around 1/d
    def accepts(make) -> bool:
        try:
            make()
        except ValueError:
            return False
        return True

    disagreements = []
    for d in range(1, 200):
        pc = PolicyClass.all_labelings(d, 1)
        doc = {"d": d, "n": 1, "policy_class": {"family": "all_labelings", "d": d, "universe": 1},
               "cost_process": {"type": "adaptive"}}
        below = above = 1.0 / d
        gammas = [below]
        for _ in range(4):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, 1.0)
            gammas += [below, above]
        for gamma in gammas:
            if (accepts(lambda: check({**doc, "gamma": gamma}))
                    != accepts(lambda: RelaxationStrategy(pc, gamma))):
                disagreements.append((d, gamma))
    assert disagreements == []


NULL = object()  # a key's value that write_config writes as JSON null


def write_config(tmp_path, **changes):
    """admissibility_small.json with keys set (a value of None drops the key,
    and NULL sets it to null)."""
    with open(cfg("admissibility_small.json")) as f:
        doc = json.load(f)
    doc.update(changes)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({k: None if v is NULL else v
                                for k, v in doc.items() if v is not None}))
    return str(path)


def test_admissibility_rejects_removed_sign_scale_key(tmp_path, capsys):
    code = main(["admissibility", "--config", write_config(tmp_path, sign_scale=1.0),
                 "--initial-checks", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("bistro admissibility: ") and "sign_scale" in captured.err
    assert captured.out == ""


def test_run_rejects_unknown_config_key(tmp_path, capsys):
    code = main(["run", "--config", write_config(tmp_path, playout=3), "--seeds", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("bistro run: ") and "'playout'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["run", "rademacher", "admissibility"])
def test_missing_required_key_exits_2(command, tmp_path, capsys):
    code = main([command, "--config", write_config(tmp_path, n=None)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"bistro {command}: missing required config keys ['n']\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["run", "rademacher"])
@pytest.mark.parametrize("changes, named", [
    ({"context_dist": {"features": [[1.0], [0.0]]}}, "context_dist"),
    ({"context_dist": [0.6, 0.4]}, "context_dist"),
    ({"cost_process": {"type": "adaptive", "sees_current_context": False}},
     "'sees_current_context'"),
    ({"policy_class": {"family": "all_labelings", "d": 2, "univers": 2}}, "'univers'"),
    ({"policy_class": {"path": "policies8.json", "d": 2}}, "'d'"),
    ({"policy_class": {"family": "all_labelings", "d": 3, "universe": 2}}, "config d"),
    ({"context_dist": {"probs": [0.2, 0.3, 0.5]}}, "universe"),
    ({"cost_process": {"type": "iid_bernoulli"}}, "'means'"),
    ({"cost_process": {"type": "fixed_table", "path": "c.csv", "values": [[0.5, 0.5]] * 3}},
     "'values'"),
    ({"constraint": {"type": "coverage", "partition": [[0, 1], [2, 3]]}}, "'k'"),
    ({"constraint": {"type": "pairwise", "weight": [[0, 5], [5, 0]]}}, "'weight'"),
    ({"gamma": "abc"}, "'gamma'"),
    ({"policy_class": {"family": "trees", "d": 2}}, "'trees'"),
    ({"cost_process": {"type": "poisson"}}, "'poisson'"),
    # K and eta are read as numbers wherever they are read, not only by the bound
    ({"algorithm": "bistro_regularized", "constraint": {"type": "pairwise"}, "lambda": 0.1,
      "K": "4"}, "'K'"),
    ({"algorithm": "adversarial_reduction", "eta": "0.5"}, "'eta'"),
    # integer keys refuse fractions, strings and negative values
    ({"playouts": 2.7}, "'playouts'"),
    ({"n": 2.5}, "'n'"),
    ({"playouts": "two"}, "'playouts'"),
    ({"tune_seed": -1}, "'tune_seed'"),
    ({"constraint": {"type": "coverage", "partition": [[0, 1, 2]], "k": 1.5}}, "'k'"),
    # a nested document must be a JSON object
    ({"constraint": "pairwise"}, "constraint must be a JSON object"),
    ({"cost_process": "adaptive"}, "cost_process must be a JSON object"),
    ({"policy_class": "all_labelings"}, "policy_class must be a JSON object"),
    # so must the integers inside the policy class document
    ({"policy_class": {"family": "all_labelings", "d": 2, "universe": 2.5}}, "'universe'"),
    ({"policy_class": {"family": "all_labelings", "d": "2", "universe": 2}}, "'d'"),
    ({"policy_class": {"d": 2, "policies": [[1, 2], [2, 1]], "universe": 2.0}}, "'universe'"),
    # numeric arrays refuse strings and booleans, and the policies fractions
    pytest.param({"policy_class": {"d": 2, "policies": [[1.5, 2], [2, 1]]}},
                 "policy_class key 'policies' needs integer entries; got 1.5",
                 id="policies-fraction"),
    pytest.param({"policy_class": {"d": 2, "policies": [[1, True], [2, 1]]}},
                 "policy_class key 'policies' needs integer entries; got True",
                 id="policies-bool"),
    pytest.param({"policy_class": {"family": "argmax_linear", "weights": [[[1.0], ["a"]]]},
                  "context_dist": {"probs": [0.5, 0.5], "features": [[1.0], [-1.0]]}},
                 "policy_class key 'weights' needs numeric entries; got 'a'",
                 id="argmax-weights-string"),
    pytest.param({"context_dist": {"probs": [0.5, 0.5], "features": [[1.0], ["a"]]}},
                 "context_dist key 'features' needs numeric entries; got 'a'",
                 id="features-string"),
    pytest.param({"context_dist": {"probs": ["0.5", 0.5]}},
                 "context_dist key 'probs' needs numeric entries; got '0.5'", id="probs-string"),
    pytest.param({"context_dist": {"probs": [True, False]}},
                 "context_dist key 'probs' needs numeric entries; got True", id="probs-bool"),
    pytest.param({"cost_process": {"type": "fixed_table", "values": [[0.5, "a"]] * 3}},
                 "cost_process key 'values' needs numeric entries; got 'a'", id="values-string"),
    pytest.param({"cost_process": {"type": "iid_bernoulli", "means": [[0.5, 0.5], [0.5, "a"]]}},
                 "cost_process key 'means' needs numeric entries; got 'a'", id="means-string"),
    pytest.param({"cost_process": {"type": "iid_bernoulli", "means": [[0.5, 0.5], [0.5, None]]}},
                 "cost_process key 'means' needs numeric entries; got None", id="means-null"),
    pytest.param({"constraint": {"type": "pairwise", "weights": [[0, "x"], ["x", 0]]}},
                 "constraint key 'weights' needs numeric entries; got 'x'", id="weights-string"),
    pytest.param({"constraint": {"type": "pairwise", "weights": [[0, True], [True, 0]]}},
                 "constraint key 'weights' needs numeric entries; got True", id="weights-bool"),
    # numeric arrays are rectangular: rows of one length, entries at one depth
    pytest.param({"policy_class": {"d": 2, "policies": [[1, 2], [2]]}},
                 "policy_class key 'policies' needs a rectangular array", id="policies-ragged"),
    pytest.param({"cost_process": {"type": "iid_bernoulli", "means": [[0.5, 0.5], [0.5]]}},
                 "cost_process key 'means' needs a rectangular array", id="means-ragged"),
    pytest.param({"cost_process": {"type": "fixed_table", "values": [[0.5, 0.5], 0.5, [0.5]]}},
                 "cost_process key 'values' needs a rectangular array", id="values-depth"),
    pytest.param({"context_dist": {"probs": [0.5, [0.5]]}},
                 "context_dist key 'probs' needs a rectangular array", id="probs-depth"),
    pytest.param({"context_dist": {"probs": [0.5, 0.5], "features": [[1.0], [1.0, 2.0]]}},
                 "context_dist key 'features' needs a rectangular array", id="features-ragged"),
    pytest.param({"constraint": {"type": "pairwise", "weights": [[0, 1], [1]]}},
                 "constraint key 'weights' needs a rectangular array", id="weights-ragged"),
    pytest.param({"policy_class": {"family": "argmax_linear",
                                   "weights": [[[1.0], [1.0]], [[1.0]]]},
                  "context_dist": {"probs": [0.5, 0.5], "features": [[1.0], [-1.0]]}},
                 "policy_class key 'weights' needs a rectangular array",
                 id="argmax-weights-ragged"),
    # and hold no number NumPy cannot store
    pytest.param({"cost_process": {"type": "iid_bernoulli",
                                   "means": [[0.5, 0.5], [0.5, 10**400]]}},
                 "cost_process key 'means' needs entries that fit float", id="means-overflow"),
    # context_dist is "uniform" or a document with the generic document errors
    pytest.param({"context_dist": NULL}, "context_dist must be a JSON object; got None\n",
                 id="context_dist-null"),
    pytest.param({"context_dist": "zipf"}, "context_dist must be a JSON object; got 'zipf'\n",
                 id="context_dist-name"),
    pytest.param({"context_dist": {"features": [[1.0], [0.0]]}},
                 "missing required context_dist keys ['probs']\n", id="context_dist-no-probs"),
    pytest.param({"context_dist": {"probs": [0.5, 0.5], "feature": [[1.0], [0.0]]}},
                 "unknown context_dist keys ['feature']; known keys: ['features', 'probs']\n",
                 id="context_dist-unknown-key"),
    # shapes and variant tags the table leaves to the builders; a tag that is
    # not a string reaches its builder's refusal
    pytest.param({"cost_process": {"type": "fixed_table", "values": [0.1, 0.9]}},
                 "cost table must be (n, d)\n", id="values-vector"),
    pytest.param({"cost_process": {"type": "iid_bernoulli", "means": [0.5, 0.5]}},
                 "means must be (|X|, d)\n", id="means-vector"),
    pytest.param({"policy_class": {"family": 3, "d": 2, "universe": 2}},
                 "unknown policy family 3\n", id="family-number"),
    pytest.param({"policy_class": {"family": ["all_labelings"], "d": 2, "universe": 2}},
                 "unknown policy family ['all_labelings']\n", id="family-list"),
    pytest.param({"cost_process": {"type": 3}}, "unknown cost process 3\n", id="type-number"),
    pytest.param({"cost_process": {"type": ["adaptive"]}},
                 "unknown cost process ['adaptive']\n", id="type-list"),
    pytest.param({"constraint": {"type": 3}}, "unknown constraint type 3\n",
                 id="constraint-type-number"),
    pytest.param({"constraint": {"type": ["pairwise"]}},
                 "unknown constraint type ['pairwise']\n", id="constraint-type-list"),
])
def test_malformed_documents_exit_2(command, changes, named, tmp_path, capsys):
    seeds = ["--seeds", "1"] if command == "run" else []
    code = main([command, "--config", write_config(tmp_path, tune_samples=1, **changes), *seeds])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"bistro {command}: ") and named in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_a_config_that_is_not_an_object_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("[1, 2]")
    code = main(["run", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "bistro run: config must be a JSON object; got [1, 2]\n"
    assert captured.out == ""


UNREADABLE = {
    "config-missing": (None, "--config names"),
    "config-not-json": ("config", "--config names"),
    "policy_class-missing": ({"policy_class": {"path": "nope.json"}},
                             "policy_class key 'path' names"),
    "policy_class-not-json": ({"policy_class": {"path": "bad.txt"}},
                              "policy_class key 'path' names"),
    "policy_class-not-a-name": ({"policy_class": {"path": 5}},
                                "policy_class key 'path' needs a file name; got 5"),
    "cost_process-missing": ({"cost_process": {"type": "fixed_table", "path": "nope.csv"}},
                             "cost_process key 'path' names"),
    "cost_process-not-numbers": ({"cost_process": {"type": "fixed_table", "path": "bad.txt"}},
                                 "cost_process key 'path' names"),
    "cost_process-a-directory": ({"cost_process": {"type": "fixed_table", "path": "."}},
                                 "cost_process key 'path' names"),
}


@pytest.mark.parametrize("command", ["run", "rademacher", "admissibility"])
@pytest.mark.parametrize("case", UNREADABLE)
def test_unreadable_files_exit_2_naming_their_key(command, case, tmp_path, capsys):
    # a file the config names, or the config itself, that cannot be opened or
    # parsed is a config error: exit 2 with one line naming its key
    changes, named = UNREADABLE[case]
    (tmp_path / "bad.txt").write_text("0.5,zero\n0.5,0.5\n")
    if changes is None:
        path = str(tmp_path / "nope.json")
    elif changes == "config":
        path = str(tmp_path / "bad.txt")
    else:
        path = write_config(tmp_path, **changes)
    code = main([command, "--config", path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"bistro {command}: {named}")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


# Each is refused by every command, which builds the class first; run's ids
# are the case names alone.
RANGE_ERRORS = {
    "lambda": ({"lambda": -1}, "config key 'lambda' must be at least 0"),
    "lambda-nan": ({"lambda": float("nan")}, "config key 'lambda' must be at least 0"),
    "K": ({"K": -1}, "config key 'K' must be at least 0"),
    "tune_samples": ({"tune_samples": 0}, "config key 'tune_samples' must be at least 1"),
    "d-zero": ({"d": 0}, "config key 'd' must be at least 1; got 0"),
    "n-zero": ({"n": 0}, "config key 'n' must be at least 1; got 0"),
    "policy_class-d-zero": ({"policy_class": {"family": "all_labelings", "d": 0, "universe": 2}},
                            "policy_class key 'd' must be at least 1; got 0"),
    "playouts": ({"playouts": 0}, "config key 'playouts' must be at least 1"),
    "delta": ({"delta": -1}, "config key 'delta' must be at least 0"),
    "pool_factor": ({"pool_factor": 0}, "config key 'pool_factor' must be at least 1"),
    "horizon_mode": ({"horizon_mode": "bogus"}, "config key 'horizon_mode' must be one of"),
    # a rate outside (0, 1/d] (d = 2 here) and infinite numbers
    "gamma-zero": ({"gamma": 0}, "config key 'gamma' must be \"auto\" or in (0, 1/d]"),
    "gamma-above": ({"gamma": 0.6}, "config key 'gamma' must be \"auto\" or in (0, 1/d]"),
    "gamma-nan": ({"gamma": float("nan")}, "config key 'gamma' must be \"auto\" or in (0, 1/d]"),
    "lambda-inf": ({"algorithm": "bistro_regularized", "constraint": {"type": "pairwise"},
                    "K": 2, "lambda": float("inf")}, "config key 'lambda' must be finite"),
    "K-inf": ({"K": float("inf")}, "config key 'K' must be finite"),
    "eta-inf": ({"algorithm": "adversarial_reduction", "eta": float("inf")},
                "config key 'eta' must be finite"),
    "eta-nan": ({"eta": float("nan")}, "config key 'eta' must be finite"),
    "delta-inf": ({"delta": float("inf")}, "config key 'delta' must be finite"),
    "epsilon-inf": ({"epsilon": float("-inf")}, "config key 'epsilon' must be finite"),
    # the rates: eta > 0 and epsilon in (0, 1], whichever algorithm reads them
    "eta-zero": ({"eta": 0}, "config key 'eta' must be positive"),
    "eta-negative": ({"eta": -1}, "config key 'eta' must be positive"),
    "epsilon-zero": ({"epsilon": 0}, "config key 'epsilon' must lie in (0, 1]"),
    "epsilon-above": ({"epsilon": 1.5}, "config key 'epsilon' must lie in (0, 1]"),
    # shapes the episode would meet too late (d = 2, n = 3, |X| = 2 here)
    "table-wide": ({"cost_process": {"type": "fixed_table", "values": [[0.5] * 3] * 3}},
                   "cost_process table must have d = 2 columns and at least n = 3 rows"),
    "table-short": ({"cost_process": {"type": "fixed_table", "values": [[0.5] * 2] * 2}},
                    "cost_process table must have d = 2 columns and at least n = 3 rows"),
    "means-short": ({"cost_process": {"type": "iid_bernoulli", "means": [[0.5] * 2]}},
                    "cost_process means must be (|X|, d) = (2, 2)"),
    "means-wide": ({"cost_process": {"type": "iid_bernoulli", "means": [[0.5] * 3] * 2}},
                   "cost_process means must be (|X|, d) = (2, 2)"),
    "partition-overlap": ({"constraint": {"type": "coverage", "partition": [[0, 1], [1, 2]],
                                          "k": 1}, "K": 4},
                          "constraint partition must cover the round indices"),
    "partition-fraction": ({"constraint": {"type": "coverage", "partition": [[0.5, 1, 2]],
                                           "k": 1}},
                           "constraint key 'partition' needs lists of integer round indices"),
    "partition-flat": ({"constraint": {"type": "coverage", "partition": [0, 1, 2], "k": 1}},
                       "constraint key 'partition' needs lists of integer round indices"),
    "partition-short": ({"constraint": {"type": "coverage", "partition": [[0, 1]], "k": 1}},
                        "constraint partition covers 2 rounds; config key 'n' is 3"),
    "weights-shape": ({"constraint": {"type": "pairwise", "weights": [[0, 1, 1], [1, 0, 1],
                                                                      [1, 1, 0]]}},
                      "constraint weights must be (|X|, |X|) = (2, 2)"),
    # integers beyond int64, which NumPy cannot store
    "policies-int64": ({"policy_class": {"d": 2, "policies": [[1, 2**70], [2, 1]]}},
                       f"policy_class key 'policies' needs entries that fit int64; got {2**70}"),
    "partition-int64": ({"constraint": {"type": "coverage", "partition": [[0, 1, 2**70]],
                                        "k": 1}},
                        "constraint key 'partition' needs lists of integer round indices"),
    # the adaptive rule is a name the table knows, not a value play would call
    **{f"rule-{case}": ({"cost_process": {"type": "adaptive", "rule": rule}},
                        f"cost_process key 'rule' must be one of ('argmax_punish',); got {got}\n")
       for case, rule, got in (("list", [1], "[1]"), ("number", 5, "5"), ("null", None, "None"),
                               ("bogus", "bogus", "'bogus'"))},
}
COMMANDS = ("run", "admissibility", "rademacher")


@pytest.mark.parametrize("command, changes, named", [
    *[(command, *RANGE_ERRORS[case]) for case in RANGE_ERRORS for command in COMMANDS],
    # admissibility refuses an algorithm it cannot check before reading the rest
    ("run", {"algorithm": "bogus"}, "config key 'algorithm' must be one of"),
    ("rademacher", {"algorithm": "bogus"}, "config key 'algorithm' must be one of"),
    ("run", {"algorithm": "ftl"}, "config key 'algorithm' must be one of"),
    # uniform plays no horizon mode, but the key is checked all the same
    ("run", {"algorithm": "uniform", "horizon_mode": "bogus"},
     "config key 'horizon_mode' must be one of"),
], ids=[*[case if command == "run" else f"{case}-{command}"
          for case in RANGE_ERRORS for command in COMMANDS],
        "algorithm", "algorithm-rademacher", "algorithm-ftl", "horizon_mode-uniform"])
def test_range_errors_name_their_key(command, changes, named, tmp_path, capsys):
    code = main([command, "--config", write_config(tmp_path, **changes)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"bistro {command}: {named}")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("changes, named", [
    ({"tune_samples": 0}, "config key 'tune_samples' must be at least 1"),
    ({"tune_seed": -1}, "config key 'tune_seed' needs a non-negative integer"),
], ids=["tune_samples-zero", "tune_seed-negative"])
def test_rademacher_flags_are_checked_as_their_keys(changes, named, tmp_path, capsys):
    # rademacher has no tuning flags; its tuning keys are refused before anything is built
    code = main(["rademacher", "--config", write_config(tmp_path, **changes)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"bistro rademacher: {named}")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("args", [["run", "--algorithm", "uniform"], ["run"], ["rademacher"],
                                  ["admissibility"]])
def test_nan_context_probability_exits_2(args, tmp_path, capsys):
    # NaN passes neither the sign nor the sum test, whatever the command samples with
    config = write_config(tmp_path, context_dist={"probs": [float("nan"), 1.0]})
    code = main([*args, "--config", config])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (f"bistro {args[0]}: context probabilities must be nonnegative "
                            "and sum to 1\n")
    assert captured.out == ""


@pytest.mark.parametrize("algorithm", ["bistro_relaxed", "bistro_regularized"])
def test_admissibility_checks_relaxed_variants(algorithm, tmp_path, capsys):
    # the regularized relaxation needs its constraint, lambda and budget K
    config = write_config(tmp_path, constraint={"type": "pairwise", "weights": "uniform"},
                          K=4, **{"lambda": 0.1})
    code = main(["admissibility", "--config", config, "--algorithm", algorithm,
                 "--initial-checks", "50"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith(f"algorithm={algorithm} gamma=0.25 ")
    assert "round 3" in out and out.endswith("PASS\n")


def test_admissibility_refuses_an_empty_filtered_benchmark(tmp_path, capsys):
    # C >= 1 > K for every policy on the one block of n = 3 rounds; run fails on it too
    config = write_config(tmp_path, constraint={"type": "coverage", "partition": [[0, 1, 2]],
                                                "k": 2}, K=0.5, **{"lambda": 0.1})
    code = main(["admissibility", "--config", config, "--algorithm", "bistro_regularized",
                 "--initial-checks", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ("bistro admissibility: benchmark class is empty after constraint "
                            "filtering\n")
    assert captured.out == ""


def test_admissibility_refuses_an_empty_horizon(tmp_path, capsys):
    code = main(["admissibility", "--config", write_config(tmp_path, n=0)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "bistro admissibility: config key 'n' must be at least 1; got 0\n"
    assert captured.out == ""


def test_run_refuses_an_empty_filtered_benchmark(tmp_path, capsys):
    # the budget is a config error: one line and exit 2, not an episode failure's traceback
    config = write_config(tmp_path, constraint={"type": "coverage", "partition": [[0, 1, 2]],
                                                "k": 2}, K=0.5, **{"lambda": 0.1})
    code = main(["run", "--config", config, "--algorithm", "bistro_regularized", "--seeds", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "bistro run: benchmark class is empty after constraint filtering\n"
    assert captured.out == ""


@pytest.mark.parametrize("algorithm", ["ftl", "uniform", "egreedy"])
def test_admissibility_refuses_unchecked_algorithms(algorithm, capsys):
    code = main(["admissibility", "--config", cfg("admissibility_small.json"),
                 "--algorithm", algorithm, "--initial-checks", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        "bistro admissibility: checks only 'bistro', 'bistro_relaxed', 'bistro_regularized', "
        f"'adversarial_reduction'; got algorithm {algorithm!r}\n")
    assert captured.out == ""


def test_numeric_error_policy_stays_inside_main(tmp_path, capsys):
    before = np.geterr()
    assert main(["rademacher", "--config", write_config(tmp_path, tune_samples=5)]) == 0
    assert np.geterr() == before


def run_module(*args):
    """``python -m bistro.cli`` with ``args``, in a fresh interpreter whose
    stderr is the process's own, logging's last-resort handler included."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "bistro.cli", *args],
                          capture_output=True, text=True, env=env, timeout=60)


def test_module_entry_point_exits_with_mains_status():
    done = run_module("admissibility", "--config", cfg("admissibility_small.json"),
                      "--algorithm", "ftl")
    assert done.returncode == 2
    assert done.stderr.startswith("bistro admissibility: checks only ")


def test_a_rate_tuned_past_1_over_d_writes_nothing_to_stderr(tmp_path):
    # both commands tune this config's gamma above 1/d = 0.5; the clamp shows
    # as the rate they report, and a run that succeeds writes nothing else
    done = run_module("rademacher", "--config", cfg("admissibility_small.json"))
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["tuned_gamma"] == 0.5
    done = run_module("admissibility", "--config", write_config(tmp_path, gamma="auto"),
                      "--initial-checks", "5")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("algorithm=bistro gamma=0.5 ")


def test_readme_cli_block_names_every_subcommand(capsys):
    # the README's CLI block runs exactly the subcommands main's parser accepts
    with pytest.raises(SystemExit):
        main(["--help"])
    accepted = set(re.search(r"\{([^}]+)\}", capsys.readouterr().out)[1].split(","))
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as f:
        block = f.read().split("## CLI\n", 1)[1].split("```")[1]
    assert {line.split()[1] for line in block.splitlines() if line.startswith("bistro ")} == accepted
