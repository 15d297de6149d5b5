"""Regret reference: a change to play shows its regret, not only its bits.

The goldens pin play to 1e-12, so a change meant to alter play re-records
them, and then nothing there says whether the new play is as good. The
end-to-end bound cannot say it either: on ``fixed_adversarial`` it is 4.6
times the regret. ``regret_reference.json`` holds, for each golden case,
the mean expected regret of ``run_suite`` over seeds 100-119 (fixed before
any outcome was seen, and not the goldens' 0-4) and its standard error.
A case passes while today's mean is at most the reference mean plus
3*sqrt(2) reference standard errors (three standard errors of the
difference of two such means) and at most the run's bound. The gate is
one-sided: lower regret is never a failure.

Its power, 3*sqrt(2)*stderr/mean at the reference: it resolves a +5%
change on the fixed-cost cases (``fixed_adversarial_bistro`` reads
93.06 +- 1.08, so its gate sits at 97.66; uniform play reads 107.56), but
only +45-65% on the adaptive ones (the reduction 45%, transductive BISTRO
46%, regularized BISTRO 63%, BISTRO 64%), and +65-148% on the fixed-cost
regularized ones, whose regret is below 1.

A re-record of a golden must keep this test passing. The reference itself
is re-recorded only in a commit of its own that gives the reason, and only
for the cases named (with no case named, the script lists them):

    PYTHONPATH=src python tests/test_regret_reference.py CASE [CASE ...]
"""

import json
import math
import os
import sys

import pytest

from bistro.runner import load_config, run_suite
from test_golden import CASES, CONFIG_DIR

REFERENCE = os.path.join(os.path.dirname(__file__), "regret_reference.json")
SEEDS = range(100, 120)
SPREAD = 3 * math.sqrt(2)  # reference standard errors a mean may rise by


def suite(name: str) -> dict:
    path, overrides = CASES[name]
    return run_suite({**load_config(os.path.join(CONFIG_DIR, path)), **overrides}, SEEDS)


def load_reference(path: str = REFERENCE) -> dict:
    with open(path) as f:
        return json.load(f)


@pytest.mark.parametrize("name", sorted(CASES))
def test_mean_regret_within_the_reference(name):
    ref, summary = load_reference()[name], suite(name)
    mean = summary["mean_regret"]
    gate = ref["mean_regret"] + SPREAD * ref["regret_stderr"]
    assert mean <= gate, f"mean regret {mean:.4f} above the reference gate {gate:.4f}"
    assert mean <= summary["bound"]


def record(names, path: str = REFERENCE) -> None:
    """Record the reference of each named case, and no other, into ``path``."""
    reference = load_reference(path) if os.path.exists(path) else {}
    for name in names:
        summary = suite(name)
        reference[name] = {key: summary[key] for key in ("mean_regret", "regret_stderr")}
        print(f"recorded {name}")
    with open(path, "w") as f:
        json.dump(reference, f, indent=2, sort_keys=True)
        f.write("\n")


def main(names, path: str = REFERENCE) -> int:
    known, unknown = " ".join(sorted(CASES)), sorted(set(names) - CASES.keys())
    if unknown:
        print(f"unknown cases {unknown}; known cases: {known}", file=sys.stderr)
        return 2
    if names:
        record(names, path)
    else:
        print(f"cases: {known}")
    return 0


def test_recorder_writes_only_the_cases_it_is_named(tmp_path, capsys):
    path = str(tmp_path / "reference.json")
    assert main([], path) == 0
    assert capsys.readouterr().out.split()[1:] == sorted(CASES)
    assert main(["regularized_pairwise", "nope"], path) == 2
    assert "'nope'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    main(["regularized_pairwise"], path)
    assert load_reference(path) == {"regularized_pairwise": load_reference()["regularized_pairwise"]}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
