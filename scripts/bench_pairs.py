"""Run the benchmark on two commits in alternating pairs and write BENCH_<label>.json.

    python scripts/bench_pairs.py --parent <rev> --change <rev> --label <label> --seed-base <n>

Both commits are exported with ``git archive`` into fresh temporary
directories. Each of the 10 pairs p runs ``perfbench/run.py --workload all
--seed <base + p> --seconds 5 --trace 0`` in each tree, the parent first in odd
pairs and the change first in even ones, and keeps the last line of standard output. The
summary gives each end-to-end metric's median and quartiles per side, the
pairs in which the change reads better by the metric's direction (from
``BENCHMARK.json``), the tied pairs and the ratio of the medians, and the
claim rule: the parent's quartile spread (q3 - q1), the difference of the
medians signed so that a gain is positive, and whether a gain is shown (the
change wins at least nine tenths of the pairs, ties counting for neither,
and the medians differ by more than the parent's spread). It also gives the
no-regression rule: the metric's ``bound`` from ``BENCHMARK.json``,
``worse_by`` (the relative change of the medians, signed so that worse is
positive), ``within_bound`` (``worse_by`` <= ``bound``), and ``unresolved``
(the parent's spread over its median exceeds the bound, and not every
change run beats every parent run, so the runs spread too widely to tell).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10  # fewer pairs cannot show a gain in nine tenths of them
SECONDS = 5


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The committed files of ``rev``, as ``git archive`` writes them, under ``dest``."""
    dest.mkdir()
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(tree: Path, seed: int) -> str:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"benchmark run in {tree} exited {proc.returncode}")
    return lines[-1]


def summarize(runs: list[dict], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> dict:
    """Per metric: each side's median and quartiles, the pairwise wins, and
    whether they show a gain; and, for a metric with a bound in ``bounds``,
    whether it stays within it."""
    values: dict[str, dict[str, dict[int, float]]] = {}
    for run in runs:
        for key, metric in json.loads(run["last_line"])["metrics"].items():
            side = values.setdefault(key, {s: {} for s in SIDES})[run["side"]]
            side[run["pair"]] = metric["value"]
    summary = {}
    for key in sorted(values):
        parent, change = values[key]["parent"], values[key]["change"]
        name = key.split("/", 1)[1]
        sign = 1.0 if better[name] == "higher" else -1.0
        diffs = [sign * (change[p] - parent[p]) for p in sorted(parent)]
        entry = {}
        for side, vals in (("parent", parent), ("change", change)):
            q1, median, q3 = np.percentile(list(vals.values()), [25, 50, 75])
            entry[side] = {"median": float(median), "q1": float(q1), "q3": float(q3)}
        entry["change_better_pairs"] = sum(diff > 0 for diff in diffs)
        entry["tied_pairs"] = sum(diff == 0 for diff in diffs)
        entry["ratio_of_medians"] = entry["change"]["median"] / entry["parent"]["median"]
        entry["parent_quartile_spread"] = entry["parent"]["q3"] - entry["parent"]["q1"]
        entry["median_difference"] = sign * (entry["change"]["median"]
                                             - entry["parent"]["median"])
        entry["gain_shown"] = bool(10 * entry["change_better_pairs"] >= 9 * len(diffs)
                                   and entry["median_difference"]
                                   > entry["parent_quartile_spread"])
        if bounds and name in bounds:
            base, bound = abs(entry["parent"]["median"]), bounds[name]
            entry["bound"] = bound
            entry["worse_by"] = -entry["median_difference"] / base
            entry["within_bound"] = bool(entry["worse_by"] <= bound)
            beats_every_parent_run = (min(sign * v for v in change.values())
                                      > max(sign * v for v in parent.values()))
            entry["unresolved"] = bool(entry["parent_quartile_spread"] > bound * base
                                       and not beats_every_parent_run)
        summary[key] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision of the parent commit")
    parser.add_argument("--change", required=True, help="revision of the change")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json at the root")
    parser.add_argument("--seed-base", type=int, required=True,
                        help="pair p runs with seed <seed-base> + p")
    args = parser.parse_args(argv)
    shas = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    better = {m["name"]: m["better"] for m in end_to_end}
    bounds = {m["name"]: m["bound"] for m in end_to_end}

    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(shas[side], trees[side])
        for pair in range(1, PAIRS + 1):
            seed = args.seed_base + pair
            for side in SIDES if pair % 2 else SIDES[::-1]:
                runs.append({"pair": pair, "side": side, "seed": seed,
                             "last_line": run_once(trees[side], seed)})
                print(f"pair {pair} {side} done", file=sys.stderr, flush=True)

    totals = {key: {side: sum(json.loads(r["last_line"])[key] for r in runs if r["side"] == side)
                    for side in SIDES} for key in ("failed", "attempted")}
    doc = {
        "command": f"python3 perfbench/run.py --workload all --seed <{args.seed_base}+pair> "
                   f"--seconds {SECONDS} --trace 0 | tail -1",
        "protocol": f"{PAIRS} pairs; each pair runs the parent commit and the change in "
                    "fresh git archive copies, parent first in odd pairs and change first in "
                    "even pairs; both sides of a pair use the same seed; no pinning beyond "
                    "the benchmark's own",
        "parent": shas["parent"],
        "change": shas["change"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "runs": runs,
        "summary": summarize(runs, better, bounds),
        **totals,
        "runs_note": "last_line is the verbatim last line of standard output of each run; "
                     "change_better_pairs counts the pairs in which the change reads better "
                     "by the metric's direction",
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
