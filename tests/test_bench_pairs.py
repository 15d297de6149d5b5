import importlib.util
import json
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "bench_pairs.py")


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def run(pair, side, rate, ms):
    metrics = {"w/rounds_per_s": {"value": rate, "unit": "1/s"},
               "w/round_ms.p50": {"value": ms, "unit": "ms"}}
    return {"pair": pair, "side": side, "seed": pair,
            "last_line": json.dumps({"failed": 0, "attempted": 1, "metrics": metrics})}


def test_summary_counts_wins_by_each_metrics_direction():
    runs = [run(1, "parent", 10.0, 2.0), run(1, "change", 12.0, 2.0),
            run(2, "change", 9.0, 1.0), run(2, "parent", 11.0, 3.0),
            run(3, "parent", 12.0, 4.0), run(3, "change", 14.0, 5.0)]
    summary = load_script().summarize(runs, {"rounds_per_s": "higher", "round_ms.p50": "lower"})
    rate, ms = summary["w/rounds_per_s"], summary["w/round_ms.p50"]
    assert rate["parent"] == {"median": 11.0, "q1": 10.5, "q3": 11.5}
    assert rate["change"] == {"median": 12.0, "q1": 10.5, "q3": 13.0}
    assert (rate["change_better_pairs"], rate["tied_pairs"]) == (2, 0)
    assert rate["ratio_of_medians"] == pytest.approx(12 / 11)
    assert (ms["change_better_pairs"], ms["tied_pairs"]) == (1, 1)

