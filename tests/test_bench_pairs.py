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



def test_gain_shown_needs_nine_tenths_of_the_pairs_and_a_difference_beyond_the_spread():
    # ten pairs: a metric that wins nine by more than the parent's spread shows
    # a gain; eight wins, a tie counting for neither, or a lower-is-better
    # metric whose medians differ by less than the spread, show none
    better = {"rounds_per_s": "higher", "round_ms.p50": "lower"}
    rates = [100.0, 102.0, 104.0, 106.0, 108.0, 110.0, 112.0, 114.0, 116.0, 118.0]

    def runs(gains, ms_gains):
        return [r for p, (rate, gain, ms_gain) in enumerate(zip(rates, gains, ms_gains), 1)
                for r in (run(p, "parent", rate, 2.0 + p / 10),
                          run(p, "change", rate + gain, 2.0 + p / 10 - ms_gain))]

    summary = load_script().summarize(runs([12.0] * 9 + [-1.0], [0.1] * 10), better)
    rate, ms = summary["w/rounds_per_s"], summary["w/round_ms.p50"]
    assert rate["parent_quartile_spread"] == pytest.approx(9.0)  # 113.5 - 104.5
    assert rate["change"]["median"] == 119.0
    assert rate["median_difference"] == pytest.approx(10.0)  # 119 - 109
    assert rate["gain_shown"] is True
    # the lower-is-better difference is signed so that a gain is positive
    assert ms["median_difference"] == pytest.approx(0.1)
    assert ms["parent_quartile_spread"] == pytest.approx(0.45)
    assert (ms["change_better_pairs"], ms["gain_shown"]) == (10, False)
    for gains in ([12.0] * 8 + [-1.0, -1.0], [12.0] * 8 + [0.0, -1.0]):
        rate = load_script().summarize(runs(gains, [0.1] * 10), better)["w/rounds_per_s"]
        assert rate["change_better_pairs"] == 8
        assert rate["gain_shown"] is False
