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


def test_bound_rule_signs_the_change_so_that_worse_is_positive_and_flags_wide_spreads():
    # four pairs; a metric is within its bound when its median is worse by at
    # most the bound, and unresolved when the parent's spread over its median
    # exceeds the bound unless every change run beats every parent run
    better = {"rounds_per_s": "higher", "round_ms.p50": "lower"}
    script = load_script()

    def runs(parent_rates, change_rates, parent_ms, change_ms):
        return [r for p, (pr, cr, pm, cm) in enumerate(
                    zip(parent_rates, change_rates, parent_ms, change_ms), 1)
                for r in (run(p, "parent", pr, pm), run(p, "change", cr, cm))]

    tight = [99.0, 100.0, 100.0, 101.0]
    summary = script.summarize(
        runs(tight, [89.0, 90.0, 90.0, 91.0], [2.0] * 4, [2.6] * 4),
        better, {"rounds_per_s": 0.25, "round_ms.p50": 0.25})
    rate, ms = summary["w/rounds_per_s"], summary["w/round_ms.p50"]
    assert rate["bound"] == 0.25
    assert rate["worse_by"] == pytest.approx(0.1)  # 90 against 100, higher is better
    assert (rate["within_bound"], rate["unresolved"]) == (True, False)
    assert ms["worse_by"] == pytest.approx(0.3)  # 2.6 against 2.0, lower is better
    assert (ms["within_bound"], ms["unresolved"]) == (False, False)

    # a parent spread of half its median: unresolved, unless the change
    # beats every parent run
    wide, flat, bounds = [60.0, 80.0, 120.0, 140.0], [2.0] * 4, {"rounds_per_s": 0.25}
    rate = script.summarize(runs(wide, [90.0, 95.0, 105.0, 110.0], flat, flat),
                            better, bounds)["w/rounds_per_s"]
    assert rate["parent_quartile_spread"] == pytest.approx(50.0)  # 125 - 75
    assert (rate["worse_by"], rate["within_bound"], rate["unresolved"]) == (0.0, True, True)
    rate = script.summarize(runs(wide, [150.0, 150.0, 160.0, 170.0], flat, flat),
                            better, bounds)["w/rounds_per_s"]
    assert rate["worse_by"] == pytest.approx(-0.55)
    assert (rate["within_bound"], rate["unresolved"]) == (True, False)
    # a metric without a bound gets no rule
    assert "bound" not in script.summarize(runs(wide, wide, flat, flat), better,
                                           bounds)["w/round_ms.p50"]
