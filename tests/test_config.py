import pytest

from bistro.config import CONFIG, get


def test_get_reads_a_key_or_its_rows_default():
    config = {"d": 2, "n": 4, "lambda": 1, "gamma": "auto", "eta": 2}
    assert get(config, "n") == 4
    # a number key reads as a float; "auto" stays a word
    assert get(config, "lambda") == 1.0 and type(get(config, "lambda")) is float
    assert type(get(config, "eta")) is float
    assert get(config, "gamma") == "auto"
    assert get({"d": 2, "gamma": 1}, "gamma") == 1.0 and type(get({"gamma": 1}, "gamma")) is float
    for key in ("pool_factor", "tune_samples", "tune_seed", "playouts", "epsilon", "algorithm",
                "horizon_mode", "context_dist", "K", "delta", "constraint"):
        assert get(config, key) == CONFIG[key].default
    assert get({"type": "adaptive"}, "rule", "cost_process") == "argmax_punish"
    assert get({"type": "pairwise"}, "weights", "constraint") == "uniform"
    with pytest.raises(KeyError):
        get({}, "n")  # a required key has no default
