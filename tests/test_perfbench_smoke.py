"""The benchmark's own checks, run as part of the suite.

The bench imports and patches program names (``runner.rademacher_estimate``,
``strategies.waterfill``, ``strategy.oracle`` and others). Its smoke script
checks only that every metric is a finite number, so when the program stops
calling a patched name (a rename, or a call that goes around it) the layer
silently reads zero. Each traced layer must therefore see work here, and
such a change fails this module, not only the benchmark.
"""

import importlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
PERFBENCH = os.path.join(ROOT, "perfbench")

BISTRO_LAYERS = ("erm.calls", "waterfill.calls")
TRACED_LAYERS = {
    "small_class": BISTRO_LAYERS,
    "large_class": BISTRO_LAYERS + ("rademacher.samples",),
    "regularized": BISTRO_LAYERS + ("erm.penalty_share", "policies.actions_on_us.p50"),
    "reduction": ("adversarial.strategy_us.p50",),
}


def test_perfbench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "smoke.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module("run"), importlib.import_module("smoke")
    finally:
        sys.path.remove(PERFBENCH)


@pytest.mark.parametrize("name", sorted(TRACED_LAYERS))
def test_setup_checks_the_config_once(bench, name, monkeypatch):
    # a timed set-up walks the config table once
    run, smoke = bench
    calls = []
    check = run.build_policy_class.__globals__["check"]
    monkeypatch.setitem(run.build_policy_class.__globals__, "check",
                        lambda config: calls.append(1) or check(config))
    run.setup(smoke.tiny(name))
    assert len(calls) == 1


@pytest.mark.parametrize("name", sorted(TRACED_LAYERS))
def test_traced_layers_see_work(bench, name):
    run, smoke = bench
    result = run.measure(name, smoke.tiny(name), counted=2, seed=0, seconds=0, trace=True)
    assert result["failed"] == 0
    metrics = result["metrics"]
    idle = {key: metrics.get(key) for key in TRACED_LAYERS[name]
            if not metrics.get(key, 0.0) > 0}
    assert not idle, f"traced layers of {name} saw no work: {idle}"
