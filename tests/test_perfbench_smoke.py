"""The benchmark's own smoke test, run as part of the suite: the bench
imports and patches program names (``runner.rademacher_estimate``,
``strategies.waterfill``, ``strategy.oracle`` and others), so a rename or
deletion there must fail here, not only when the benchmark runs."""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def test_perfbench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "smoke.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
