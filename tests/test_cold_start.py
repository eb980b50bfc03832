"""Cold-start hygiene: a fresh process reaches its first estimate cheaply.

The default Table I thresholds and the default NIS bound are pinned
constants, and ``networkx`` loads only with :class:`RoadNetwork`, so the
first ``estimate`` in a process neither re-runs the steering study nor
imports scipy or networkx. The check runs in a subprocess because the
test session has long since imported both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

_SCRIPT = """
import json, sys

import numpy as np

import repro.datasets.steering_study as study
from repro import ROBUST_STAGES, GradientEstimationSystem, RunnerConfig, Smartphone
from repro import red_route, simulate_trip
from repro.eval.runner import system_config


def _no_study(config=None):
    raise AssertionError("run_steering_study ran for the default config")


study.run_steering_study = _no_study
route = red_route()
recording = Smartphone().record(simulate_trip(route, seed=0), np.random.default_rng(0))
cfg = system_config(RunnerConfig(stages=ROBUST_STAGES))
result = GradientEstimationSystem(route, config=cfg).estimate(recording)
print(json.dumps({
    "thresholds_pinned": cfg.detector.thresholds is study.DEFAULT_THRESHOLDS,
    "finite": bool(np.isfinite(result.fused.theta).all()),
    "health_ran": result.health is not None,
    "loaded": sorted(m for m in ("scipy", "scipy.stats", "networkx") if m in sys.modules),
}))
"""


def test_first_estimate_skips_study_scipy_and_networkx():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["thresholds_pinned"]
    assert report["finite"]
    assert report["health_ran"]
    assert report["loaded"] == []
