"""Cold-start hygiene: a fresh process reaches its first estimate cheaply.

The default Table I thresholds and the default NIS bound are pinned
constants, and ``networkx`` loads only with :class:`RoadNetwork`, so the
first ``estimate`` in a process neither re-runs the steering study nor
imports scipy or networkx. Every package ``__init__`` is a lazy name map,
so ``import repro`` loads no other module of the package, and the first
``estimate`` loads none of the evaluation sweeps, applications, CLIs or
process pools. Each check runs in a subprocess because the test session
has long since imported all of them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    "loaded": sorted(m for m in sys.argv[1:] if m in sys.modules),
}))
"""

#: Modules the first ``estimate`` has no use for.
UNUSED = (
    "scipy",
    "scipy.stats",
    "networkx",
    "repro.apps",
    "repro.emissions",
    "repro.lint",
    "repro.eval.grid",
    "repro.eval.gps_denied",
    "repro.eval.parallel",
    "repro.obs.export",
    "repro.obs.profile",
    "repro.core.online",
    "concurrent.futures.process",
)

_IMPORT_SCRIPT = """
import json, sys

before = set(sys.modules)
import repro
print(json.dumps(sorted(m for m in sys.modules if m not in before)))
"""

_FACADES_SCRIPT = """
import importlib, json, pkgutil, types

import repro

packages = ["repro"] + [
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg
]
report = {}
for name in packages:
    package = importlib.import_module(name)
    exported = [n for n in package.__all__ if n != "__version__"]
    eager = [n for n in exported if n in vars(package)]
    undir = [n for n in exported if n not in dir(package)]
    values = {n: getattr(package, n) for n in exported}
    uncached = [n for n in exported if vars(package).get(n) is not values[n]]
    modules = [n for n, value in values.items() if isinstance(value, types.ModuleType)]
    try:
        package.no_such_name
        unknown = None
    except AttributeError as exc:
        unknown = str(exc)
    report[name] = {
        "values": values, "eager": eager, "undir": undir, "uncached": uncached,
        "modules": modules, "unknown": unknown,
    }
# Loading every module must not shadow an exported name with a submodule.
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if not info.name.endswith("__main__"):
        importlib.import_module(info.name)
for name, entry in report.items():
    package = importlib.import_module(name)
    entry["shadowed"] = [n for n, v in entry.pop("values").items() if getattr(package, n) is not v]
print(json.dumps(report))
"""


def _run(script: str, *args: str) -> str:
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip().splitlines()[-1]


def test_first_estimate_skips_study_scipy_and_networkx():
    report = json.loads(_run(_SCRIPT, *UNUSED))
    assert report["thresholds_pinned"]
    assert report["finite"]
    assert report["health_ran"]
    assert report["loaded"] == []


def test_import_repro_loads_no_other_module_of_the_package():
    loaded = json.loads(_run(_IMPORT_SCRIPT))
    assert [m for m in loaded if m.split(".")[0] == "repro"] == ["repro"]
    assert "numpy" not in loaded


@pytest.fixture(scope="module")
def facades():
    return json.loads(_run(_FACADES_SCRIPT))


def test_every_package_is_a_lazy_facade(facades):
    # Nothing exported is bound before its first lookup, and every lookup
    # leaves the value in the package globals.
    assert {"repro", "repro.core", "repro.core.lane_change"} <= facades.keys()
    for name, entry in facades.items():
        assert entry["eager"] == [], name
        assert entry["uncached"] == [], name


def test_every_export_resolves_and_is_listed_by_dir(facades):
    for name, entry in facades.items():
        assert entry["undir"] == [], name
        assert entry["modules"] == [], name
        assert entry["shadowed"] == [], name


def test_unknown_attribute_names_the_module(facades):
    for name, entry in facades.items():
        assert entry["unknown"] == f"module {name!r} has no attribute 'no_such_name'"
