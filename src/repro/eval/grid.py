"""Scenario × driver × fault accuracy grid — the one accuracy sweep.

The robustness questions the paper's clean Charlottesville drives never
answer: *how gracefully does the pipeline degrade when sensors fail, and
on which roads and driving styles?* Every cell of the grid evaluates one
**scenario** (trip plan route + vehicle cohort), one **driver style**, and
one **fault** (kind × severity) through the full multi-trip evaluation
(:func:`~repro.eval.parallel.evaluate_trips` with the degradation
machinery, health monitors and parallel runner), and reports RMSE,
degradation ratio against that scenario × driver's own clean baseline,
and the run-health verdict.

The fault matrix is the grid's preset ``scenarios=("default",)``,
``drivers=("legacy",)`` over every fault kind: the default scenario with
the legacy driver is a proven no-op on the runner's trips.
``benchmarks/bench_faults.py`` and ``benchmarks/bench_scenarios.py``
persist the two sweeps as ``benchmarks/BENCH_faults.json`` and
``benchmarks/BENCH_scenarios.json``; ``tests/eval/sweep_golden.json`` pins
a fault preset and a small grid exactly.

Severity semantics
------------------
One scalar severity axis has to parameterize very different faults; the
mapping, chosen so larger always means worse:

================  ===========================================================
``gps_dropout``   outage duration = ``severity`` seconds
``gps_multipath`` 20 s window of speed bias, std = ``0.75 × severity`` m/s
``nan_burst``     NaN burst of ``severity`` seconds on the target channel
``inf_burst``     +Inf burst of ``severity`` seconds on the target channel
``stuck``         channel frozen for ``severity`` seconds
``clip``          full-scale limit = ``4 / severity`` m/s² (shrinks as
                  severity grows; 0.5 is a no-op on realistic drives)
``jitter``        timestamp jitter fraction = ``min(0.95, severity / 5)``
``baro_drift``    altitude step = ``5 × severity`` metres
================  ===========================================================

Determinism: every cell is a pure function of the configuration — trips
are seeded by ``(base_cfg.seed, trip_index)``, scenario resolution by
``(scenario.seed, trip_index)``, fault application by
``(grid.seed, trip_index)`` — so the same grid config always produces the
same matrix, whichever backend runs it.

The grid records failures instead of raising: a baseline or cell whose
evaluation dies is ``ok=False`` data with the error string, never a crash.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ..config import SerializableConfig
from ..core.stages import ROBUST_STAGES
from ..errors import ConfigurationError, ReproError
from ..faults.suite import FAULT_KINDS, FaultSpec, FaultSuiteConfig
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from ..roads.profile import RoadProfile
from ..scenarios.config import scenario_by_name, scenario_names
from ..scenarios.driver import DRIVER_STYLES, driver_style_names
from .metrics import root_mean_square_error
from .parallel import ParallelConfig, evaluate_trips
from .runner import RunnerConfig

__all__ = [
    "ScenarioGridConfig",
    "fault_suite_for",
    "run_scenario_grid",
    "write_grid_artifact",
]


@dataclass(frozen=True)
class ScenarioGridConfig(SerializableConfig):
    """The sweep: which scenarios, driven how, under which faults.

    ``scenarios`` / ``drivers`` are registry names
    (:data:`~repro.scenarios.SCENARIOS` /
    :data:`~repro.scenarios.DRIVER_STYLES`); ``severities`` are unitless
    knobs translated per kind (see the module docstring); ``start_s``
    places window faults mid-trip so the filters are converged when the
    fault hits; ``use_sanitize`` toggles the degradation machinery
    (:data:`~repro.core.stages.ROBUST_STAGES` vs the plain paper
    pipeline) — sweeping both settings measures exactly what the sanitize
    stage buys.
    """

    scenarios: tuple[str, ...] = ("default", "suburban-commute", "highway-run")
    drivers: tuple[str, ...] = ("safe", "normal", "aggressive")
    fault_kinds: tuple[str, ...] = ("gps_dropout", "nan_burst", "baro_drift")
    severities: tuple[float, ...] = (0.5, 2.0)
    channel: str = "accel_long"
    start_s: float = 30.0
    seed: int = 0
    use_sanitize: bool = True

    def __post_init__(self) -> None:
        unknown = sorted(set(self.scenarios) - set(scenario_names()))
        if unknown:
            raise ConfigurationError(
                f"unknown scenario(s) {unknown}; valid scenarios are "
                f"{scenario_names()}"
            )
        unknown = sorted(set(self.drivers) - set(DRIVER_STYLES))
        if unknown:
            raise ConfigurationError(
                f"unknown driver style(s) {unknown}; valid driver styles are "
                f"{driver_style_names()}"
            )
        unknown = sorted(set(self.fault_kinds) - set(FAULT_KINDS))
        if unknown:
            raise ConfigurationError(
                f"unknown fault kind(s) {unknown}; valid kinds are "
                f"{sorted(FAULT_KINDS)}"
            )
        if not self.scenarios or not self.drivers:
            raise ConfigurationError("the grid needs scenarios and drivers")
        if not self.fault_kinds or not self.severities:
            raise ConfigurationError("the grid's fault sweep cannot be empty")
        if any(sv <= 0.0 or not np.isfinite(sv) for sv in self.severities):
            raise ConfigurationError("severities must be finite and positive")

    @property
    def n_cells(self) -> int:
        """Fault cells in the grid (clean baselines not counted)."""
        return (
            len(self.scenarios)
            * len(self.drivers)
            * len(self.fault_kinds)
            * len(self.severities)
        )


def fault_suite_for(
    kind: str, severity: float, channel: str = "accel_long", start_s: float = 30.0, seed: int = 0
) -> FaultSuiteConfig:
    """One cell's fault suite, applying the severity mapping."""
    if kind == "gps_dropout":
        spec = FaultSpec(kind=kind, start_s=start_s, duration_s=severity)
    elif kind == "gps_multipath":
        # Severity maps to a fixed 20 s degraded window whose speed bias
        # grows with severity (0.75 m/s per severity step — 3 m/s at
        # severity 4, enough to trip the NIS health monitors).
        spec = FaultSpec(
            kind=kind, start_s=start_s, duration_s=20.0, severity=0.75 * severity
        )
    elif kind in ("nan_burst", "inf_burst", "stuck"):
        spec = FaultSpec(
            kind=kind, channel=channel, start_s=start_s, duration_s=severity
        )
    elif kind == "clip":
        spec = FaultSpec(kind=kind, channel=channel, severity=4.0 / severity)
    elif kind == "jitter":
        spec = FaultSpec(kind=kind, severity=min(0.95, severity / 5.0))
    elif kind == "baro_drift":
        spec = FaultSpec(kind=kind, start_s=start_s, severity=5.0 * severity)
    else:
        raise ConfigurationError(
            f"unknown fault kind {kind!r}; valid kinds are {sorted(FAULT_KINDS)}"
        )
    return FaultSuiteConfig(faults=(spec,), seed=seed)


def _json_float(x: float) -> float | None:
    """Finite float, or ``None`` — the artifact must stay strict JSON."""
    x = float(x)
    return round(x, 6) if np.isfinite(x) else None


def _evaluate(route, runner_cfg, parallel, tel) -> tuple[float, dict]:
    """One grid evaluation -> ``(rmse_deg, record fields)``; a failed
    evaluation comes back as ``ok=False`` fields with the error and a NaN
    RMSE."""
    try:
        report = evaluate_trips(route, runner_cfg, parallel=parallel, telemetry=tel)
    except ReproError as exc:
        return float("nan"), {
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "rmse_deg": None,
            "n_failed": runner_cfg.n_trips,
            "health": None,
        }
    rmse = root_mean_square_error(report.fused_theta, report.truth, degrees=True)
    return rmse, {
        "ok": True,
        "error": "",
        "rmse_deg": _json_float(rmse),
        "n_failed": report.n_failed,
        "health": report.health_summary(),
    }


def run_scenario_grid(
    profile: RoadProfile,
    base_cfg: RunnerConfig | None = None,
    config: ScenarioGridConfig | None = None,
    parallel: ParallelConfig | None = None,
    telemetry: Telemetry | None = None,
) -> dict:
    """Sweep scenario × driver × fault; return the JSON-able grid.

    ``profile`` is the route used by scenarios whose trip plan is the
    passthrough (the ``default`` scenario); plan-bearing scenarios build
    their own routes. Per scenario × driver, a clean baseline run anchors
    the degradation ratios of that pair's fault cells — so a hard
    scenario with an aggressive driver is only penalised for what the
    *fault* adds, not for being hard.
    """
    base = base_cfg or RunnerConfig()
    cfg = config or ScenarioGridConfig()
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    stages = ROBUST_STAGES if cfg.use_sanitize else None

    baselines: list[dict] = []
    cells: list[dict] = []
    routes: dict[str, dict] = {}

    with tel.span(
        "scenario_grid",
        n_scenarios=len(cfg.scenarios),
        n_drivers=len(cfg.drivers),
        n_cells=cfg.n_cells,
    ):
        for scenario_name in cfg.scenarios:
            scenario = scenario_by_name(scenario_name)
            route = scenario.route_for(profile)
            routes[scenario_name] = {
                "route": route.name,
                "length_m": _json_float(route.length),
            }
            for driver_name in cfg.drivers:
                scn = scenario.with_driver(driver_name)
                pair = {"scenario": scenario_name, "driver": driver_name}

                with tel.span(
                    "grid_baseline", scenario=scenario_name, driver=driver_name
                ):
                    clean_rmse, fields = _evaluate(
                        route,
                        replace(base, faults=None, stages=stages, scenario=scn),
                        parallel,
                        tel,
                    )
                if not fields["ok"]:
                    tel.count("grid.baseline_failed")
                del fields["n_failed"]
                baselines.append(dict(pair, route=route.name, **fields))

                for kind in cfg.fault_kinds:
                    for severity in cfg.severities:
                        suite = fault_suite_for(
                            kind, severity, cfg.channel, cfg.start_s, cfg.seed
                        )
                        with tel.span(
                            "grid_cell",
                            scenario=scenario_name,
                            driver=driver_name,
                            kind=kind,
                            severity=severity,
                        ):
                            rmse, fields = _evaluate(
                                route,
                                replace(
                                    base, faults=suite, stages=stages, scenario=scn
                                ),
                                parallel,
                                tel,
                            )
                        if not fields["ok"]:
                            tel.count("grid.cell_failed")
                        ratio = None
                        if fields["ok"] and np.isfinite(clean_rmse) and clean_rmse > 0.0:
                            ratio = _json_float(rmse / clean_rmse)
                        cells.append(
                            dict(
                                pair,
                                kind=kind,
                                severity=severity,
                                rmse_ratio=ratio,
                                **fields,
                            )
                        )
    tel.count("grid.runs")

    clean_rmses = [b["rmse_deg"] for b in baselines if b["ok"]]
    rated = [c for c in cells if c["ok"] and isinstance(c["rmse_ratio"], float)]
    worst_cell = None
    if rated:
        worst = max(rated, key=lambda c: c["rmse_ratio"])
        worst_cell = {k: worst[k] for k in ("scenario", "driver", "kind", "severity")}

    return {
        "schema": "repro.bench_scenarios/v1",
        "base_profile": profile.name,
        "n_trips": base.n_trips,
        "seed": base.seed,
        "grid_seed": cfg.seed,
        "use_sanitize": cfg.use_sanitize,
        "scenarios": list(cfg.scenarios),
        "drivers": list(cfg.drivers),
        "fault_kinds": list(cfg.fault_kinds),
        "severities": list(cfg.severities),
        "routes": routes,
        "baselines": baselines,
        "cells": cells,
        "summary": {
            "n_cells": len(cells),
            "n_cells_failed": sum(1 for c in cells if not c["ok"]),
            "n_baselines_failed": sum(1 for b in baselines if not b["ok"]),
            "max_clean_rmse_deg": max(clean_rmses) if clean_rmses else None,
            "max_rmse_ratio": max(c["rmse_ratio"] for c in rated) if rated else None,
            "worst_cell": worst_cell,
        },
    }


def write_grid_artifact(result: dict, path) -> Path:
    """Persist one sweep result (grid or GPS-denied matrix) as
    pretty-printed JSON."""
    path = Path(path)
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return path
