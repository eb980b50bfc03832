"""Scenario × fault × driver accuracy grid — the standing regression suite.

The resilience matrix (:mod:`repro.eval.resilience`) answered "how does the
pipeline degrade when *sensors* fail?" on one driving style and one
vehicle. This module grows it along the behaviour axes: every cell of the
grid evaluates one **scenario** (trip plan route + vehicle cohort), one
**driver style**, and one **fault** (kind × severity) through the full
multi-trip evaluation (:func:`~repro.eval.parallel.evaluate_trips` with
the degradation machinery, health monitors and parallel runner), and
reports RMSE, degradation ratio against that scenario × driver's own
clean baseline, and the run-health verdict.
``benchmarks/bench_scenarios.py`` persists the result as
``benchmarks/BENCH_scenarios.json`` and ``repro.obs.benchtrack`` gates its
headline numbers in CI.

Determinism: every cell is a pure function of the configuration — trips
are seeded by ``(base_cfg.seed, trip_index)``, scenario resolution by
``(scenario.seed, trip_index)``, fault application by
``(grid.seed, trip_index)`` — so the same grid config always produces the
same matrix, whichever backend runs it.

Like the resilience matrix, the grid records failures instead of raising:
a cell whose evaluation dies is ``ok=False`` data, never a crash.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ..config import SerializableConfig
from ..core.stages import ROBUST_STAGES
from ..errors import ConfigurationError, ReproError
from ..faults.suite import FAULT_KINDS
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from ..roads.profile import RoadProfile
from ..scenarios.config import scenario_by_name, scenario_names
from ..scenarios.driver import DRIVER_STYLES, driver_style_names
from .metrics import root_mean_square_error
from .parallel import ParallelConfig, evaluate_trips
from .resilience import fault_suite_for
from .runner import RunnerConfig

__all__ = [
    "ScenarioGridConfig",
    "run_scenario_grid",
    "write_grid_artifact",
]


@dataclass(frozen=True)
class ScenarioGridConfig(SerializableConfig):
    """The sweep: which scenarios, driven how, under which faults.

    ``scenarios`` / ``drivers`` are registry names
    (:data:`~repro.scenarios.SCENARIOS` /
    :data:`~repro.scenarios.DRIVER_STYLES`); fault axes reuse the
    resilience matrix's severity semantics
    (:mod:`repro.eval.resilience`). ``use_sanitize`` toggles the
    degradation machinery exactly as there.
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


def _json_float(x: float) -> float | None:
    """Finite float, or ``None`` — the artifact must stay strict JSON."""
    x = float(x)
    return round(x, 6) if np.isfinite(x) else None


def _evaluate(route, runner_cfg, parallel, tel):
    """One grid evaluation -> ``(rmse_deg, report)``."""
    report = evaluate_trips(route, runner_cfg, parallel=parallel, telemetry=tel)
    rmse = root_mean_square_error(report.fused_theta, report.truth, degrees=True)
    return rmse, report


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

                clean_rmse = float("nan")
                baseline: dict = dict(pair, route=route.name)
                with tel.span(
                    "grid_baseline", scenario=scenario_name, driver=driver_name
                ):
                    try:
                        clean_rmse, clean_report = _evaluate(
                            route,
                            replace(base, faults=None, stages=stages, scenario=scn),
                            parallel,
                            tel,
                        )
                    except ReproError as exc:
                        tel.count("grid.baseline_failed")
                        baseline.update(
                            ok=False,
                            error=f"{type(exc).__name__}: {exc}",
                            rmse_deg=None,
                            health=None,
                        )
                    else:
                        baseline.update(
                            ok=True,
                            error="",
                            rmse_deg=_json_float(clean_rmse),
                            health=clean_report.health_summary(),
                        )
                baselines.append(baseline)

                for kind in cfg.fault_kinds:
                    for severity in cfg.severities:
                        suite = fault_suite_for(
                            kind, severity, cfg.channel, cfg.start_s, cfg.seed
                        )
                        cell: dict = dict(pair, kind=kind, severity=severity)
                        with tel.span(
                            "grid_cell",
                            scenario=scenario_name,
                            driver=driver_name,
                            kind=kind,
                            severity=severity,
                        ):
                            try:
                                rmse, report = _evaluate(
                                    route,
                                    replace(
                                        base,
                                        faults=suite,
                                        stages=stages,
                                        scenario=scn,
                                    ),
                                    parallel,
                                    tel,
                                )
                            except ReproError as exc:
                                tel.count("grid.cell_failed")
                                cell.update(
                                    ok=False,
                                    error=f"{type(exc).__name__}: {exc}",
                                    rmse_deg=None,
                                    rmse_ratio=None,
                                    n_failed=base.n_trips,
                                    health=None,
                                )
                            else:
                                cell.update(
                                    ok=True,
                                    error="",
                                    rmse_deg=_json_float(rmse),
                                    rmse_ratio=_json_float(rmse / clean_rmse)
                                    if np.isfinite(clean_rmse) and clean_rmse > 0.0
                                    else None,
                                    n_failed=report.n_failed,
                                    health=report.health_summary(),
                                )
                        cells.append(cell)
    tel.count("grid.runs")

    clean_rmses = [b["rmse_deg"] for b in baselines if b["ok"]]
    ratios = [
        c["rmse_ratio"]
        for c in cells
        if c["ok"] and isinstance(c.get("rmse_ratio"), float)
    ]
    worst_cell = None
    if ratios:
        worst = max(
            (c for c in cells if c["ok"] and isinstance(c.get("rmse_ratio"), float)),
            key=lambda c: c["rmse_ratio"],
        )
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
            "max_rmse_ratio": max(ratios) if ratios else None,
            "worst_cell": worst_cell,
        },
    }


def write_grid_artifact(result: dict, path) -> Path:
    """Persist one grid result as pretty-printed JSON."""
    path = Path(path)
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return path
