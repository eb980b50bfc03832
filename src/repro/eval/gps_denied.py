"""GPS-denied operation sweep: outage length x dead reckoning x prior map.

The robustness question behind the GPS-denied feature set: *how much
gradient accuracy survives a GPS outage, and how much of it do the dead
reckoner and the prior grade map buy back?* This module answers it with a
streaming matrix:

* one simulated trip is recorded per the base :class:`RunnerConfig`;
* the **prior map** is built from a clean *offline* run over the same road
  (``PriorGradeMap.from_track`` on the fused track) — the "previous drive"
  a deployed system would have banked;
* every cell replays the trip through a
  :class:`~repro.core.online.StreamingGradientEstimator` fed GPS Doppler
  speed **only** (so an outage genuinely starves the filter), with a
  synthetic total outage of the cell's length carved out of the fixes,
  sweeping outage length x dead-reckoning on/off x prior-map on/off;
* each cell reports whole-trip gradient RMSE, its ratio to the clean
  (no-outage) streaming baseline, and the worst in-outage drift.

The *aided* cells (dead reckoning + prior map both on) carry the
acceptance gate: their RMSE ratio must stay within
``max_rmse_ratio`` of clean (2.0 by default, for a 30 s outage).
``benchmarks/bench_gps_denied.py`` writes the artifact and asserts the
summary's bounds; ``tests/eval/sweep_golden.json`` pins its reduced
matrix exactly.

The matrix is not a cell of :func:`~repro.eval.grid.run_scenario_grid`:
it replays one streaming trip over dead-reckoning × prior-map axes,
where every grid cell is an offline multi-trip
:func:`~repro.eval.parallel.evaluate_trips` run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import SerializableConfig
from ..core.dead_reckoning import GPSDeniedConfig
from ..core.gradient_ekf import GradientEKFConfig, measurements_on_timebase
from ..core.online import StreamingGradientEstimator
from ..errors import ConfigurationError
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from ..roads.prior_map import PriorGradeMap
from ..roads.profile import RoadProfile
from .grid import _json_float
from .runner import RunnerConfig, make_system, simulate_recording

__all__ = ["GPSDeniedMatrixConfig", "run_gps_denied_matrix"]


@dataclass(frozen=True)
class GPSDeniedMatrixConfig(SerializableConfig):
    """The sweep axes and gate of the GPS-denied matrix.

    ``outages_s`` are the synthetic total-outage lengths; each starts at
    ``outage_start_s`` into the trip. ``settle_s`` is excluded from RMSE
    scoring (filter bootstrap). ``max_rmse_ratio`` is the acceptance gate
    applied to the *aided* cells (dead reckoning + prior map on).
    """

    outages_s: tuple[float, ...] = (10.0, 30.0, 120.0)
    outage_start_s: float = 60.0
    settle_s: float = 10.0
    max_rmse_ratio: float = 2.0
    measurement_std: float = 0.30
    map_noise_floor: float = 1e-4

    def __post_init__(self) -> None:
        if not self.outages_s:
            raise ConfigurationError("outages_s must name at least one outage")
        if any(o <= 0.0 or not np.isfinite(o) for o in self.outages_s):
            raise ConfigurationError(
                f"outage lengths must be finite and > 0, got {self.outages_s}"
            )
        if self.outage_start_s < 0.0 or self.settle_s < 0.0:
            raise ConfigurationError("outage_start_s and settle_s must be >= 0")
        if self.max_rmse_ratio <= 0.0:
            raise ConfigurationError(
                f"max_rmse_ratio must be > 0, got {self.max_rmse_ratio}"
            )
        if self.measurement_std <= 0.0:
            raise ConfigurationError(
                f"measurement_std must be > 0, got {self.measurement_std}"
            )


def _stream_cell(
    accel: np.ndarray,
    z: np.ndarray,
    gyro: np.ndarray,
    dt: float,
    profile: RoadProfile,
    cfg: GPSDeniedMatrixConfig,
    base: RunnerConfig,
    gps_denied: GPSDeniedConfig | None,
    prior_map: PriorGradeMap | None,
) -> tuple[np.ndarray, StreamingGradientEstimator]:
    est = StreamingGradientEstimator(
        dt,
        config=GradientEKFConfig(process=base.process),
        measurement_std=cfg.measurement_std,
        gps_denied=gps_denied,
        prior_map=prior_map,
        road=profile,
    )
    theta = est.run(accel, z, gyro=gyro if gps_denied is not None else None)
    return theta, est


def _score(
    theta: np.ndarray, trace, cfg: GPSDeniedMatrixConfig, window: np.ndarray
) -> tuple[float, float]:
    """Whole-trip RMSE [deg] after settling, and worst in-outage drift [deg]."""
    err = np.degrees(theta - trace.grade)
    scored = trace.t >= trace.t[0] + cfg.settle_s
    rmse = float(np.sqrt(np.mean(err[scored] ** 2)))
    drift = float(np.max(np.abs(err[window]))) if np.any(window) else 0.0
    return rmse, drift


def run_gps_denied_matrix(
    profile: RoadProfile,
    base_cfg: RunnerConfig | None = None,
    config: GPSDeniedMatrixConfig | None = None,
    telemetry: Telemetry | None = None,
) -> dict:
    """Sweep outage length x dead reckoning x prior map; return the matrix.

    Deterministic in the base config's seed. The returned dict is strict
    JSON: a ``clean`` baseline block, one ``cells`` entry per combination
    with RMSE / ratio / drift / mode-machine evidence, and a ``summary``
    block carrying the headline numbers (``rmse_ratio_30s_aided``,
    ``max_drift_deg`` over aided cells, ``n_cells_failed`` against
    ``max_rmse_ratio``).
    """
    base = base_cfg or RunnerConfig()
    cfg = config or GPSDeniedMatrixConfig()
    tel = telemetry if telemetry is not None else NULL_TELEMETRY

    with tel.span("gps_denied_matrix", n_outages=len(cfg.outages_s)):
        trace, rec = simulate_recording(profile, base, 0)
        t = rec.accel_long.t
        duration = float(t[-1] - t[0])
        need = cfg.outage_start_s + max(cfg.outages_s) + 5.0
        if duration < need:
            raise ConfigurationError(
                f"trip lasts {duration:.1f} s but the longest outage window "
                f"needs {need:.1f} s; use a longer road or earlier/shorter "
                f"outages"
            )
        dt = float(np.median(np.diff(t)))
        accel = rec.accel_long.values
        gyro = rec.gyro.values
        z_clean = measurements_on_timebase(t, rec.gps.speed_signal())

        # The "previous drive": a clean offline run over the same road,
        # fused across all velocity sources, banked as the prior map.
        system = make_system(profile, base, telemetry=tel)
        prior = PriorGradeMap.from_track(
            system.estimate(rec).fused, noise_floor=cfg.map_noise_floor
        )

        clean_theta, _ = _stream_cell(
            accel, z_clean, gyro, dt, profile, cfg, base, None, None
        )
        no_window = np.zeros(len(t), dtype=bool)
        clean_rmse, _ = _score(clean_theta, trace, cfg, no_window)

        cells = []
        aided_ratios: dict[float, float] = {}
        aided_drifts: list[float] = []
        n_failed = 0
        for outage_s in cfg.outages_s:
            window = (t >= t[0] + cfg.outage_start_s) & (
                t < t[0] + cfg.outage_start_s + outage_s
            )
            z = z_clean.copy()
            z[window] = np.nan
            for use_dr in (False, True):
                for use_map in (False, True):
                    gd = GPSDeniedConfig(
                        enabled=True,
                        use_dead_reckoning=use_dr,
                        use_prior_map=use_map,
                    )
                    theta, est = _stream_cell(
                        accel, z, gyro, dt, profile, cfg, base, gd,
                        prior if use_map else None,
                    )
                    rmse, drift = _score(theta, trace, cfg, window)
                    ratio = rmse / clean_rmse if clean_rmse > 0.0 else float("inf")
                    aided = use_dr and use_map
                    ok = (not aided) or ratio <= cfg.max_rmse_ratio
                    if aided:
                        aided_ratios[float(outage_s)] = ratio
                        aided_drifts.append(drift)
                        if not ok:
                            n_failed += 1
                    cells.append(
                        {
                            "outage_s": float(outage_s),
                            "dead_reckoning": use_dr,
                            "prior_map": use_map,
                            "rmse_deg": _json_float(rmse),
                            "rmse_ratio": _json_float(ratio),
                            "max_drift_deg": _json_float(drift),
                            "mode_transitions": est.mode_transitions,
                            "map_updates": est.map_updates,
                            "final_mode": est.mode,
                            "ok": ok,
                        }
                    )
                    tel.count("eval.gps_denied_cells")

        # The headline gate rides on the aided cell nearest 30 s.
        anchor = min(aided_ratios, key=lambda o: abs(o - 30.0))
        summary = {
            "clean_rmse_deg": _json_float(clean_rmse),
            "rmse_ratio_30s_aided": _json_float(aided_ratios[anchor]),
            "anchor_outage_s": anchor,
            "max_drift_deg": _json_float(max(aided_drifts)),
            "n_cells_failed": n_failed,
        }
        return {
            "schema": "repro.bench_gps_denied/v1",
            "config": {
                "outages_s": list(cfg.outages_s),
                "outage_start_s": cfg.outage_start_s,
                "max_rmse_ratio": cfg.max_rmse_ratio,
                "seed": base.seed,
                "prior_map_samples": len(prior),
            },
            "clean": {"rmse_deg": _json_float(clean_rmse)},
            "cells": cells,
            "summary": summary,
        }
