"""Resilience matrix: estimation accuracy under fault type × severity.

The robustness question the paper's clean Charlottesville drives never
answer: *how gracefully does the pipeline degrade when sensors fail?* This
module sweeps the fault taxonomy (:mod:`repro.faults`) across a severity
grid, runs every scenario through :func:`~repro.eval.parallel.evaluate_trips`
with the degradation machinery enabled (sanitize stage, per-source track
rejection, fusion quality gate), and reports one RMSE-degradation curve per
fault kind against the clean baseline. ``benchmarks/bench_faults.py``
persists the result as ``benchmarks/BENCH_faults.json``.

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

Every scenario completes: a fault that still takes the whole run down is
*recorded* (``ok=False`` with the error string), never raised — the matrix
itself is the place where "pipeline crashes on X" must be a data point, not
a crash.
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
from .metrics import root_mean_square_error
from .parallel import ParallelConfig, evaluate_trips
from .runner import RunnerConfig

__all__ = [
    "ResilienceConfig",
    "fault_suite_for",
    "run_resilience_matrix",
    "write_resilience_artifact",
]

#: Kinds that corrupt one signal channel (vs. GPS / timebases / barometer).
_CHANNEL_KINDS = ("nan_burst", "inf_burst", "stuck", "clip")


@dataclass(frozen=True)
class ResilienceConfig(SerializableConfig):
    """The sweep: which faults, how hard, where, and with what pipeline.

    ``severities`` are unitless knobs translated per kind (see the module
    docstring); ``start_s`` places window faults mid-trip so the filters
    are converged when the fault hits; ``use_sanitize`` toggles the
    degradation machinery (:data:`~repro.core.stages.ROBUST_STAGES` vs the
    plain paper pipeline) — sweeping both settings measures exactly what
    the sanitize stage buys.
    """

    fault_kinds: tuple[str, ...] = tuple(sorted(FAULT_KINDS))
    severities: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)
    channel: str = "accel_long"
    start_s: float = 30.0
    seed: int = 0
    use_sanitize: bool = True

    def __post_init__(self) -> None:
        unknown = [k for k in self.fault_kinds if k not in FAULT_KINDS]
        if unknown:
            raise ConfigurationError(
                f"unknown fault kind(s) {sorted(set(unknown))}; valid kinds "
                f"are {sorted(FAULT_KINDS)}"
            )
        if not self.fault_kinds or not self.severities:
            raise ConfigurationError("the resilience sweep cannot be empty")
        if any(sv <= 0.0 or not np.isfinite(sv) for sv in self.severities):
            raise ConfigurationError("severities must be finite and positive")


def fault_suite_for(
    kind: str, severity: float, channel: str = "accel_long", start_s: float = 30.0, seed: int = 0
) -> FaultSuiteConfig:
    """One scenario's fault suite, applying the severity mapping."""
    if kind == "gps_dropout":
        spec = FaultSpec(kind=kind, start_s=start_s, duration_s=severity)
    elif kind == "gps_multipath":
        # Severity maps to a fixed 20 s degraded window whose speed bias
        # grows with severity (0.75 m/s per severity step — 3 m/s at the
        # top of the grid, enough to trip the NIS health monitors).
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


def run_resilience_matrix(
    profile: RoadProfile,
    base_cfg: RunnerConfig | None = None,
    config: ResilienceConfig | None = None,
    parallel: ParallelConfig | None = None,
    telemetry: Telemetry | None = None,
) -> dict:
    """Sweep fault kind × severity; return the JSON-able degradation matrix.

    Each scenario re-runs the full multi-trip evaluation with the fault
    injected into every simulated recording (seeded per trip). The result
    carries the clean-baseline RMSE, and per scenario the RMSE in degrees,
    its ratio to clean, the failed-trip count, and — when the scenario
    could not produce a report at all — ``ok=False`` with the error.
    """
    base = base_cfg or RunnerConfig()
    cfg = config or ResilienceConfig()
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    stages = ROBUST_STAGES if cfg.use_sanitize else None

    with tel.span(
        "resilience_matrix",
        n_kinds=len(cfg.fault_kinds),
        n_severities=len(cfg.severities),
    ):
        clean_cfg = replace(base, faults=None, stages=stages)
        with tel.span("clean_baseline"):
            clean = evaluate_trips(
                profile, clean_cfg, parallel=parallel, telemetry=tel
            )
        clean_rmse = root_mean_square_error(
            clean.fused_theta, clean.truth, degrees=True
        )
        clean_health = clean.health_summary()

        scenarios: list[dict] = []
        for kind in cfg.fault_kinds:
            for severity in cfg.severities:
                suite = fault_suite_for(
                    kind, severity, cfg.channel, cfg.start_s, cfg.seed
                )
                record: dict = {
                    "kind": kind,
                    "severity": severity,
                    "spec": suite.faults[0].to_dict(),
                    "channel": cfg.channel if kind in _CHANNEL_KINDS else None,
                }
                with tel.span("scenario", kind=kind, severity=severity):
                    try:
                        report = evaluate_trips(
                            profile,
                            replace(base, faults=suite, stages=stages),
                            parallel=parallel,
                            telemetry=tel,
                        )
                    except ReproError as exc:
                        tel.count("resilience.scenario_failed")
                        record.update(
                            ok=False,
                            error=f"{type(exc).__name__}: {exc}",
                            rmse_deg=None,
                            rmse_ratio=None,
                            n_failed=base.n_trips,
                            health=None,
                        )
                    else:
                        rmse = root_mean_square_error(
                            report.fused_theta, report.truth, degrees=True
                        )
                        record.update(
                            ok=True,
                            error="",
                            rmse_deg=_json_float(rmse),
                            rmse_ratio=_json_float(rmse / clean_rmse)
                            if clean_rmse > 0.0
                            else None,
                            n_failed=report.n_failed,
                            health=report.health_summary(),
                        )
                scenarios.append(record)
    tel.count("resilience.matrices")

    return {
        "schema": "repro.bench_faults/v1",
        "profile": profile.name,
        "n_trips": base.n_trips,
        "seed": base.seed,
        "use_sanitize": cfg.use_sanitize,
        "stages": list(stages) if stages is not None else None,
        "severities": list(cfg.severities),
        "clean_rmse_deg": _json_float(clean_rmse),
        "clean_health": clean_health,
        "scenarios": scenarios,
    }


def write_resilience_artifact(result: dict, path) -> Path:
    """Persist one matrix result as pretty-printed JSON."""
    path = Path(path)
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return path
