"""Experiment runner: simulate -> sense -> estimate -> score.

One entry point per experiment family:

* :func:`evaluate_methods` — OPS vs the EKF [7] and ANN [8] baselines on a
  route (Fig 8(a), Fig 9(b), the 22 % headline);
* :func:`evaluate_fusion_counts` — error CDFs versus the number of fused
  velocity-source tracks (Fig 8(b));
* :func:`collect_recordings` / :func:`make_system` — shared plumbing for
  ablation benches.

Estimates are scored against the Sec III-D reference survey on a common
position grid, with a configurable warm-up trim (the EKF needs a few
seconds to converge from its flat-road prior, and the paper's plots start
after the vehicle is rolling).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from ..baselines.ann import ANNBaselineConfig, ANNGradientEstimator
from ..config import SerializableConfig
from ..baselines.ekf_altitude import AltitudeEKFConfig, estimate_gradient_ekf_baseline
from ..core.dead_reckoning import GPSDeniedConfig
from ..core.gradient_ekf import GradientEKFConfig
from ..core.lane_change.detector import LaneChangeDetectorConfig
from ..core.lane_change.features import LaneChangeThresholds
from ..core.pipeline import (
    EstimationResult,
    GradientEstimationSystem,
    GradientSystemConfig,
    fuse_estimates,
)
from ..datasets.steering_study import calibrated_thresholds
from ..errors import ConfigurationError
from ..faults.suite import FaultSuiteConfig, apply_fault_suite
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from ..obs.health import HealthConfig
from ..roads.profile import RoadProfile
from ..roads.reference import survey_reference_profile
from ..scenarios.config import ScenarioConfig
from ..sensors.phone import VELOCITY_SOURCES, PhoneRecording, Smartphone
from ..vehicle.driver import DriverProfile
from ..vehicle.simulator import SimulationConfig, simulate_trip
from ..vehicle.trip import TruthTrace
from .metrics import (
    DetectionScore,
    absolute_errors,
    cdf_value_at,
    mean_absolute_error,
    mean_relative_error,
    score_lane_change_detection,
)

__all__ = [
    "RunnerConfig",
    "MethodEstimate",
    "ComparisonResult",
    "collect_recordings",
    "simulate_recording",
    "simulate_recordings",
    "system_config",
    "make_system",
    "evaluate_methods",
    "evaluate_fusion_counts",
]

#: Gradient-estimation methods :func:`evaluate_methods` compares.
METHODS = ("ops", "ekf", "ann")

#: Fig 8(b) track subsets, in the paper's "1..4 fused tracks" order. The
#: single-track case is the canonical GPS velocity (the paper's "no track
#: fuse" curve); sources are added in the order the paper lists them.
FUSION_SUBSETS: dict[int, tuple[str, ...]] = {
    1: ("gps",),
    2: ("gps", "speedometer"),
    3: ("gps", "speedometer", "accelerometer"),
    4: VELOCITY_SOURCES,
}


@dataclass(frozen=True)
class RunnerConfig(SerializableConfig):
    """Shared experiment configuration.

    Serializable as one JSON document (nested thresholds/ANN configs
    included) via :meth:`to_dict` / :meth:`from_dict` — the parallel
    runner ships exactly this spec to its worker processes.

    ``faults`` (a :class:`~repro.faults.FaultSuiteConfig`) injects that
    degraded-sensor scenario into every simulated recording, seeded per
    trip index; ``stages`` overrides the system's stage list (e.g.
    :data:`~repro.core.stages.ROBUST_STAGES` to enable sanitization).
    Both default to ``None`` — clean data through the paper pipeline.
    ``health`` overrides the system's estimator-health thresholds
    (:class:`~repro.obs.health.HealthConfig`); ``None`` keeps the system
    default (monitoring on, passive).

    ``scenario`` (a :class:`~repro.scenarios.ScenarioConfig`) resolves a
    driver style, vehicle cohort draw and trip-plan limits/stops per trip,
    deterministically in ``(scenario.seed, trip_index)``; ``None`` (and
    equally the all-default scenario) keeps the historical behaviour
    bit-identical. Scenarios compose freely with ``faults`` — the grid
    benchmark (:mod:`repro.eval.grid`) sweeps both axes at once.

    ``gps_denied`` (a :class:`~repro.core.dead_reckoning.GPSDeniedConfig`)
    enables the GPS-denied operating mode on the OPS pipeline — outage
    handling plus optional prior-map fusion; ``None`` keeps the system
    default (disabled, bit-identical output).
    """

    n_trips: int = 2
    seed: int = 0
    grid_spacing: float = 5.0
    trim_m: float = 80.0
    sample_rate: float = 50.0
    noise_scale: float = 1.0
    lane_changes_per_km: float = 3.0
    baseline_stride: int = 2
    thresholds: LaneChangeThresholds | None = None
    reference_smooth_m: float = 15.0
    process: str = "specific_force"
    apply_lane_change_correction: bool = True
    velocity_sources: tuple[str, ...] = VELOCITY_SOURCES
    ann: ANNBaselineConfig = field(default_factory=ANNBaselineConfig)
    faults: FaultSuiteConfig | None = None
    stages: tuple[str, ...] | None = None
    health: HealthConfig | None = None
    scenario: ScenarioConfig | None = None
    gps_denied: GPSDeniedConfig | None = None

    def __post_init__(self) -> None:
        if self.n_trips < 1:
            raise ConfigurationError("need at least one trip")
        if self.grid_spacing <= 0.0 or self.trim_m < 0.0:
            raise ConfigurationError("bad grid configuration")
        if self.faults is not None:
            self.faults.build()  # fail fast on an invalid fault scenario


@dataclass
class MethodEstimate:
    """One method's gradient estimate and scores on the common grid."""

    name: str
    theta: np.ndarray
    errors: np.ndarray  # absolute errors [rad]
    mre: float
    mean_error_deg: float
    median_error_deg: float


@dataclass
class ComparisonResult:
    """Everything a method-comparison experiment produced."""

    profile: RoadProfile
    s_grid: np.ndarray
    truth: np.ndarray
    methods: dict[str, MethodEstimate]
    ops_results: list[EstimationResult]
    detection: DetectionScore | None

    def improvement_over(self, baseline: str, ours: str = "ops") -> float:
        """Relative error reduction of ``ours`` vs a baseline (the paper's
        "estimation error is reduced by 22 %")."""
        base = self.methods[baseline]
        mine = self.methods[ours]
        if base.mre <= 0.0:
            raise ConfigurationError("baseline MRE must be positive")
        return 1.0 - mine.mre / base.mre


def _driver_for_trip(cfg: RunnerConfig, i: int) -> DriverProfile:
    base = DriverProfile(lane_changes_per_km=cfg.lane_changes_per_km)
    rng = np.random.default_rng(cfg.seed * 7919 + i)
    return replace(
        base,
        name=f"trip-driver-{i}",
        cruise_speed=base.cruise_speed * float(rng.uniform(0.9, 1.1)),
        lane_change_duration=float(rng.uniform(4.2, 6.2)),
        lane_change_asymmetry=float(rng.uniform(0.8, 1.2)),
    )


def simulate_recording(
    profile: RoadProfile, cfg: RunnerConfig, index: int
) -> tuple[TruthTrace, PhoneRecording]:
    """Trip ``index`` of the configured run: simulate and record it.

    Deterministic in ``(cfg.seed, index)`` alone — the same trip produces
    the same recording whether built serially, out of order, or inside a
    worker process. This is the seeding contract the parallel runner
    (:mod:`repro.eval.parallel`) relies on. When ``cfg.faults`` is set, the
    fault scenario is applied to the recording, seeded by
    ``(faults.seed, index)`` — equally deterministic. When
    ``cfg.scenario`` is set, driver / vehicle / mount / trip-plan
    overrides resolve from ``(scenario.seed, index)`` first; the
    all-default scenario resolves to the identical no-override path.
    """
    driver = _driver_for_trip(cfg, index)
    vehicle = None
    mount_yaw = 0.0
    sim_cfg = SimulationConfig(sample_rate=cfg.sample_rate)
    if cfg.scenario is not None:
        trip = cfg.scenario.resolve_trip(index, driver)
        driver = trip.driver
        vehicle = trip.vehicle
        mount_yaw = trip.mount_yaw
        if trip.speed_zones or trip.stops:
            sim_cfg = SimulationConfig(
                sample_rate=cfg.sample_rate,
                stops=trip.stops,
                speed_zones=trip.speed_zones,
            )
    trace = simulate_trip(
        profile,
        driver=driver,
        vehicle=vehicle,
        config=sim_cfg,
        seed=cfg.seed * 104729 + index,
    )
    phone = Smartphone(mounting_yaw=mount_yaw).with_noise_scale(cfg.noise_scale)
    rec = phone.record(trace, np.random.default_rng(cfg.seed * 65537 + index))
    if cfg.faults is not None:
        rec = apply_fault_suite(rec, cfg.faults, index)
    return trace, rec


def simulate_recordings(
    profile: RoadProfile,
    cfg: RunnerConfig,
    indices: Sequence[int] | None = None,
) -> list[PhoneRecording]:
    """Recordings for the given trip indices (default ``range(n_trips)``).

    The batch-ingestion convenience: per-index determinism is exactly
    :func:`simulate_recording`'s, so any slice of indices — a parallel
    chunk, a :class:`~repro.sensors.recording_io.TripStore` fill, a
    single retried trip — reproduces the same fleet bit for bit.
    """
    if indices is None:
        indices = range(cfg.n_trips)
    return [simulate_recording(profile, cfg, int(i))[1] for i in indices]


def collect_recordings(
    profile: RoadProfile,
    cfg: RunnerConfig,
    telemetry: Telemetry | None = None,
) -> list[tuple[TruthTrace, PhoneRecording]]:
    """Simulate the configured trips and record each with a fresh phone."""
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    out = []
    with tel.span("collect_recordings", n_trips=cfg.n_trips):
        for i in range(cfg.n_trips):
            with tel.span("trip", index=i):
                out.append(simulate_recording(profile, cfg, i))
            tel.count("eval.trips_simulated")
    return out


def system_config(
    cfg: RunnerConfig, velocity_sources: tuple[str, ...] | None = None
) -> GradientSystemConfig:
    """The OPS system config the runner settings translate to."""
    thresholds = cfg.thresholds or calibrated_thresholds()
    extra = {}
    if cfg.stages is not None:
        extra["stages"] = tuple(cfg.stages)
    if cfg.health is not None:
        extra["health"] = cfg.health
    if cfg.gps_denied is not None:
        extra["gps_denied"] = cfg.gps_denied
    return GradientSystemConfig(
        ekf=GradientEKFConfig(process=cfg.process),
        detector=LaneChangeDetectorConfig(thresholds=thresholds),
        velocity_sources=velocity_sources or cfg.velocity_sources,
        apply_lane_change_correction=cfg.apply_lane_change_correction,
        fusion_grid_spacing=cfg.grid_spacing,
        **extra,
    )


def make_system(
    profile: RoadProfile,
    cfg: RunnerConfig,
    velocity_sources: tuple[str, ...] | None = None,
    telemetry: Telemetry | None = None,
) -> GradientEstimationSystem:
    """An OPS instance configured per the runner settings."""
    sys_cfg = system_config(cfg, velocity_sources)
    return GradientEstimationSystem(profile, config=sys_cfg, telemetry=telemetry)


def _common_grid(profile: RoadProfile, cfg: RunnerConfig) -> np.ndarray:
    lo = cfg.trim_m
    hi = profile.length - cfg.trim_m
    if hi - lo < cfg.grid_spacing * 4:
        raise ConfigurationError("route too short for the configured trim")
    n = int((hi - lo) / cfg.grid_spacing) + 1
    return lo + np.arange(n) * cfg.grid_spacing


def _score(name: str, theta: np.ndarray, truth: np.ndarray) -> MethodEstimate:
    errors = absolute_errors(theta, truth)
    return MethodEstimate(
        name=name,
        theta=theta,
        errors=errors,
        mre=mean_relative_error(theta, truth),
        mean_error_deg=mean_absolute_error(theta, truth, degrees=True),
        median_error_deg=float(np.degrees(cdf_value_at(errors, 0.5))),
    )


def _truth_events(trace: TruthTrace) -> list[tuple[float, float, int]]:
    return [
        (float(trace.t[a]), float(trace.t[b - 1]), d)
        for a, b, d in trace.lane_change_intervals()
    ]


def evaluate_methods(
    profile: RoadProfile,
    methods: tuple[str, ...] = METHODS,
    cfg: RunnerConfig | None = None,
    telemetry: Telemetry | None = None,
) -> ComparisonResult:
    """Compare gradient-estimation methods on one route.

    ``methods`` is drawn from :data:`METHODS`: ``"ops"`` (this system),
    ``"ekf"`` (the altitude-EKF baseline [7]) and ``"ann"`` (the ANN
    baseline [8]); any other name raises
    :class:`~repro.errors.ConfigurationError`. The ANN baseline trains on a
    held-out trip over the same route with reference-survey labels,
    mirroring the paper's 4,320-sample training set.
    """
    unknown = sorted(set(methods) - set(METHODS))
    if unknown:
        raise ConfigurationError(
            f"unknown method(s) {unknown}; choose from {METHODS}"
        )
    cfg = cfg or RunnerConfig()
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    with tel.span("reference"):
        reference = survey_reference_profile(profile).smoothed(cfg.reference_smooth_m)
        s_grid = _common_grid(profile, cfg)
        truth = np.asarray(reference.gradient_at(s_grid), dtype=float)

    recordings = collect_recordings(profile, cfg, telemetry=tel)
    system = make_system(profile, cfg, telemetry=tel)

    ann: ANNGradientEstimator | None = None
    if "ann" in methods:
        with tel.span("ann_train"):
            ann = ANNGradientEstimator(cfg.ann)
            train_trace = simulate_trip(
                profile,
                driver=_driver_for_trip(cfg, 9999),
                config=SimulationConfig(sample_rate=cfg.sample_rate),
                seed=cfg.seed * 31337 + 1,
            )
            train_rec = Smartphone().with_noise_scale(cfg.noise_scale).record(
                train_trace, np.random.default_rng(cfg.seed * 31337 + 2)
            )
            labels = np.asarray(reference.gradient_at(train_trace.s), dtype=float)
            ann.fit_recording(train_rec, labels)

    ops_results: list[EstimationResult] = []
    per_method_thetas: dict[str, list[np.ndarray]] = {m: [] for m in methods}
    detected_events: list[tuple[float, float, int]] = []
    truth_events: list[tuple[float, float, int]] = []

    for trace, rec in recordings:
        result = system.estimate(rec)
        ops_results.append(result)
        truth_events.extend(_truth_events(trace))
        detected_events.extend(
            (e.t_start, e.t_end, e.direction) for e in result.events
        )
        aligned_s = result.aligned.s
        with tel.span("baselines"):
            if "ekf" in methods:
                track = estimate_gradient_ekf_baseline(
                    rec, aligned_s, config=AltitudeEKFConfig(stride=cfg.baseline_stride)
                )
                theta, _ = track.resample(s_grid)
                per_method_thetas["ekf"].append(theta)
            if "ann" in methods and ann is not None:
                track = ann.estimate_track(rec, aligned_s, stride=cfg.baseline_stride)
                theta, _ = track.resample(s_grid)
                per_method_thetas["ann"].append(theta)

    with tel.span("score"):
        method_results: dict[str, MethodEstimate] = {}
        if "ops" in methods:
            fused = (
                fuse_estimates(ops_results, s_grid, telemetry=tel)
                if len(ops_results) > 1
                else None
            )
            theta = (
                fused.theta
                if fused is not None
                else np.interp(s_grid, ops_results[0].fused.s, ops_results[0].fused.theta)
            )
            method_results["ops"] = _score("ops", theta, truth)
        for name in ("ekf", "ann"):
            if name in methods:
                theta = np.mean(np.stack(per_method_thetas[name]), axis=0)
                method_results[name] = _score(name, theta, truth)

        detection = score_lane_change_detection(detected_events, truth_events)
    return ComparisonResult(
        profile=profile,
        s_grid=s_grid,
        truth=truth,
        methods=method_results,
        ops_results=ops_results,
        detection=detection,
    )


def evaluate_fusion_counts(
    profile: RoadProfile,
    cfg: RunnerConfig | None = None,
    subsets: dict[int, tuple[str, ...]] | None = None,
    telemetry: Telemetry | None = None,
) -> dict[int, np.ndarray]:
    """Fig 8(b): absolute-error samples per number of fused tracks.

    Runs the identical recordings through OPS restricted to 1..4 velocity
    sources; returns ``{n_tracks: errors [rad]}`` against the reference.
    """
    cfg = cfg or RunnerConfig()
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    subsets = subsets or FUSION_SUBSETS
    with tel.span("reference"):
        reference = survey_reference_profile(profile).smoothed(cfg.reference_smooth_m)
        s_grid = _common_grid(profile, cfg)
        truth = np.asarray(reference.gradient_at(s_grid), dtype=float)
    recordings = collect_recordings(profile, cfg, telemetry=tel)

    out: dict[int, np.ndarray] = {}
    for n_tracks, sources in sorted(subsets.items()):
        system = make_system(profile, cfg, velocity_sources=sources, telemetry=tel)
        results = [system.estimate(rec) for _, rec in recordings]
        fused = (
            fuse_estimates(results, s_grid, telemetry=tel) if len(results) > 1 else None
        )
        theta = (
            fused.theta
            if fused is not None
            else np.interp(s_grid, results[0].fused.s, results[0].fused.theta)
        )
        out[n_tracks] = absolute_errors(theta, truth)
    return out
