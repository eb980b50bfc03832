"""The complete road-gradient estimation system (OPS, paper Fig 1).

``GradientEstimationSystem`` runs the four paper stages as composable
stage objects (see :mod:`repro.core.stages`):

1. **data collection** — the smartphone coordinate alignment turns the gyro
   into a steering-rate profile and map-matches GPS to route positions;
2. **data adjustment** — lane-change detection (Algorithm 1) and Eq 2
   longitudinal-velocity correction;
3. **road gradient estimation** — one EKF gradient track per velocity
   source (GPS / speedometer / accelerometer / CAN-bus);
4. **track fusion** — Eq 6 convex combination onto a position grid.

The stage list itself lives in ``GradientSystemConfig.stages`` — plain
registered names, so an ablated or extended pipeline is just a different
config, and the whole config (stages included) round-trips through
JSON via :meth:`~repro.config.SerializableConfig.to_dict` /
:meth:`~repro.config.SerializableConfig.from_dict`.

Multi-vehicle (cloud) fusion reuses the same Eq 6 on the per-trip fused
tracks: :func:`fuse_estimates`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import SerializableConfig
from ..errors import EstimationError
from ..obs import NULL_TELEMETRY, Telemetry
from ..obs.health import HealthConfig, HealthMonitor, HealthReport
from ..roads.cache import CachedRoadProfile
from ..roads.profile import RoadProfile
from ..sensors.alignment import AlignedSteering, CoordinateAlignment
from ..sensors.phone import VELOCITY_SOURCES, PhoneRecording
from ..vehicle.params import DEFAULT_VEHICLE, VehicleParams
from .dead_reckoning import GPSDeniedConfig
from .gradient_ekf import GradientEKFConfig
from .lane_change.detector import LaneChangeDetector, LaneChangeDetectorConfig, LaneChangeEvent
from .sanitize import SanitizeConfig
from .stages import (
    DEFAULT_STAGES,
    ROBUST_STAGES,
    PipelineContext,
    Stage,
    build_stages,
    fusion_grid,
    run_stage_batch,
    validate_stage_names,
)
from .track import GradientTrack
from .track_fusion import fuse_tracks
from .trip_batch import BatchPipelineContext, TripBatch

__all__ = [
    "ROBUST_STAGES",
    "GradientSystemConfig",
    "EstimationResult",
    "BatchEstimate",
    "GradientEstimationSystem",
    "fuse_estimates",
]


@dataclass(frozen=True)
class GradientSystemConfig(SerializableConfig):
    """End-to-end system configuration.

    Attributes
    ----------
    velocity_sources:
        Which of the four sources to run tracks for (Fig 8(b) sweeps this).
    apply_lane_change_correction:
        Eq 2 on/off — the lane-change ablation switch.
    fusion_grid_spacing:
        Position grid step [m] for track fusion and the final profile.
    cache_geometry:
        Wrap the road map in a :class:`~repro.roads.cache.CachedRoadProfile`
        so repeated geometry queries (curvature for ``w_road``, arc-length
        interpolation) across trips hit an LRU instead of re-interpolating.
    sanitize:
        Tuning of the optional ``"sanitize"`` stage (short-gap repair
        threshold); only read when that stage is in ``stages`` (e.g. via
        :data:`~repro.core.stages.ROBUST_STAGES`).
    min_track_finite_fraction:
        Fusion quality gate: tracks whose fraction of finite gradient
        estimates falls below this are dropped from fusion instead of
        poisoning it (``pipeline.track_rejected``). Healthy tracks sit at
        1.0, so the default of 0.5 never touches clean runs; 0 disables
        the gate.
    health:
        Estimator health monitoring thresholds
        (:class:`~repro.obs.health.HealthConfig`). Monitoring is passive —
        estimates are bit-identical with it on or off — and attaches a
        :class:`~repro.obs.health.HealthReport` to each result;
        ``health.enabled=False`` skips it entirely, and
        ``health.gate_fusion=True`` additionally excludes ``diverged``
        tracks from fusion.
    stages:
        The pipeline as an ordered tuple of registered stage names
        (:data:`~repro.core.stages.STAGE_REGISTRY`). Defaults to the
        paper's four-stage dataflow; ablate or extend by listing a
        different sequence.
    gps_denied:
        GPS-denied operating mode
        (:class:`~repro.core.dead_reckoning.GPSDeniedConfig`): outage-mode
        handling, covariance inflation on reacquisition, and — when a
        :class:`~repro.roads.prior_map.PriorGradeMap` is configured —
        prior-map gradient updates through outages. Disabled by default;
        when disabled the pipeline output is bit-identical to a config
        without the field. Enabling it runs every track through the
        scalar EKF kernel (the vectorized kernel has no outage plan).

    The EKF kernel is not a knob: :func:`~repro.core.batch.estimate_tracks_batch`
    picks the scalar or vectorized kernel by track count, and the two are
    bit-identical.
    """

    ekf: GradientEKFConfig = field(default_factory=GradientEKFConfig)
    detector: LaneChangeDetectorConfig = field(default_factory=LaneChangeDetectorConfig)
    velocity_sources: tuple[str, ...] = VELOCITY_SOURCES
    apply_lane_change_correction: bool = True
    fusion_grid_spacing: float = 5.0
    cache_geometry: bool = True
    sanitize: SanitizeConfig = field(default_factory=SanitizeConfig)
    min_track_finite_fraction: float = 0.5
    health: HealthConfig = field(default_factory=HealthConfig)
    stages: tuple[str, ...] = DEFAULT_STAGES
    gps_denied: GPSDeniedConfig = field(default_factory=GPSDeniedConfig)

    def __post_init__(self) -> None:
        unknown = [s for s in self.velocity_sources if s not in VELOCITY_SOURCES]
        if unknown:
            raise EstimationError(
                f"unknown velocity sources: {sorted(set(unknown))}; "
                f"valid options are {list(VELOCITY_SOURCES)}"
            )
        if not self.velocity_sources:
            raise EstimationError(
                f"at least one velocity source is required; "
                f"valid options are {list(VELOCITY_SOURCES)}"
            )
        if len(set(self.velocity_sources)) != len(self.velocity_sources):
            seen: set[str] = set()
            dupes = sorted(
                {s for s in self.velocity_sources if s in seen or seen.add(s)}
            )
            raise EstimationError(f"duplicate velocity sources: {dupes}")
        if self.fusion_grid_spacing <= 0.0:
            raise EstimationError("fusion grid spacing must be positive")
        if not 0.0 <= self.min_track_finite_fraction <= 1.0:
            raise EstimationError(
                f"min_track_finite_fraction must be in [0, 1], got "
                f"{self.min_track_finite_fraction}"
            )
        validate_stage_names(self.stages)


@dataclass
class EstimationResult:
    """Everything one trip's estimation produced."""

    fused: GradientTrack
    tracks: dict[str, GradientTrack]
    events: list[LaneChangeEvent]
    aligned: AlignedSteering
    s_grid: np.ndarray
    health: HealthReport | None = None

    def gradient_at(self, s: float | np.ndarray):
        """Fused gradient [rad] at arc length ``s`` (linear interpolation)."""
        scalar = np.isscalar(s)
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.interp(s_arr, self.fused.s, self.fused.theta)
        return float(out[0]) if scalar else out

    @property
    def n_lane_changes(self) -> int:
        """Number of detected lane changes."""
        return len(self.events)


@dataclass
class BatchEstimate:
    """Outcome of one batched estimation pass over N trips.

    ``results[i]`` is trip ``i``'s :class:`EstimationResult`, or ``None``
    when that trip failed; ``errors`` maps each failed position to the
    exception that removed it — the same exception the serial
    :meth:`GradientEstimationSystem.estimate` call would have raised for
    that recording.
    """

    results: list[EstimationResult | None]
    errors: dict[int, BaseException]

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    @property
    def n_ok(self) -> int:
        """Trips that produced a result."""
        return len(self.results) - len(self.errors)


class GradientEstimationSystem:
    """OPS: the paper's proposed system, end to end.

    A thin runner over the configured stage objects: construction resolves
    ``config.stages`` against the stage registry, and :meth:`estimate`
    threads a :class:`~repro.core.stages.PipelineContext` through them,
    one telemetry span per stage.

    Parameters
    ----------
    road_map:
        Road geometry (positions/curvature only — the *gradient* field is
        never read; it is exactly what the system estimates). This mirrors
        the paper, where road geography comes from a map service while the
        gradient is unknown.
    """

    def __init__(
        self,
        road_map: RoadProfile,
        vehicle: VehicleParams | None = None,
        config: GradientSystemConfig | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.config = config or GradientSystemConfig()
        if self.config.cache_geometry and not isinstance(road_map, CachedRoadProfile):
            road_map = CachedRoadProfile(road_map)
        self.road_map = road_map
        self.vehicle = vehicle or DEFAULT_VEHICLE
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.alignment = CoordinateAlignment(road_map, telemetry=self.telemetry)
        self.detector = LaneChangeDetector(self.config.detector, telemetry=self.telemetry)
        self.stages: list[Stage] = build_stages(self.config.stages, self)

    @classmethod
    def from_spec(
        cls,
        road_map: RoadProfile,
        spec: dict,
        vehicle: VehicleParams | None = None,
        telemetry: Telemetry | None = None,
    ) -> "GradientEstimationSystem":
        """Build a system from a serialized config dict (worker-side path)."""
        return cls(
            road_map,
            vehicle=vehicle,
            config=GradientSystemConfig.from_dict(spec),
            telemetry=telemetry,
        )

    def estimate(self, recording: PhoneRecording) -> EstimationResult:
        """Estimate the road-gradient profile from one phone recording."""
        cfg = self.config
        tel = self.telemetry

        ctx = PipelineContext(
            recording=recording,
            config=cfg,
            road_map=self.road_map,
            vehicle=self.vehicle,
            telemetry=tel,
        )
        monitor: HealthMonitor | None = None
        if cfg.health.enabled:
            monitor = HealthMonitor(
                cfg.health,
                telemetry=tel,
                p22_initial=cfg.ekf.initial_grade_std**2,
            )
            # Screen the *raw* recording before any stage (sanitize repairs
            # NaN bursts, so the screen must see the original input).
            monitor.check_recording(recording)
            ctx.extras["health_monitor"] = monitor
        with tel.span("estimate", n_sources=len(cfg.velocity_sources)):
            for stage in self.stages:
                with tel.span(stage.name) as span:
                    ctx.span = span
                    ctx = stage.run(ctx)
                ctx.span = None
        tel.count("pipeline.estimates")

        if ctx.fused is None or ctx.aligned is None or ctx.s_grid is None:
            missing = [
                name
                for name, value in (
                    ("aligned", ctx.aligned),
                    ("fused", ctx.fused),
                    ("s_grid", ctx.s_grid),
                )
                if value is None
            ]
            raise EstimationError(
                f"configured stages {list(cfg.stages)} did not produce "
                f"{missing}; a complete pipeline needs the alignment and "
                f"fusion stages (or custom stages filling the same outputs)"
            )
        report: HealthReport | None = None
        if monitor is not None:
            report = monitor.report()
            if report.verdict != "ok" and tel.active:
                tel.count(
                    "health.trips_flagged", labels={"verdict": report.verdict}
                )
                tel.event(
                    "health.trip_flagged",
                    verdict=report.verdict,
                    n_flags=report.n_flags,
                    kinds=report.flag_kinds(),
                )
        return EstimationResult(
            fused=ctx.fused,
            tracks=ctx.tracks,
            events=ctx.events,
            aligned=ctx.aligned,
            s_grid=ctx.s_grid,
            health=report,
        )

    def estimate_batch(
        self,
        recordings,
        telemetries: list[Telemetry | None] | None = None,
    ) -> BatchEstimate:
        """Estimate N trips in one batched pipeline pass.

        The stage list runs once over a columnar
        :class:`~repro.core.trip_batch.TripBatch` (stages without a batch
        entry point loop their serial ``run``); each trip's outputs,
        errors, health report and telemetry are identical to what a
        per-trip :meth:`estimate` call produces, but the interpreter and
        dispatch cost is paid per batch instead of per trip. A failing
        trip is isolated — it lands in :attr:`BatchEstimate.errors` while
        the rest of the batch completes.

        Parameters
        ----------
        recordings:
            A sequence of :class:`~repro.sensors.phone.PhoneRecording`,
            or a prebuilt :class:`~repro.core.trip_batch.TripBatch` (e.g.
            the zero-copy :class:`~repro.sensors.recording_io.TripStore`
            path).
        telemetries:
            Optional per-trip telemetry sinks. When given, trip ``i``'s
            stage metrics go to ``telemetries[i]`` exactly as if a serial
            system had been built around that telemetry; when omitted,
            every trip reports to the system telemetry.
        """
        cfg = self.config
        tel = self.telemetry
        if isinstance(recordings, TripBatch):
            batch = recordings
            recs = [batch.recording(i) for i in range(len(batch))]
        else:
            recs = list(recordings)
            if not recs:
                raise EstimationError(
                    "estimate_batch needs at least one recording"
                )
            batch = TripBatch(recs)
        n = len(recs)
        if telemetries is None:
            tels: list[Telemetry] = [tel] * n
        else:
            if len(telemetries) != n:
                raise EstimationError(
                    "telemetries must match the number of recordings"
                )
            tels = [t if t is not None else NULL_TELEMETRY for t in telemetries]

        contexts: list[PipelineContext] = []
        bctx = BatchPipelineContext(
            batch=batch,
            contexts=contexts,
            config=cfg,
            road_map=self.road_map,
            vehicle=self.vehicle,
            telemetry=tel,
        )
        for i, rec in enumerate(recs):
            ctx = PipelineContext(
                recording=rec,
                config=cfg,
                road_map=self.road_map,
                vehicle=self.vehicle,
                telemetry=tels[i],
            )
            contexts.append(ctx)
            if cfg.health.enabled:
                try:
                    monitor = HealthMonitor(
                        cfg.health,
                        telemetry=tels[i],
                        p22_initial=cfg.ekf.initial_grade_std**2,
                    )
                    # Screen the *raw* recording before any stage, exactly
                    # as the serial path does.
                    monitor.check_recording(rec)
                except Exception as exc:  # noqa: BLE001 - per-trip isolation
                    bctx.fail(i, exc)
                    continue
                ctx.extras["health_monitor"] = monitor

        with tel.span("estimate_batch", n_trips=n):
            for stage in self.stages:
                with tel.span(stage.name, n_live=bctx.n_live):
                    run_stage_batch(stage, bctx)

        results: list[EstimationResult | None] = [None] * n
        for pos, ctx in list(bctx.live_items()):
            trip_tel = tels[pos]
            trip_tel.count("pipeline.estimates")
            if ctx.fused is None or ctx.aligned is None or ctx.s_grid is None:
                missing = [
                    name
                    for name, value in (
                        ("aligned", ctx.aligned),
                        ("fused", ctx.fused),
                        ("s_grid", ctx.s_grid),
                    )
                    if value is None
                ]
                bctx.fail(
                    pos,
                    EstimationError(
                        f"configured stages {list(cfg.stages)} did not produce "
                        f"{missing}; a complete pipeline needs the alignment "
                        f"and fusion stages (or custom stages filling the "
                        f"same outputs)"
                    ),
                )
                continue
            report: HealthReport | None = None
            monitor = ctx.extras.get("health_monitor")
            if monitor is not None:
                report = monitor.report()
                if report.verdict != "ok" and trip_tel.active:
                    trip_tel.count(
                        "health.trips_flagged",
                        labels={"verdict": report.verdict},
                    )
                    trip_tel.event(
                        "health.trip_flagged",
                        verdict=report.verdict,
                        n_flags=report.n_flags,
                        kinds=report.flag_kinds(),
                    )
            results[pos] = EstimationResult(
                fused=ctx.fused,
                tracks=ctx.tracks,
                events=ctx.events,
                aligned=ctx.aligned,
                s_grid=ctx.s_grid,
                health=report,
            )
        if tel.active:
            tel.count("pipeline.batch.trips", n)
        return BatchEstimate(results=results, errors=dict(bctx.failed))

    def _fusion_grid(self, aligned: AlignedSteering) -> np.ndarray:
        """The fusion grid for one aligned trip (kept for introspection)."""
        return fusion_grid(
            aligned, self.road_map.length, self.config.fusion_grid_spacing
        )


def fuse_estimates(
    results: list[EstimationResult],
    s_grid: np.ndarray | None = None,
    name: str = "cloud-fused",
    telemetry: Telemetry | None = None,
) -> GradientTrack:
    """Cloud-side fusion of several trips' fused tracks (Sec III-C3).

    Different vehicles (or repeated runs) upload their per-trip fused
    gradient tracks; the cloud applies the same Eq 6 convex combination.
    When ``s_grid`` is omitted, the union of the trips' grids defines it:
    the grid spans all trips and steps by the *finest* spacing any trip
    used, so mixed-spacing uploads never alias onto a coarser grid.
    """
    if not results:
        raise EstimationError("fuse_estimates needs at least one result")
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    with tel.span("cloud_fusion", n_trips=len(results)):
        if s_grid is None:
            spacings = []
            for i, r in enumerate(results):
                grid = np.asarray(r.s_grid, dtype=float)
                if grid.ndim != 1 or len(grid) < 2:
                    raise EstimationError(
                        f"result {i} has a degenerate s_grid "
                        f"({len(np.atleast_1d(grid))} point(s)); cloud fusion "
                        f"needs at least two grid points per trip"
                    )
                spacing_i = float(np.median(np.diff(grid)))
                if not np.isfinite(spacing_i) or spacing_i <= 0.0:
                    raise EstimationError(
                        f"result {i} has a non-increasing s_grid "
                        f"(median spacing {spacing_i}); cloud fusion needs "
                        f"monotonically increasing grids"
                    )
                spacings.append(spacing_i)
            spacing = min(spacings)
            if max(spacings) - spacing > 1e-9 * max(spacings):
                tel.count("pipeline.cloud_fusion_spacing_mismatch")
                tel.event(
                    "cloud_fusion.spacing_mismatch",
                    spacings=sorted(set(round(sp, 9) for sp in spacings)),
                    used=spacing,
                )
            lo = min(float(r.s_grid[0]) for r in results)
            hi = max(float(r.s_grid[-1]) for r in results)
            s_grid = lo + np.arange(int((hi - lo) / spacing) + 1) * spacing
        fused = fuse_tracks(
            [r.fused for r in results],
            np.asarray(s_grid, dtype=float),
            name=name,
            telemetry=tel,
        )
    tel.count("pipeline.cloud_fusions")
    return fused
