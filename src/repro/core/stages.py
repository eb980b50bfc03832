"""Composable stage architecture for the estimation pipeline (paper Fig 1).

The paper's OPS is a four-stage dataflow — data collection → data
adjustment → gradient estimation → track fusion. Here each stage is a
first-class object implementing the :class:`Stage` protocol (``name`` +
``run(ctx) -> ctx``) over a shared :class:`PipelineContext`, and
:class:`~repro.core.pipeline.GradientEstimationSystem` is a thin runner
over ``config.stages``. That makes the stage list swappable (ablations),
extensible (insert a custom stage by name), and expressible as plain data
(a tuple of registered names inside a serializable config).

Stage ↔ paper mapping
---------------------
========================  =====================================================
``alignment``             data collection: coordinate alignment (Fig 2),
                          map-matched arc length, steering-rate profile
``lane_change``           data adjustment: LOESS smoothing + Algorithm 1
                          detection (Eq 1 displacement rule)
``ekf_tracks``            gradient estimation: one EKF track per velocity
                          source (Eq 2 correction applied per source), one
                          EKF call routed by track count
``fusion``                track fusion: Eq 6 convex combination on a position
                          grid
========================  =====================================================

Custom stages register with :func:`register_stage`; the factory receives
the owning ``GradientEstimationSystem`` so it can reach the road map,
vehicle parameters and telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Protocol, runtime_checkable

import numpy as np

from ..errors import DegradedInputError, EstimationError, FusionError
from ..obs import Telemetry
from ..roads.profile import RoadProfile
from ..sensors.alignment import AlignedSteering, CoordinateAlignment, map_match
from ..sensors.base import SampledSignal
from ..sensors.phone import PhoneRecording
from ..vehicle.params import VehicleParams
from .batch import estimate_tracks_batch, runs_vectorized
from .lane_change.correction import correct_velocity_signal
from .lane_change.detector import LaneChangeDetector, LaneChangeEvent
from .lane_change.smoothing import loess_smooth_batch
from .sanitize import SanitizeStage
from .track import GradientTrack
from .track_fusion import convex_combination, fuse_tracks
from .trip_batch import BatchPipelineContext

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a circular import
    from .pipeline import GradientEstimationSystem, GradientSystemConfig

__all__ = [
    "DEFAULT_STAGES",
    "ROBUST_STAGES",
    "STAGE_REGISTRY",
    "PipelineContext",
    "Stage",
    "AlignmentStage",
    "LaneChangeStage",
    "TrackEstimationStage",
    "FusionStage",
    "register_stage",
    "build_stages",
    "validate_stage_names",
    "run_stage_batch",
    "fusion_grid",
]

#: The paper's Fig 1 dataflow, in order.
DEFAULT_STAGES = ("alignment", "lane_change", "ekf_tracks", "fusion")

#: The degraded-sensor pipeline: sanitization prepended to the paper's
#: dataflow. On clean inputs the sanitize stage is an identity pass-through,
#: so this stage list produces bit-identical output to ``DEFAULT_STAGES``.
ROBUST_STAGES = ("sanitize",) + DEFAULT_STAGES


@dataclass
class PipelineContext:
    """Everything flowing through one trip's estimation.

    The immutable inputs (recording, config, road map, vehicle, telemetry)
    are set by the runner; each stage fills in its outputs and returns the
    context. ``span`` is the currently-open telemetry span for the running
    stage (stages may attach attributes to it); ``extras`` is scratch space
    for custom stages so they can pass data to each other without touching
    the core fields.
    """

    recording: PhoneRecording
    config: "GradientSystemConfig"
    road_map: RoadProfile
    vehicle: VehicleParams
    telemetry: Telemetry
    aligned: AlignedSteering | None = None
    w_smooth: np.ndarray | None = None
    events: list[LaneChangeEvent] = field(default_factory=list)
    signals: dict[str, SampledSignal] = field(default_factory=dict)
    tracks: dict[str, GradientTrack] = field(default_factory=dict)
    s_grid: np.ndarray | None = None
    fused: GradientTrack | None = None
    span: Any = None
    extras: dict = field(default_factory=dict)

    def require(self, attr: str, needed_by: str) -> Any:
        """Fetch a prior stage's output, failing with a clear message."""
        value = getattr(self, attr)
        if value is None:
            raise EstimationError(
                f"stage {needed_by!r} needs {attr!r}, which no earlier stage "
                f"produced; check the configured stage order"
            )
        return value


@runtime_checkable
class Stage(Protocol):
    """One pipeline stage: a named transform over the context.

    Stages may additionally implement the *optional* batch entry point
    ``run_batch(bctx: BatchPipelineContext) -> None``, which processes all
    live trips of a batch in one pass (columnar fast paths). Stages
    without it — third-party stages included — still work in batch mode:
    :func:`run_stage_batch` falls back to looping ``run`` per trip. A
    stage that declares ``run_batch`` must keep ``run`` as well (enforced
    by reprolint RL003) and must produce per-trip outputs and telemetry
    identical to its serial ``run``.
    """

    name: str

    def run(self, ctx: PipelineContext) -> PipelineContext:
        """Consume prior stages' outputs from ``ctx``, write this stage's."""
        ...


class AlignmentStage:
    """Data collection: smartphone coordinate alignment (Fig 2)."""

    name = "alignment"

    def __init__(self, alignment: CoordinateAlignment) -> None:
        self._alignment = alignment

    def run(self, ctx: PipelineContext) -> PipelineContext:
        rec = ctx.recording
        ctx.aligned = self._alignment.align(rec.gyro, rec.speedometer, rec.gps)
        return ctx

    def run_batch(self, bctx: BatchPipelineContext) -> None:
        """Align all live trips: columnar integration + one curvature query.

        The inherently sequential parts (speed interpolation onto each
        timebase, GPS map matching, dead-reckoning offsets) stay per-trip,
        but the speed integral, the road-curvature lookup and the
        ``w_steer = w_vehicle - w_road`` assembly run once over the padded
        matrices. Trips whose gyro does not share the recording timebase
        (the only channel read columnar here — speed is interpolated and
        GPS matched per trip) replay the scalar path. Per-trip outputs
        and telemetry are identical to :meth:`run` either way.
        """
        batch = bctx.batch
        profile = self._alignment.profile
        uniform = batch.channel_uniform("gyro")
        entries: list[tuple[int, PipelineContext]] = []
        for pos, ctx in list(bctx.live_items()):
            if uniform[pos] and len(ctx.recording.gyro.t) >= 2:
                entries.append((pos, ctx))
                continue
            try:
                aligner = CoordinateAlignment(profile, telemetry=ctx.telemetry)
                rec = ctx.recording
                ctx.aligned = aligner.align(rec.gyro, rec.speedometer, rec.gps)
            except Exception as exc:  # noqa: BLE001 - per-trip isolation
                bctx.fail(pos, exc)
        if not entries:
            return

        idx = [pos for pos, _ in entries]
        t2d = batch.t2d[idx]
        gyro_vals = batch.column("gyro")[0][idx]
        n_rows, width = t2d.shape
        lengths = batch.lengths[idx]
        alive = np.ones(n_rows, dtype=bool)

        # Columnar speed integral; rows are bit-identical to the scalar
        # cumsum because padding contributes exact zeros.
        v2d = np.zeros((n_rows, width))
        for r, (pos, ctx) in enumerate(entries):
            rec = ctx.recording
            n = lengths[r]
            try:
                v = rec.speedometer.interpolate_to(rec.gyro.t)
            except Exception as exc:  # noqa: BLE001 - per-trip isolation
                bctx.fail(pos, exc)
                alive[r] = False
                continue
            v2d[r, :n] = np.where(np.isfinite(v), v, 0.0)
        dt2d = np.diff(t2d, axis=1, prepend=t2d[:, :1])
        travelled = np.cumsum(v2d * dt2d, axis=1)

        # Map matching and dead reckoning stay per-trip (sequential search
        # over a handful of GPS fixes), reusing the shared speed integral.
        s2d = np.zeros((n_rows, width))
        known2d = np.zeros((n_rows, width), dtype=bool)
        matched = np.zeros(n_rows, dtype=int)
        for r, (pos, ctx) in enumerate(entries):
            if not alive[r]:
                continue
            rec = ctx.recording
            n = lengths[r]
            t = rec.gyro.t
            try:
                trav = travelled[r, :n]
                travelled_at_fix = np.interp(rec.gps.t, t, trav)
                expected_step = np.diff(
                    travelled_at_fix, prepend=travelled_at_fix[0]
                )
                s_fix = map_match(
                    profile, rec.gps.x, rec.gps.y, expected_step=expected_step
                )
                s = CoordinateAlignment._dead_reckon(
                    t, v2d[r, :n], rec.gps.t, s_fix, s_dr=trav
                )
                gps_ok = (
                    np.interp(t, rec.gps.t, rec.gps.available.astype(float))
                    > 0.5
                )
            except Exception as exc:  # noqa: BLE001 - per-trip isolation
                bctx.fail(pos, exc)
                alive[r] = False
                continue
            s2d[r, :n] = s
            known2d[r, :n] = gps_ok & np.isfinite(s)
            matched[r] = int(np.count_nonzero(np.isfinite(s_fix)))

        # One curvature query over the whole batch (the cache layer keys on
        # shape + bytes, so 2-D queries are first-class), then the columnar
        # steering-rate assembly.
        curvature = profile.curvature_at(np.where(np.isfinite(s2d), s2d, 0.0))
        w_road2d = np.where(known2d, curvature * v2d, 0.0)
        w_steer2d = gyro_vals - w_road2d

        for r, (pos, ctx) in enumerate(entries):
            if not alive[r]:
                continue
            rec = ctx.recording
            n = lengths[r]
            known = known2d[r, :n]
            tel = ctx.telemetry
            if tel.active:
                tel.count("alignment.samples", int(n))
                tel.count("alignment.gps_fixes", len(rec.gps))
                tel.count("alignment.matched_fixes", int(matched[r]))
                tel.count("alignment.dropped_fixes", len(rec.gps) - int(matched[r]))
                tel.count(
                    "alignment.outage_samples", int(np.count_nonzero(~known))
                )
                tel.gauge("alignment.yaw_offset", 0.0)
            ctx.aligned = AlignedSteering(
                t=rec.gyro.t,
                w_vehicle=rec.gyro.values,
                w_road=w_road2d[r, :n],
                w_steer=w_steer2d[r, :n],
                s=s2d[r, :n],
                v=v2d[r, :n],
                road_rate_known=known,
                yaw_offset=0.0,
            )


class LaneChangeStage:
    """Data adjustment: LOESS smoothing + Algorithm 1 lane-change detection."""

    name = "lane_change"

    def __init__(self, detector: LaneChangeDetector) -> None:
        self._detector = detector

    def run(self, ctx: PipelineContext) -> PipelineContext:
        aligned = ctx.require("aligned", self.name)
        ctx.w_smooth = self._detector.smooth(aligned.w_steer)
        ctx.events = self._detector.detect(
            aligned.t, ctx.w_smooth, aligned.v, presmoothed=True
        )
        if ctx.span is not None:
            ctx.span.set(n_events=len(ctx.events))
        return ctx

    def run_batch(self, bctx: BatchPipelineContext) -> None:
        """Smooth all steering profiles in one batched LOESS pass.

        The LOESS interior and the per-offset edge regressions are
        vectorized across trips (``loess_smooth_batch`` is bitwise equal
        to the scalar smoother row by row); Algorithm 1's state machine
        stays per-trip, running against each trip's own telemetry.
        """
        cfg = self._detector.config
        entries: list[tuple[int, PipelineContext, AlignedSteering]] = []
        for pos, ctx in list(bctx.live_items()):
            try:
                entries.append((pos, ctx, ctx.require("aligned", self.name)))
            except Exception as exc:  # noqa: BLE001 - per-trip isolation
                bctx.fail(pos, exc)
        if not entries:
            return
        lengths = np.array([len(aligned.w_steer) for _, _, aligned in entries])
        width = int(lengths.max()) if len(lengths) else 0
        w_steer2d = np.zeros((len(entries), width))
        for r, (_, _, aligned) in enumerate(entries):
            w_steer2d[r, : lengths[r]] = aligned.w_steer
        smoothed = loess_smooth_batch(
            w_steer2d, lengths, cfg.smoothing_half_window
        )
        for r, (pos, ctx, aligned) in enumerate(entries):
            try:
                ctx.w_smooth = smoothed[r, : lengths[r]]
                detector = LaneChangeDetector(cfg, telemetry=ctx.telemetry)
                ctx.events = detector.detect(
                    aligned.t, ctx.w_smooth, aligned.v, presmoothed=True
                )
            except Exception as exc:  # noqa: BLE001 - per-trip isolation
                bctx.fail(pos, exc)


class TrackEstimationStage:
    """Gradient estimation: one EKF track per velocity source.

    The corrected velocity signals are prepared per source (Eq 2 when lane
    changes were detected); the EKF then runs in one
    :func:`~repro.core.batch.estimate_tracks_batch` call, which picks the
    scalar or vectorized kernel by track count — the two are bit-identical
    (see ``tests/core/test_batch_equivalence``).

    Degraded sources do not take the trip down: a velocity source with no
    usable measurement at all (every sample invalid or non-finite, e.g. GPS
    through a total outage, a speedometer masked by the sanitize stage) is
    *rejected* — counted under ``pipeline.track_rejected`` — and estimation
    continues with the surviving sources. Only when every configured source
    is rejected does the stage raise :class:`~repro.errors.DegradedInputError`.
    """

    name = "ekf_tracks"

    def _prepare_signals(
        self, ctx: PipelineContext, aligned: AlignedSteering
    ) -> tuple[list[str], list[SampledSignal]]:
        """Per-source corrected velocity signals, with degraded-source
        rejection; raises when every configured source is rejected."""
        cfg = ctx.config
        tel = ctx.telemetry
        signals: list[SampledSignal] = []
        kept: list[str] = []
        for source in cfg.velocity_sources:
            with tel.span("track", source=source) as span:
                signal = ctx.recording.velocity_source(source)
                if cfg.apply_lane_change_correction and ctx.events:
                    signal = correct_velocity_signal(
                        signal, aligned.t, ctx.w_smooth, ctx.events
                    )
                if not np.any(signal.valid & np.isfinite(signal.values)):
                    span.set(rejected=True)
                    if tel.active:
                        tel.count("pipeline.track_rejected")
                        tel.event(
                            "pipeline.track_rejected",
                            source=source,
                            reason="no_valid_measurements",
                        )
                    continue
                signals.append(signal)
                kept.append(source)
        if not kept:
            raise DegradedInputError(
                f"every velocity source in {list(cfg.velocity_sources)} was "
                f"rejected (no valid measurements); the recording is too "
                f"degraded to estimate"
            )
        ctx.signals = dict(zip(kept, signals))
        return kept, signals

    def run(self, ctx: PipelineContext) -> PipelineContext:
        cfg = ctx.config
        aligned = ctx.require("aligned", self.name)
        kept, signals = self._prepare_signals(ctx, aligned)
        n = len(signals)
        batch = estimate_tracks_batch(
            [ctx.recording.accel_long] * n,
            signals,
            [aligned.s] * n,
            vehicle=ctx.vehicle,
            config=cfg.ekf,
            names=kept,
            telemetry=ctx.telemetry,
            monitor=ctx.extras.get("health_monitor"),
            gps_denied=cfg.gps_denied,
        )
        ctx.tracks = dict(zip(kept, batch))
        return ctx

    def run_batch(self, bctx: BatchPipelineContext) -> None:
        """Estimate every live trip's tracks, in one flattened EKF call
        when that call runs the vectorized kernel.

        The (trip, source) tracks of all live trips flatten into a *single*
        :func:`estimate_tracks_batch` call. Both of its kernels are
        elementwise per track, so each flattened track is bit-identical to
        the per-trip call while a wide call amortises the interpreter cost
        per tick. A chunk the scalar core would loop anyway gains nothing
        from flattening, so it runs one call per trip and a failure stays
        with its trip. Per-track telemetry and health monitoring report to
        each trip's own sinks.
        """
        cfg = bctx.config
        prepared: list[
            tuple[int, PipelineContext, AlignedSteering, list[str], list[SampledSignal]]
        ] = []
        for pos, ctx in list(bctx.live_items()):
            try:
                aligned = ctx.require("aligned", self.name)
                kept, signals = self._prepare_signals(ctx, aligned)
                # Pre-validate per trip so one malformed trip cannot abort
                # the flattened call; messages match the engine's own.
                t_accel = ctx.recording.accel_long.t
                if len(t_accel) < 2:
                    raise EstimationError(
                        "gradient estimation needs at least two samples"
                    )
                if np.asarray(aligned.s, dtype=float).shape != t_accel.shape:
                    raise EstimationError(
                        "arc-length array must match the accel timebase"
                    )
            except Exception as exc:  # noqa: BLE001 - per-trip isolation
                bctx.fail(pos, exc)
                continue
            prepared.append((pos, ctx, aligned, kept, signals))
        if not prepared:
            return

        n_flat = sum(len(entry[4]) for entry in prepared)
        if runs_vectorized(n_flat, cfg.ekf, cfg.gps_denied):
            groups = [prepared]
        else:
            groups = [[entry] for entry in prepared]
        for group in groups:
            flat_accels: list[SampledSignal] = []
            flat_signals: list[SampledSignal] = []
            flat_s: list[np.ndarray] = []
            flat_names: list[str] = []
            flat_tels: list[Telemetry] = []
            flat_mons: list[Any] = []
            for pos, ctx, aligned, kept, signals in group:
                n = len(signals)
                flat_accels.extend([ctx.recording.accel_long] * n)
                flat_signals.extend(signals)
                flat_s.extend([aligned.s] * n)
                flat_names.extend(kept)
                flat_tels.extend([ctx.telemetry] * n)
                flat_mons.extend([ctx.extras.get("health_monitor")] * n)
            try:
                flat_tracks = estimate_tracks_batch(
                    flat_accels,
                    flat_signals,
                    flat_s,
                    vehicle=bctx.vehicle,
                    config=cfg.ekf,
                    names=flat_names,
                    telemetries=flat_tels,
                    monitors=flat_mons,
                    gps_denied=cfg.gps_denied,
                )
            except Exception as exc:  # noqa: BLE001 - per-trip isolation
                for pos, *_ in group:
                    bctx.fail(pos, exc)
                continue
            offset = 0
            for pos, ctx, aligned, kept, signals in group:
                n = len(signals)
                ctx.tracks = dict(zip(kept, flat_tracks[offset : offset + n]))
                offset += n


class FusionStage:
    """Track fusion: Eq 6 convex combination on a position grid.

    Fusion is quality-gated: a track whose gradient estimates are mostly
    non-finite (finite fraction below ``config.min_track_finite_fraction``)
    carries more poison than information, so it is dropped — counted under
    ``pipeline.track_rejected`` — rather than fused. Healthy tracks always
    pass the gate (their finite fraction is 1.0), so clean-input output is
    unchanged. If the gate rejects every track the trip is unestimable and
    :class:`~repro.errors.DegradedInputError` is raised.
    """

    name = "fusion"

    def _gate_tracks(self, ctx: PipelineContext) -> list[GradientTrack]:
        """Apply the finite-fraction and health gates; raises when every
        track is rejected."""
        tel = ctx.telemetry
        if not ctx.tracks:
            raise EstimationError(
                "stage 'fusion' needs at least one gradient track; check the "
                "configured stage order"
            )
        min_fraction = ctx.config.min_track_finite_fraction
        monitor = ctx.extras.get("health_monitor")
        kept: list[GradientTrack] = []
        for name, track in ctx.tracks.items():
            fraction = float(np.mean(np.isfinite(track.theta)))
            if fraction < min_fraction:
                if tel.active:
                    tel.count("pipeline.track_rejected")
                    tel.event(
                        "pipeline.track_rejected",
                        source=name,
                        reason="low_finite_fraction",
                        finite_fraction=round(fraction, 4),
                    )
                continue
            if monitor is not None:
                verdict = monitor.track_verdict(name)
                if verdict != "ok":
                    if tel.active:
                        tel.count(
                            "health.track_flagged", labels={"verdict": verdict}
                        )
                        tel.event(
                            "health.track_flagged", source=name, verdict=verdict
                        )
                    # Exclusion is opt-in: monitoring alone must never
                    # change what gets fused.
                    if verdict == "diverged" and monitor.config.gate_fusion:
                        if tel.active:
                            tel.count("pipeline.track_rejected")
                            tel.event(
                                "pipeline.track_rejected",
                                source=name,
                                reason="health_diverged",
                            )
                        continue
            kept.append(track)
        if not kept:
            raise DegradedInputError(
                f"every gradient track fell below the fusion quality gate "
                f"(finite fraction < {min_fraction}); the recording is too "
                f"degraded to estimate"
            )
        return kept

    def run(self, ctx: PipelineContext) -> PipelineContext:
        aligned = ctx.require("aligned", self.name)
        kept = self._gate_tracks(ctx)
        ctx.s_grid = fusion_grid(
            aligned, ctx.road_map.length, ctx.config.fusion_grid_spacing
        )
        ctx.fused = fuse_tracks(
            kept, ctx.s_grid, name="fused", telemetry=ctx.telemetry
        )
        return ctx

    def run_batch(self, bctx: BatchPipelineContext) -> None:
        """Fuse every live trip through one convex-combination call.

        Gating, per-trip grids and track resampling mirror :meth:`run`;
        the Eq 6 inverse-variance combination then runs once over all
        trips' grids concatenated column-wise, with shorter trips' track
        rows padded by NaN (weight exactly 0). Eq 6 is columnwise, so
        each trip's slice of the result is bit-for-bit what its own
        :func:`fuse_tracks` call would produce; trips with uncovered grid
        cells fail individually with the same :class:`FusionError`.
        """
        entries: list[
            tuple[int, PipelineContext, list[GradientTrack], np.ndarray, np.ndarray, np.ndarray]
        ] = []
        for pos, ctx in list(bctx.live_items()):
            try:
                aligned = ctx.require("aligned", self.name)
                kept = self._gate_tracks(ctx)
                s_grid = fusion_grid(
                    aligned, bctx.road_map.length, bctx.config.fusion_grid_spacing
                )
                thetas = np.empty((len(kept), len(s_grid)))
                variances = np.empty_like(thetas)
                for i, track in enumerate(kept):
                    thetas[i], variances[i] = track.resample(s_grid)
                tel = ctx.telemetry
                if tel.active:
                    ok = (
                        np.isfinite(thetas)
                        & np.isfinite(variances)
                        & (variances > 0.0)
                    )
                    tel.count("fusion_tracks_in", len(kept))
                    tel.count("fusion.grid_points", len(s_grid))
                    tel.count(
                        "fusion.uncovered_cells",
                        int(ok.size - np.count_nonzero(ok)),
                    )
                # Coverage must fail per trip *before* the shared call, or
                # one uncovered trip would abort every trip in the batch.
                covered = (
                    np.isfinite(thetas)
                    & np.isfinite(variances)
                    & (variances > 0.0)
                ).any(axis=0)
                if not covered.all():
                    raise FusionError("some positions are covered by no track")
            except Exception as exc:  # noqa: BLE001 - per-trip isolation
                bctx.fail(pos, exc)
                continue
            entries.append((pos, ctx, kept, s_grid, thetas, variances))
        if not entries:
            return

        max_tracks = max(len(kept) for _, _, kept, _, _, _ in entries)
        total_cols = sum(len(s_grid) for _, _, _, s_grid, _, _ in entries)
        all_thetas = np.full((max_tracks, total_cols), np.nan)
        all_variances = np.full((max_tracks, total_cols), np.nan)
        col = 0
        for _, _, kept, s_grid, thetas, variances in entries:
            m = len(s_grid)
            all_thetas[: len(kept), col : col + m] = thetas
            all_variances[: len(kept), col : col + m] = variances
            col += m
        theta_bar, var_bar = convex_combination(all_thetas, all_variances)

        col = 0
        for pos, ctx, kept, s_grid, thetas, variances in entries:
            m = len(s_grid)
            first = kept[0]
            order = np.argsort(first.s)
            t_grid = np.interp(s_grid, first.s[order], first.t[order])
            v_grid = np.interp(s_grid, first.s[order], first.v[order])
            ctx.s_grid = s_grid
            ctx.fused = GradientTrack(
                name="fused",
                t=t_grid,
                s=s_grid.copy(),
                theta=theta_bar[col : col + m],
                variance=var_bar[col : col + m],
                v=v_grid,
                meta={"sources": [track.name for track in kept]},
            )
            col += m


def fusion_grid(
    aligned: AlignedSteering, road_length: float, spacing: float
) -> np.ndarray:
    """The trip's fusion position grid: ``spacing``-stepped arc lengths
    clipped to the portion of the road the trip actually covered."""
    finite = aligned.s[np.isfinite(aligned.s)]
    if len(finite) < 2:
        raise EstimationError("alignment produced no usable positions")
    lo = max(0.0, float(np.min(finite)))
    hi = min(road_length, float(np.max(finite)))
    if hi - lo < spacing:
        raise EstimationError("trip covers less than one fusion grid cell")
    n = int((hi - lo) / spacing) + 1
    return lo + np.arange(n) * spacing


#: Stage name -> factory taking the owning system. Factories defer resource
#: lookups (alignment, detector) to system construction time so a config is
#: pure data.
STAGE_REGISTRY: dict[str, Callable[["GradientEstimationSystem"], Stage]] = {}


def register_stage(
    name: str, factory: Callable[["GradientEstimationSystem"], Stage]
) -> Callable[["GradientEstimationSystem"], Stage]:
    """Register a stage factory under ``name`` for use in ``config.stages``.

    Re-registering an existing name replaces the factory (handy in tests);
    the four built-in names are registered at import time.
    """
    STAGE_REGISTRY[name] = factory
    return factory


register_stage("sanitize", lambda system: SanitizeStage(system.config.sanitize))
register_stage("alignment", lambda system: AlignmentStage(system.alignment))
register_stage("lane_change", lambda system: LaneChangeStage(system.detector))
register_stage("ekf_tracks", lambda system: TrackEstimationStage())
register_stage("fusion", lambda system: FusionStage())


def validate_stage_names(names: tuple[str, ...]) -> None:
    """Reject unregistered stage names with a message listing the options."""
    unknown = [n for n in names if n not in STAGE_REGISTRY]
    if unknown:
        raise EstimationError(
            f"unknown stage(s) {sorted(set(unknown))}; "
            f"registered stages are {sorted(STAGE_REGISTRY)}"
        )
    if not names:
        raise EstimationError(
            f"at least one stage is required; "
            f"registered stages are {sorted(STAGE_REGISTRY)}"
        )


def build_stages(
    names: tuple[str, ...], system: "GradientEstimationSystem"
) -> list[Stage]:
    """Instantiate the configured stage list for one system."""
    validate_stage_names(tuple(names))
    return [STAGE_REGISTRY[name](system) for name in names]


def run_stage_batch(stage: Stage, bctx: BatchPipelineContext) -> BatchPipelineContext:
    """Run one stage over every live trip of a batch.

    Stages that implement the optional ``run_batch`` entry point get the
    columnar fast path; any other stage — third-party stages included —
    falls back to looping its serial ``run`` per trip. Either way a trip
    that raises is recorded in ``bctx.failed`` and skipped by later
    stages instead of taking the whole batch down.
    """
    run_batch = getattr(stage, "run_batch", None)
    if run_batch is not None:
        run_batch(bctx)
        return bctx
    for pos, ctx in list(bctx.live_items()):
        try:
            stage.run(ctx)
        except Exception as exc:  # noqa: BLE001 - per-trip isolation
            bctx.fail(pos, exc)
    return bctx
