"""Stage architecture tests: equivalence with the pre-refactor pipeline,
registry validation, custom-stage insertion and ablation.

The equivalence tests pin the tentpole refactor: the stage-based
``GradientEstimationSystem.estimate`` must reproduce the old inline
four-step implementation *exactly* (<= 1e-12, in practice bit-identical)
because the refactor only moved code — it must not have changed a single
arithmetic operation.
"""

import numpy as np
import pytest

from repro.core.gradient_ekf import estimate_track
from repro.core.lane_change.correction import correct_velocity_signal
from repro.core.lane_change.detector import LaneChangeDetectorConfig
from repro.core.lane_change.features import LaneChangeThresholds
from repro.core.pipeline import GradientEstimationSystem, GradientSystemConfig
from repro.core.stages import (
    DEFAULT_STAGES,
    STAGE_REGISTRY,
    AlignmentStage,
    FusionStage,
    LaneChangeStage,
    PipelineContext,
    Stage,
    TrackEstimationStage,
    fusion_grid,
    register_stage,
)
from repro.core.track_fusion import fuse_tracks
from repro.datasets import city_network, red_route
from repro.errors import EstimationError
from repro.obs import Telemetry
from repro.sensors import Smartphone
from repro.vehicle import DriverProfile, SimulationConfig, simulate_trip

TH = LaneChangeThresholds(delta=0.05, duration=0.5)


def _config() -> GradientSystemConfig:
    return GradientSystemConfig(detector=LaneChangeDetectorConfig(thresholds=TH))


def _record(profile, seed: int):
    trace = simulate_trip(
        profile,
        driver=DriverProfile(lane_changes_per_km=2.0),
        config=SimulationConfig(sample_rate=50.0),
        seed=seed,
    )
    return Smartphone().record(trace, np.random.default_rng(seed + 100))


def _legacy_estimate(system, recording):
    """The pre-refactor inline ``estimate`` body.

    This is the reference implementation the stage objects were extracted
    from; it must keep producing exactly what the stage runner produces.
    Its EKF step is the per-source scalar loop, which both EKF kernels
    reproduce bit for bit.
    """
    cfg = system.config
    aligned = system.alignment.align(recording.gyro, recording.speedometer, recording.gps)
    w_smooth = system.detector.smooth(aligned.w_steer)
    events = system.detector.detect(aligned.t, w_smooth, aligned.v, presmoothed=True)

    signals = []
    for source in cfg.velocity_sources:
        signal = recording.velocity_source(source)
        if cfg.apply_lane_change_correction and events:
            signal = correct_velocity_signal(signal, aligned.t, w_smooth, events)
        signals.append(signal)

    tracks = {
        source: estimate_track(
            recording.accel_long,
            signal,
            aligned.s,
            vehicle=system.vehicle,
            config=cfg.ekf,
            name=source,
        )
        for source, signal in zip(cfg.velocity_sources, signals)
    }

    s_grid = fusion_grid(aligned, system.road_map.length, cfg.fusion_grid_spacing)
    fused = fuse_tracks(list(tracks.values()), s_grid, name="fused")
    return fused, tracks, events, s_grid


def _assert_equivalent(result, legacy):
    fused, tracks, events, s_grid = legacy
    assert np.max(np.abs(result.s_grid - s_grid)) <= 1e-12
    assert np.max(np.abs(result.fused.theta - fused.theta)) <= 1e-12
    assert np.max(np.abs(result.fused.variance - fused.variance)) <= 1e-12
    assert set(result.tracks) == set(tracks)
    for name, track in tracks.items():
        got = result.tracks[name]
        assert np.max(np.abs(got.theta - track.theta)) <= 1e-12
        assert np.max(np.abs(got.variance - track.variance)) <= 1e-12
        assert np.max(np.abs(got.v - track.v)) <= 1e-12
    assert result.events == events


class TestLegacyEquivalence:
    """Stage runner == pre-refactor inline pipeline, to 1e-12."""

    @pytest.mark.parametrize("engine", ["batch", "scalar"])
    def test_red_route(self, engine, force_kernel):
        force_kernel(engine)
        profile = red_route()
        recording = _record(profile, seed=11)
        system = GradientEstimationSystem(profile, config=_config())
        _assert_equivalent(
            system.estimate(recording), _legacy_estimate(system, recording)
        )

    @pytest.mark.slow
    @pytest.mark.parametrize("engine", ["batch", "scalar"])
    def test_large_network_tour(self, engine, force_kernel):
        force_kernel(engine)
        net = city_network(target_length_km=15.0, seed=7)
        tour = net.coverage_tour(max_length_m=6_000.0)
        profile = net.route_profile(tour, name="net-tour")
        recording = _record(profile, seed=3)
        system = GradientEstimationSystem(profile, config=_config())
        _assert_equivalent(
            system.estimate(recording), _legacy_estimate(system, recording)
        )


class TestStageConstruction:
    def test_default_stage_objects(self, hill_profile):
        system = GradientEstimationSystem(hill_profile)
        assert [s.name for s in system.stages] == list(DEFAULT_STAGES)
        assert isinstance(system.stages[0], AlignmentStage)
        assert isinstance(system.stages[1], LaneChangeStage)
        assert isinstance(system.stages[2], TrackEstimationStage)
        assert isinstance(system.stages[3], FusionStage)
        # Every stage object satisfies the runtime protocol.
        for stage in system.stages:
            assert isinstance(stage, Stage)

    def test_builtin_names_registered(self):
        assert set(DEFAULT_STAGES) <= set(STAGE_REGISTRY)

    def test_unknown_stage_rejected_with_options(self):
        with pytest.raises(EstimationError, match="warp_drive") as excinfo:
            GradientSystemConfig(stages=("alignment", "warp_drive"))
        message = str(excinfo.value)
        for name in DEFAULT_STAGES:
            assert name in message

    def test_empty_stage_list_rejected(self):
        with pytest.raises(EstimationError, match="at least one stage"):
            GradientSystemConfig(stages=())


class TestCustomStages:
    def test_registered_stage_runs_in_order(self, hill_profile, hill_recording):
        ran = []

        class ProbeStage:
            name = "probe"

            def run(self, ctx):
                ran.append(ctx.aligned is not None)
                ctx.extras["probe"] = True
                return ctx

        register_stage("probe", lambda system: ProbeStage())
        try:
            cfg = GradientSystemConfig(
                detector=LaneChangeDetectorConfig(thresholds=TH),
                stages=("alignment", "probe", "lane_change", "ekf_tracks", "fusion"),
            )
            system = GradientEstimationSystem(hill_profile, config=cfg)
            result = system.estimate(hill_recording)
        finally:
            del STAGE_REGISTRY["probe"]
        # Ran exactly once, after alignment (so aligned was available).
        assert ran == [True]
        assert len(result.fused) == len(result.s_grid)

    def test_custom_stage_does_not_perturb_result(self, hill_profile, hill_recording):
        class NoopStage:
            name = "noop"

            def run(self, ctx):
                return ctx

        register_stage("noop", lambda system: NoopStage())
        try:
            base_cfg = GradientSystemConfig(
                detector=LaneChangeDetectorConfig(thresholds=TH)
            )
            noop_cfg = GradientSystemConfig(
                detector=LaneChangeDetectorConfig(thresholds=TH),
                stages=("alignment", "lane_change", "noop", "ekf_tracks", "fusion"),
            )
            base = GradientEstimationSystem(hill_profile, config=base_cfg).estimate(
                hill_recording
            )
            noop = GradientEstimationSystem(hill_profile, config=noop_cfg).estimate(
                hill_recording
            )
        finally:
            del STAGE_REGISTRY["noop"]
        assert np.array_equal(base.fused.theta, noop.fused.theta)
        assert base.events == noop.events


class TestAblation:
    def test_skipping_lane_change_stage(self, hill_profile, hill_recording):
        """Dropping the adjustment stage is a pure-config ablation."""
        cfg = GradientSystemConfig(
            detector=LaneChangeDetectorConfig(thresholds=TH),
            stages=("alignment", "ekf_tracks", "fusion"),
        )
        result = GradientEstimationSystem(hill_profile, config=cfg).estimate(
            hill_recording
        )
        assert result.events == []
        assert len(result.fused) == len(result.s_grid)

    def test_missing_alignment_fails_clearly(self, hill_profile, hill_recording):
        cfg = GradientSystemConfig(stages=("ekf_tracks", "fusion"))
        system = GradientEstimationSystem(hill_profile, config=cfg)
        with pytest.raises(EstimationError, match="'ekf_tracks' needs 'aligned'"):
            system.estimate(hill_recording)

    def test_incomplete_pipeline_names_missing_outputs(
        self, hill_profile, hill_recording
    ):
        cfg = GradientSystemConfig(stages=("alignment", "lane_change"))
        system = GradientEstimationSystem(hill_profile, config=cfg)
        with pytest.raises(EstimationError, match="did not produce.*fused"):
            system.estimate(hill_recording)

    def test_fusion_without_tracks_fails_clearly(self, hill_profile, hill_recording):
        cfg = GradientSystemConfig(stages=("alignment", "fusion"))
        system = GradientEstimationSystem(hill_profile, config=cfg)
        with pytest.raises(EstimationError, match="at least one gradient track"):
            system.estimate(hill_recording)


class TestContext:
    def test_require_reports_missing_dependency(self, hill_profile):
        system = GradientEstimationSystem(hill_profile)
        ctx = PipelineContext(
            recording=None,
            config=system.config,
            road_map=system.road_map,
            vehicle=system.vehicle,
            telemetry=system.telemetry,
        )
        with pytest.raises(EstimationError, match="'fusion' needs 'aligned'"):
            ctx.require("aligned", "fusion")


class TestSpanTree:
    def test_stage_spans_preserved(self, hill_profile, hill_recording):
        """The telemetry span tree must keep the pre-refactor shape —
        CI's bench-batch job asserts these exact child names."""
        tel = Telemetry("stage-span-test")
        cfg = GradientSystemConfig(detector=LaneChangeDetectorConfig(thresholds=TH))
        system = GradientEstimationSystem(hill_profile, config=cfg, telemetry=tel)
        system.estimate(hill_recording)
        estimate = tel.tracer.find("estimate")
        assert estimate is not None
        assert [c.name for c in estimate.children] == [
            "alignment",
            "lane_change",
            "ekf_tracks",
            "fusion",
        ]
        lane_change = estimate.find("lane_change")
        assert lane_change.attributes["n_events"] >= 0
        # Per-source track spans nest under the ekf_tracks stage span.
        ekf = estimate.find("ekf_tracks")
        sources = [c.attributes.get("source") for c in ekf.children if c.name == "track"]
        assert sources == ["gps", "speedometer", "accelerometer", "canbus"]


class TestFusionGrid:
    def test_single_cell_boundary(self):
        """A trip spanning exactly one spacing yields a two-point grid."""

        class Aligned:
            s = np.array([0.0, 2.5, 5.0])

        grid = fusion_grid(Aligned(), road_length=100.0, spacing=5.0)
        assert np.array_equal(grid, np.array([0.0, 5.0]))

    def test_barely_under_one_cell_raises(self):
        class Aligned:
            s = np.array([0.0, 4.999])

        with pytest.raises(EstimationError, match="less than one fusion grid cell"):
            fusion_grid(Aligned(), road_length=100.0, spacing=5.0)

    def test_too_few_finite_positions(self):
        class Aligned:
            s = np.array([np.nan, 3.0, np.nan])

        with pytest.raises(EstimationError, match="no usable positions"):
            fusion_grid(Aligned(), road_length=100.0, spacing=5.0)

    def test_grid_clipped_to_road(self):
        class Aligned:
            s = np.array([-10.0, 50.0, 130.0])

        grid = fusion_grid(Aligned(), road_length=100.0, spacing=10.0)
        assert grid[0] == 0.0
        assert grid[-1] <= 100.0
