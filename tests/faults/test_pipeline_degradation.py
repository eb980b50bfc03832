"""Pipeline-wide graceful degradation under injected sensor faults."""

import numpy as np
import pytest

from repro.core.lane_change.detector import LaneChangeDetectorConfig
from repro.core.lane_change.features import LaneChangeThresholds
from repro.core.pipeline import GradientEstimationSystem, GradientSystemConfig
from repro.core.stages import DEFAULT_STAGES, ROBUST_STAGES
from repro.errors import DegradedInputError, EstimationError
from repro.faults import GPSDropout, NonFiniteBurst
from repro.obs import Telemetry

TH = LaneChangeThresholds(delta=0.05, duration=0.5)


def _system(profile, thresholds=TH, telemetry=None, **cfg_kw):
    cfg = GradientSystemConfig(
        detector=LaneChangeDetectorConfig(thresholds=thresholds), **cfg_kw
    )
    return GradientEstimationSystem(profile, config=cfg, telemetry=telemetry)


class TestCleanInputIdentity:
    """The acceptance pin: sanitize-on must be a bit-identical no-op on
    clean recordings — red route, both EKF kernels."""

    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    def test_red_route_bit_identity(
        self, red_profile, red_recording, red_thresholds, engine, force_kernel
    ):
        force_kernel(engine)
        plain = _system(
            red_profile, red_thresholds, stages=DEFAULT_STAGES
        ).estimate(red_recording)
        robust = _system(
            red_profile, red_thresholds, stages=ROBUST_STAGES
        ).estimate(red_recording)

        np.testing.assert_array_equal(robust.fused.theta, plain.fused.theta)
        np.testing.assert_array_equal(robust.fused.s, plain.fused.s)
        assert list(robust.tracks) == list(plain.tracks)
        for name in plain.tracks:
            np.testing.assert_array_equal(
                robust.tracks[name].theta, plain.tracks[name].theta
            )
        assert robust.n_lane_changes == plain.n_lane_changes


class TestDegradedRuns:
    def test_nan_burst_survives_with_finite_output(self, hill_profile, hill_recording):
        rec = NonFiniteBurst(channel="accel_long", start_s=5.0, duration_s=1.0).apply(
            hill_recording, np.random.default_rng(0)
        )
        result = _system(hill_profile, stages=ROBUST_STAGES).estimate(rec)
        assert np.isfinite(result.fused.theta).all()

    def test_inf_burst_on_gyro_survives(self, hill_profile, hill_recording):
        rec = NonFiniteBurst(
            channel="gyro", start_s=5.0, duration_s=0.5, fill=float("inf")
        ).apply(hill_recording, np.random.default_rng(0))
        result = _system(hill_profile, stages=ROBUST_STAGES).estimate(rec)
        assert np.isfinite(result.fused.theta).all()

    def test_gps_dropout_survives(self, hill_profile, hill_recording):
        rec = GPSDropout(start_s=5.0, duration_s=4.0).apply(
            hill_recording, np.random.default_rng(0)
        )
        result = _system(hill_profile, stages=ROBUST_STAGES).estimate(rec)
        assert np.isfinite(result.fused.theta).all()

    def test_dead_source_rejected_estimation_continues(
        self, hill_profile, hill_recording
    ):
        # Kill the CAN-bus velocity for the entire trip: after sanitization
        # it is masked invalid, the EKF stage rejects it, and the remaining
        # sources carry the estimate. (The speedometer cannot play this
        # role — coordinate alignment itself requires it.)
        rec = NonFiniteBurst(
            channel="canbus", start_s=0.0, duration_s=1e6
        ).apply(hill_recording, np.random.default_rng(0))
        tel = Telemetry("degraded-run")
        result = _system(hill_profile, telemetry=tel, stages=ROBUST_STAGES).estimate(rec)

        assert tel.metrics.counter("pipeline.track_rejected").value == 1
        assert "canbus" not in result.tracks
        assert len(result.tracks) >= 1
        assert np.isfinite(result.fused.theta).all()

    def test_every_source_dead_fails_loudly(self, hill_profile, hill_recording):
        rec = NonFiniteBurst(
            channel="canbus", start_s=0.0, duration_s=1e6
        ).apply(hill_recording, np.random.default_rng(0))
        system = _system(
            hill_profile, stages=ROBUST_STAGES, velocity_sources=("canbus",)
        )
        with pytest.raises(DegradedInputError, match="canbus"):
            system.estimate(rec)


class TestQualityGateConfig:
    def test_fraction_out_of_range_rejected(self):
        with pytest.raises(EstimationError):
            GradientSystemConfig(min_track_finite_fraction=1.5)
        with pytest.raises(EstimationError):
            GradientSystemConfig(min_track_finite_fraction=-0.1)

    def test_robust_stage_list_round_trips(self):
        cfg = GradientSystemConfig(stages=ROBUST_STAGES)
        clone = GradientSystemConfig.from_dict(cfg.to_dict())
        assert clone.stages == ROBUST_STAGES
        assert clone == cfg
