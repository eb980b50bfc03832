"""GPS-denied through the offline engine and the full pipeline.

Pins three contracts: the offline ``estimate_track`` fuses prior-map
gradients and inflates at reacquisition (with counters and meta to show
for it), ``estimate_tracks_batch`` keeps GPS-denied configs on the scalar
core even when the track count would pick the vectorized kernel, and a
disabled
``GPSDeniedConfig`` leaves pipeline outputs bit-identical to a config
that never mentions it.
"""

import numpy as np
import pytest

from repro.constants import GRAVITY
from repro.core.dead_reckoning import GPSDeniedConfig
from repro.core.gradient_ekf import GradientEKFConfig, estimate_track
from repro.core.pipeline import GradientEstimationSystem, GradientSystemConfig
from repro.core.lane_change.detector import LaneChangeDetectorConfig
from repro.core.lane_change.features import LaneChangeThresholds
from repro.obs import Telemetry
from repro.roads import SectionSpec, build_profile
from repro.roads.prior_map import PriorGradeMap
from repro.sensors import Smartphone
from repro.sensors.base import SampledSignal
from repro.vehicle import DriverProfile, simulate_trip

TH = LaneChangeThresholds(delta=0.05, duration=0.5)

#: Thresholds scaled so a 10 s hole in a short synthetic trip is an outage.
GD = GPSDeniedConfig(
    enabled=True,
    outage_enter_ticks=100,
    dead_reckoning_after_ticks=150,
    map_update_interval_ticks=25,
)


def offline_inputs(n=4000, dt=0.02, theta=0.04, seed=1, hole=(1000, 2500)):
    rng = np.random.default_rng(seed)
    t = np.arange(n) * dt
    accel = SampledSignal(
        t=t, values=GRAVITY * np.sin(theta) + rng.normal(0.0, 0.05, n), name="accel"
    )
    values = 12.0 + rng.normal(0.0, 0.1, n)
    z = np.full(n, np.nan)
    z[::50] = values[::50]
    z[hole[0] : hole[1]] = np.nan
    velocity = SampledSignal(t=t, values=z, name="gps-speed")
    return accel, velocity, 12.0 * t


def constant_map(theta=0.04, length=2000.0):
    s = np.linspace(0.0, length, 41)
    return PriorGradeMap(s=s, theta=np.full(41, theta), variance=np.full(41, 1e-5))


class TestOfflineEngine:
    def test_map_updates_and_reacquisition_recorded(self):
        accel, velocity, s = offline_inputs()
        tel = Telemetry("gd-offline")
        track = estimate_track(
            accel,
            velocity,
            s,
            telemetry=tel,
            gps_denied=GD,
            prior_map=constant_map(length=s[-1] + 100.0),
        )
        meta = track.meta["gps_denied"]
        assert meta["map_updates"] > 0
        assert meta["reacquisitions"] == 1
        assert tel.metrics.counter("ekf.map_updates").value == meta["map_updates"]
        assert tel.metrics.counter("ekf.covariance_reset").value == 1

    def test_map_keeps_outage_theta_on_grade(self):
        accel, velocity, s = offline_inputs(theta=0.04)
        kwargs = dict(config=GradientEKFConfig(smooth=False))
        plain = estimate_track(accel, velocity, s, **kwargs)
        aided = estimate_track(
            accel,
            velocity,
            s,
            gps_denied=GD,
            prior_map=constant_map(length=s[-1] + 100.0),
            **kwargs,
        )
        window = slice(1500, 2500)  # deep in the outage
        err_plain = np.abs(plain.theta[window] - 0.04).max()
        err_aided = np.abs(aided.theta[window] - 0.04).max()
        assert err_aided <= err_plain + 1e-12

    def test_disabled_config_is_bit_identical(self):
        accel, velocity, s = offline_inputs()
        plain = estimate_track(accel, velocity, s)
        gated = estimate_track(
            accel, velocity, s, gps_denied=GPSDeniedConfig(enabled=False)
        )
        assert np.array_equal(plain.theta, gated.theta)
        assert np.array_equal(plain.variance, gated.variance)
        assert "gps_denied" not in gated.meta

    def test_short_gaps_are_not_outages(self):
        # Sparse 1 Hz measurements (49-tick gaps) sit below the 100-tick
        # threshold: no plan, no inflation, bit-identical output.
        accel, velocity, s = offline_inputs(hole=(0, 0))
        plain = estimate_track(accel, velocity, s)
        gated = estimate_track(
            accel, velocity, s, gps_denied=GD, prior_map=constant_map()
        )
        assert np.array_equal(plain.theta, gated.theta)
        assert "gps_denied" not in gated.meta


class TestPipelineRouting:
    @pytest.fixture(scope="class")
    def trip(self):
        profile = build_profile(
            [
                SectionSpec.from_degrees(900.0, 2.0, 2),
                SectionSpec.from_degrees(700.0, -1.5, 2, turn_deg=30.0),
            ],
            gps_outages=[(400.0, 700.0)],
            name="gd-pipeline-route",
        )
        trace = simulate_trip(profile, DriverProfile(lane_changes_per_km=0.0), seed=9)
        rec = Smartphone().record(trace, np.random.default_rng(10))
        return profile, rec

    def make_cfg(self, gd):
        return GradientSystemConfig(
            detector=LaneChangeDetectorConfig(thresholds=TH),
            gps_denied=gd,
        )

    def test_batch_engine_routes_to_scalar_when_enabled(self, trip, force_kernel):
        profile, rec = trip
        results = {}
        for kernel in ("scalar", "batch"):
            force_kernel(kernel)
            system = GradientEstimationSystem(profile, config=self.make_cfg(GD))
            results[kernel] = system.estimate(rec)
        # Even when the track count routes to the vectorized kernel, an
        # enabled GPS-denied config must run (and apply) the scalar plan.
        tracks = results["batch"].tracks.values()
        assert all(track.meta["engine"] == "scalar" for track in tracks)
        assert any("gps_denied" in track.meta for track in tracks)
        assert np.array_equal(
            results["scalar"].fused.theta, results["batch"].fused.theta
        )
        assert np.array_equal(
            results["scalar"].fused.variance, results["batch"].fused.variance
        )

    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    def test_disabled_config_is_bit_identical(self, trip, engine, force_kernel):
        force_kernel(engine)
        profile, rec = trip
        base = GradientEstimationSystem(
            profile,
            config=GradientSystemConfig(
                detector=LaneChangeDetectorConfig(thresholds=TH)
            ),
        ).estimate(rec)
        gated = GradientEstimationSystem(
            profile, config=self.make_cfg(GPSDeniedConfig(enabled=False))
        ).estimate(rec)
        assert np.array_equal(base.fused.theta, gated.fused.theta)
        for track in gated.tracks.values():
            assert track.meta["engine"] == engine

    def test_gps_denied_config_serializes_through_system_config(self):
        cfg = self.make_cfg(GD)
        rebuilt = GradientSystemConfig.from_dict(cfg.to_dict())
        assert rebuilt.gps_denied == GD
