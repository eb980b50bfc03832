"""Bias-observable hybrid EKF tests (extension module)."""

import numpy as np
import pytest

from repro.constants import GRAVITY
from repro.core.bias_ekf import BiasEKFConfig, estimate_track_bias_augmented
from repro.core.gradient_ekf import estimate_track
from repro.errors import EstimationError
from repro.sensors.base import SampledSignal


def synthetic_drive(bias=0.12, n=20_000, dt=0.02, seed=0, theta_amp=0.03):
    """Varying-grade constant-speed drive with a biased accelerometer."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) * dt
    s = 12.0 * t
    theta = theta_amp * np.sin(2 * np.pi * s / 800.0)
    z = 180.0 + np.concatenate(
        [[0.0], np.cumsum(np.tan(theta[:-1]) * np.diff(s))]
    )
    accel = SampledSignal(
        t=t,
        values=GRAVITY * np.sin(theta) + bias + rng.normal(0, 0.18, n),
        name="accelerometer",
    )
    vel = SampledSignal(
        t=t, values=12.0 + rng.normal(0, 0.15, n), name="speedometer"
    )
    drift = np.cumsum(rng.normal(0, 0.6 * np.sqrt(dt), n))
    baro = SampledSignal(
        t=t, values=z + 4.0 + drift + rng.normal(0, 2.0, n), name="barometer"
    )
    return t, s, theta, accel, vel, baro


class TestHybridObservability:
    def test_bias_recovered_with_barometer(self):
        _, s, theta, accel, vel, baro = synthetic_drive(bias=0.12)
        track = estimate_track_bias_augmented(accel, vel, s, barometer=baro)
        assert track.meta["bias"] == pytest.approx(0.12, abs=0.04)

    def test_negative_bias_recovered(self):
        _, s, theta, accel, vel, baro = synthetic_drive(bias=-0.09, seed=3)
        track = estimate_track_bias_augmented(accel, vel, s, barometer=baro)
        assert track.meta["bias"] == pytest.approx(-0.09, abs=0.04)

    def test_beats_two_state_filter_under_bias(self):
        _, s, theta, accel, vel, baro = synthetic_drive(bias=0.12)
        hybrid = estimate_track_bias_augmented(accel, vel, s, barometer=baro)
        plain = estimate_track(accel, vel, s)
        tail = slice(3000, None)
        err_hybrid = np.mean(np.abs(hybrid.theta[tail] - theta[tail]))
        err_plain = np.mean(np.abs(plain.theta[tail] - theta[tail]))
        assert err_hybrid < 0.6 * err_plain

    def test_unobservable_without_barometer(self):
        """Documented degeneration: no altitude anchor -> bias sticks to prior."""
        _, s, theta, accel, vel, _ = synthetic_drive(bias=0.12)
        track = estimate_track_bias_augmented(accel, vel, s)
        assert abs(track.meta["bias"]) < 0.02

    def test_unbiased_imu_not_harmed(self):
        _, s, theta, accel, vel, baro = synthetic_drive(bias=0.0, seed=5)
        hybrid = estimate_track_bias_augmented(accel, vel, s, barometer=baro)
        plain = estimate_track(accel, vel, s)
        tail = slice(3000, None)
        err_hybrid = np.mean(np.abs(hybrid.theta[tail] - theta[tail]))
        err_plain = np.mean(np.abs(plain.theta[tail] - theta[tail]))
        assert err_hybrid < err_plain * 1.5

    def test_variance_positive(self):
        _, s, _, accel, vel, baro = synthetic_drive(n=2000)
        track = estimate_track_bias_augmented(accel, vel, s, barometer=baro)
        assert np.all(track.variance > 0.0)

    def test_shape_mismatch_rejected(self):
        _, s, _, accel, vel, _ = synthetic_drive(n=500)
        with pytest.raises(EstimationError):
            estimate_track_bias_augmented(accel, vel, s[:-1])

    def test_config_std_lookup(self):
        cfg = BiasEKFConfig(measurement_std={"speedometer": 0.9})
        assert cfg.std_for("speedometer") == 0.9
        assert cfg.std_for("gps-speed") == 0.30

    def test_track_name(self):
        _, s, _, accel, vel, baro = synthetic_drive(n=500)
        track = estimate_track_bias_augmented(accel, vel, s, barometer=baro)
        assert track.name == "speedometer+bias"

    def test_track_shares_its_inputs(self):
        _, s, _, accel, vel, baro = synthetic_drive(n=500)
        track = estimate_track_bias_augmented(accel, vel, s, barometer=baro)
        for got, given in ((track.t, accel.t), (track.s, s)):
            assert np.shares_memory(got, given)
            assert not got.flags.writeable and given.flags.writeable


class TestSmoothedTracks:
    """RTS option on the 2-state gradient EKF (extension)."""

    def test_smoothing_reduces_transition_lag(self):
        from repro.core.gradient_ekf import GradientEKFConfig

        rng = np.random.default_rng(2)
        n, dt = 12_000, 0.02
        t = np.arange(n) * dt
        s = 12.0 * t
        theta = np.where(s < s[-1] / 2, 0.03, -0.02)
        accel = SampledSignal(
            t=t,
            values=GRAVITY * np.sin(theta) + rng.normal(0, 0.18, n),
            name="accelerometer",
        )
        vel = SampledSignal(t=t, values=12.0 + rng.normal(0, 0.15, n), name="speedometer")
        online = estimate_track(accel, vel, s)
        smoothed = estimate_track(
            accel, vel, s, config=GradientEKFConfig(smooth=True)
        )
        err_online = np.mean(np.abs(online.theta[500:] - theta[500:]))
        err_smoothed = np.mean(np.abs(smoothed.theta[500:] - theta[500:]))
        assert err_smoothed < 0.8 * err_online
        assert smoothed.meta["smoothed"] is True

    def test_smoothed_variance_not_larger(self):
        from repro.core.gradient_ekf import GradientEKFConfig

        rng = np.random.default_rng(4)
        n, dt = 4000, 0.02
        t = np.arange(n) * dt
        accel = SampledSignal(t=t, values=rng.normal(0, 0.18, n), name="accelerometer")
        vel = SampledSignal(t=t, values=10.0 + rng.normal(0, 0.15, n), name="speedometer")
        online = estimate_track(accel, vel, 10.0 * t)
        smoothed = estimate_track(accel, vel, 10.0 * t, config=GradientEKFConfig(smooth=True))
        mid = slice(200, -200)
        assert np.mean(smoothed.variance[mid]) <= np.mean(online.variance[mid]) * 1.01
