"""Streaming gradient estimator tests."""

import math

import numpy as np
import pytest

from repro.constants import GRAVITY
from repro.core.gradient_ekf import (
    GradientEKFConfig,
    estimate_track,
    measurements_on_timebase,
)
from repro.core.online import StreamingGradientEstimator
from repro.errors import EstimationError
from repro.sensors.base import SampledSignal


def synthetic(theta=0.04, v0=12.0, n=3000, dt=0.02, noise=0.05, seed=0):
    rng = np.random.default_rng(seed)
    accel = GRAVITY * np.sin(theta) + rng.normal(0.0, noise, n)
    v_meas = v0 + rng.normal(0.0, noise, n)
    return accel, v_meas, dt


class TestStreaming:
    def test_converges_to_grade(self):
        accel, v_meas, dt = synthetic(theta=0.04)
        est = StreamingGradientEstimator(dt=dt)
        state = None
        for a, v in zip(accel, v_meas):
            state = est.push(a, v)
        assert state.theta == pytest.approx(0.04, abs=0.006)
        assert state.updated

    def test_matches_batch_engine_exactly(self):
        accel, v_meas, dt = synthetic(n=1500, seed=3)
        t = np.arange(len(accel)) * dt
        track = estimate_track(
            SampledSignal(t=t, values=accel, name="accelerometer"),
            SampledSignal(t=t, values=v_meas, name="speedometer"),
            12.0 * t,
            config=GradientEKFConfig(measurement_std={"speedometer": 0.2}),
        )
        est = StreamingGradientEstimator(
            dt=dt, measurement_std=0.2, v0=float(v_meas[0])
        )
        theta_stream = est.run(accel, v_meas)
        assert np.allclose(theta_stream, track.theta, atol=1e-12)

    def test_prediction_only_ticks(self):
        accel, v_meas, dt = synthetic(theta=0.03)
        est = StreamingGradientEstimator(dt=dt, v0=12.0)
        # Velocity only once a second (GPS-like).
        for i, a in enumerate(accel):
            z = float(v_meas[i]) if i % 50 == 0 else None
            state = est.push(a, z)
        assert state.theta == pytest.approx(0.03, abs=0.01)

    def test_bootstrap_from_first_measurement(self):
        accel, v_meas, dt = synthetic()
        est = StreamingGradientEstimator(dt=dt)
        s1 = est.push(accel[0], None)  # no measurement yet
        assert not s1.updated
        s2 = est.push(accel[1], v_meas[1])
        assert s2.updated
        assert s2.v == pytest.approx(v_meas[1], abs=1.0)

    def test_tick_counter_and_state(self):
        est = StreamingGradientEstimator(dt=0.02, v0=10.0)
        est.push(0.0, 10.0)
        est.push(0.0, 10.0)
        assert est.ticks == 2
        assert est.state.t == pytest.approx(0.04)

    def test_variance_shrinks(self):
        accel, v_meas, dt = synthetic()
        est = StreamingGradientEstimator(dt=dt, v0=12.0)
        first = est.push(accel[0], v_meas[0]).theta_variance
        for a, v in zip(accel[1:500], v_meas[1:500]):
            last = est.push(a, v).theta_variance
        assert last < first

    def test_bad_dt(self):
        with pytest.raises(EstimationError):
            StreamingGradientEstimator(dt=0.0)

    def test_smooth_config_rejected(self):
        with pytest.raises(EstimationError):
            StreamingGradientEstimator(
                dt=0.02, config=GradientEKFConfig(smooth=True)
            )

    def test_run_shape_mismatch(self):
        est = StreamingGradientEstimator(dt=0.02, v0=10.0)
        with pytest.raises(EstimationError):
            est.run(np.zeros(5), np.zeros(4))

    @pytest.mark.parametrize(
        "args",
        [
            (np.float64(0.1), np.float64(10.0)),  # 0-d
            (np.zeros((3, 2)), np.full((3, 2), 10.0)),  # 2-D, equal shapes
            (np.zeros(6), np.full(6, 10.0), np.zeros((6, 1))),  # 2-D gyro
            (np.zeros(6), np.full(6, 10.0), None, np.ones((1, 6))),  # 2-D quality
        ],
        ids=["0d", "2d", "2d-gyro", "2d-quality"],
    )
    def test_run_rejects_non_1d_inputs(self, args):
        est = StreamingGradientEstimator(dt=0.02, v0=10.0)
        with pytest.raises(EstimationError, match="1-D"):
            est.run(*args)
        assert est.ticks == 0

    def test_state_reports_last_tick_update(self):
        est = StreamingGradientEstimator(dt=0.02, v0=10.0)
        assert not est.state.updated
        est.push(0.1, 10.0)
        assert est.state.updated
        est.push(0.1, None)
        assert not est.state.updated
        est.run(np.zeros(3), np.array([np.nan, np.nan, 10.0]))
        assert est.state.updated
        est.run(np.zeros(3), np.array([10.0, np.nan, np.nan]))
        assert not est.state.updated


class TestStreamingOfflineConsistency:
    """Tick-by-tick push must reproduce the offline pipeline's track.

    The streaming estimator is the on-phone deployment of the same filter
    the offline pipeline runs per velocity source; feeding it one real
    recording sample at a time has to land on the offline result.
    """

    @pytest.mark.parametrize("source", ["speedometer", "gps"])
    def test_push_matches_offline_on_recording(self, hill_recording, source):
        accel = hill_recording.accel_long
        velocity = hill_recording.velocity_source(source)
        t = accel.t
        dt = float(np.median(np.diff(t)))
        s = np.cumsum(np.full(len(t), 12.0 * dt))  # any arc length works

        track = estimate_track(accel, velocity, s)

        z = measurements_on_timebase(t, velocity)
        first = np.flatnonzero(np.isfinite(z))
        cfg = GradientEKFConfig()
        est = StreamingGradientEstimator(
            dt=dt,
            measurement_std=cfg.std_for(velocity.name),
            v0=float(z[first[0]]),
        )
        theta = np.empty(len(t))
        variance = np.empty(len(t))
        v = np.empty(len(t))
        for i, a in enumerate(accel.values):
            zi = None if math.isnan(z[i]) else float(z[i])
            state = est.push(float(a), zi)
            theta[i] = state.theta
            variance[i] = state.theta_variance
            v[i] = state.v

        assert np.max(np.abs(theta - track.theta)) <= 1e-9
        assert np.max(np.abs(variance - track.variance)) <= 1e-9
        assert np.max(np.abs(v - track.v)) <= 1e-9

    def test_sparse_gps_updates_match_offline(self, hill_recording):
        # GPS fixes land at ~1 Hz on a 50 Hz timebase, so most ticks are
        # prediction-only; streaming holds must mirror the offline NaN
        # gating exactly.
        accel = hill_recording.accel_long
        velocity = hill_recording.velocity_source("gps")
        z = measurements_on_timebase(accel.t, velocity)
        updates = int(np.count_nonzero(np.isfinite(z)))
        assert 0 < updates < len(accel.t) // 10


class TestRunAllocationFree:
    """run() is the hot array loop: no per-tick snapshots, same bits.

    The streaming estimator's allocation story: push() hands back a fresh
    frozen StreamState per tick (ergonomic); run() never builds one (fast).
    It replays nominal stretches on the offline forward pass and falls back
    to _tick() for bootstrap, outage modes, transitions, non-finite input
    and monitored replays. Both must walk the filter through the exact
    same float operations.
    """

    def test_run_bit_identical_to_push_loop(self):
        accel, v_meas, dt = synthetic(theta=0.03, seed=4)
        v_meas[100:400] = np.nan  # a measurement outage mid-stream
        pushed = StreamingGradientEstimator(dt=dt)
        want = np.array([pushed.push(a, z).theta for a, z in zip(accel, v_meas)])
        got = StreamingGradientEstimator(dt=dt).run(accel, v_meas)
        assert np.array_equal(got, want)

    def test_run_never_builds_snapshots(self, monkeypatch):
        import repro.core.online as online

        def explode(*args, **kwargs):
            raise AssertionError("run() must not allocate StreamState")

        monkeypatch.setattr(online, "StreamState", explode)
        accel, v_meas, dt = synthetic(n=500, seed=5)
        est = StreamingGradientEstimator(dt=dt)
        theta = est.run(accel, v_meas)
        assert np.isfinite(theta).all()

    def test_snapshot_is_frozen_with_slots(self):
        est = StreamingGradientEstimator(dt=0.02)
        state = est.push(0.1, 10.0)
        with pytest.raises(AttributeError):
            state.theta = 1.0  # type: ignore[misc]
        assert not hasattr(state, "__dict__")  # slots: no per-instance dict
