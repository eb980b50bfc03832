"""Per-track gradient EKF tests."""

import pickle

import numpy as np
import pytest

from repro.constants import GRAVITY
from repro.core.gradient_ekf import (
    GradientEKFConfig,
    estimate_track,
    measurements_on_timebase,
)
from repro.core.track import GradientTrack
from repro.errors import ConfigurationError, EstimationError
from repro.sensors.base import SampledSignal
from repro.vehicle.params import DEFAULT_VEHICLE

from .generic_ekf import EKFModel, ExtendedKalmanFilter, GradientStateSpace


def estimate_track_generic(accel, vel, s, vehicle=None, config=None):
    """Oracle: the same model through the generic EKF class, step by step.

    Slow, but written from the state-space model
    (:class:`~tests.core.generic_ekf.GradientStateSpace`) rather than from
    the hand-specialized scalar equations, so agreement with
    :func:`estimate_track` checks the specialization itself.
    """
    vehicle = vehicle or DEFAULT_VEHICLE
    cfg = config or GradientEKFConfig()
    t = accel.t
    n = len(t)
    dt = float(np.median(np.diff(t)))
    model_space = GradientStateSpace(vehicle=vehicle, dt=dt, process=cfg.process)
    r = np.array([[cfg.std_for(vel.name) ** 2]])
    q = np.diag([(cfg.accel_noise_std * dt) ** 2, cfg.grade_rate_std**2 * dt])
    model = EKFModel(
        f=model_space.f,
        f_jacobian=model_space.f_jacobian,
        h=model_space.h,
        h_jacobian=model_space.h_jacobian,
        q=q,
        r=r,
    )
    z = measurements_on_timebase(t, vel)
    v0 = float(z[np.flatnonzero(np.isfinite(z))[0]])
    ekf = ExtendedKalmanFilter(
        model,
        x0=np.array([v0, 0.0]),
        p0=np.diag([cfg.initial_speed_std**2, cfg.initial_grade_std**2]),
    )
    theta_out = np.empty(n)
    var_out = np.empty(n)
    v_out = np.empty(n)
    for i in range(n):
        zi = z[i]
        ekf.step(None if not np.isfinite(zi) else zi, u=np.array([accel.values[i]]))
        v_out[i], theta_out[i] = ekf.x
        var_out[i] = ekf.variance_of(1)
    return GradientTrack(
        name=vel.name,
        t=t.copy(),
        s=np.asarray(s, dtype=float).copy(),
        theta=theta_out,
        variance=var_out,
        v=v_out,
        meta={"process": cfg.process, "engine": "generic"},
    )


def synthetic_signals(theta=0.04, v0=12.0, n=4000, dt=0.02, noise=0.0, seed=0):
    """Constant-grade, constant-speed drive: accel reads pure g*sin(theta)."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) * dt
    accel = SampledSignal(
        t=t,
        values=GRAVITY * np.sin(theta) + rng.normal(0.0, noise, n),
        name="accelerometer",
    )
    vel = SampledSignal(
        t=t, values=v0 + rng.normal(0.0, noise, n), name="speedometer"
    )
    s = v0 * t
    return accel, vel, s


class TestMeasurementsOnTimebase:
    def test_dense_source_fills_every_tick(self):
        t = np.arange(10) * 0.1
        vel = SampledSignal(t=t, values=np.ones(10))
        z = measurements_on_timebase(t, vel)
        assert np.all(np.isfinite(z))

    def test_sparse_source_leaves_nan(self):
        t = np.arange(100) * 0.02
        vel = SampledSignal(t=np.array([0.0, 1.0]), values=np.array([5.0, 6.0]))
        z = measurements_on_timebase(t, vel)
        assert np.count_nonzero(np.isfinite(z)) == 2
        assert z[0] == 5.0
        assert z[50] == 6.0

    def test_invalid_samples_skipped(self):
        t = np.arange(10) * 0.1
        vel = SampledSignal(
            t=t, values=np.ones(10), valid=np.zeros(10, bool)
        )
        with pytest.raises(EstimationError):
            measurements_on_timebase(t, vel)


class TestConvergence:
    def test_converges_to_constant_grade(self):
        accel, vel, s = synthetic_signals(theta=0.04, noise=0.05)
        track = estimate_track(accel, vel, s)
        assert track.theta[-1] == pytest.approx(0.04, abs=0.005)

    def test_converges_to_downhill(self):
        accel, vel, s = synthetic_signals(theta=-0.03, noise=0.05)
        track = estimate_track(accel, vel, s)
        assert track.theta[-1] == pytest.approx(-0.03, abs=0.005)

    def test_variance_decreases(self):
        accel, vel, s = synthetic_signals(noise=0.05)
        track = estimate_track(accel, vel, s)
        assert track.variance[-1] < track.variance[10]

    def test_velocity_state_tracks_truth(self):
        accel, vel, s = synthetic_signals(v0=15.0, noise=0.05)
        track = estimate_track(accel, vel, s)
        assert track.v[-1] == pytest.approx(15.0, abs=0.2)

    def test_tracks_grade_ramp(self):
        n, dt = 8000, 0.02
        t = np.arange(n) * dt
        theta_true = 0.00035 * t  # ~0.056 rad after 160 s
        rng = np.random.default_rng(1)
        accel = SampledSignal(
            t=t, values=GRAVITY * np.sin(theta_true) + rng.normal(0, 0.05, n),
            name="accelerometer",
        )
        vel = SampledSignal(t=t, values=np.full(n, 12.0), name="speedometer")
        track = estimate_track(accel, vel, 12.0 * t)
        assert track.theta[-1] == pytest.approx(theta_true[-1], abs=0.008)

    def test_paper_process_converges_slowly_or_not(self):
        """The literal Eq 5 lacks the gravity coupling: theta stays near 0."""
        accel, vel, s = synthetic_signals(theta=0.05, noise=0.02)
        cfg = GradientEKFConfig(process="paper")
        track = estimate_track(accel, vel, s, config=cfg)
        specific = estimate_track(accel, vel, s)
        err_paper = abs(track.theta[-1] - 0.05)
        err_sf = abs(specific.theta[-1] - 0.05)
        assert err_sf < err_paper

    def test_sparse_measurements_still_converge(self):
        accel, _, s = synthetic_signals(theta=0.03, noise=0.05)
        t_sparse = np.arange(0.0, accel.t[-1], 1.0)
        vel = SampledSignal(
            t=t_sparse, values=np.full(len(t_sparse), 12.0), name="gps-speed"
        )
        track = estimate_track(accel, vel, s)
        assert track.theta[-1] == pytest.approx(0.03, abs=0.008)


class TestEngines:
    def test_scalar_matches_generic(self):
        accel, vel, s = synthetic_signals(n=800, noise=0.05, seed=3)
        fast = estimate_track(accel, vel, s)
        slow = estimate_track_generic(accel, vel, s)
        assert np.allclose(fast.theta, slow.theta, atol=1e-9)
        assert np.allclose(fast.v, slow.v, atol=1e-9)
        assert np.allclose(fast.variance, slow.variance, rtol=1e-6, atol=1e-12)

    def test_scalar_matches_generic_paper_process(self):
        accel, vel, s = synthetic_signals(n=500, noise=0.05, seed=4)
        cfg = GradientEKFConfig(process="paper")
        fast = estimate_track(accel, vel, s, config=cfg)
        slow = estimate_track_generic(accel, vel, s, config=cfg)
        assert np.allclose(fast.theta, slow.theta, atol=1e-9)


    @pytest.mark.parametrize("smooth", [False, True])
    def test_scalar_track_arrays_are_plain_float64(self, smooth):
        # The scalar engine hands out its forward-pass buffers without a
        # copy; they must behave as ordinary arrays, including the pickle
        # round trip the process-pool evaluator ships tracks through.
        accel, vel, s = synthetic_signals(n=300, noise=0.05, seed=5)
        track = estimate_track(accel, vel, s, config=GradientEKFConfig(smooth=smooth))
        assert track.meta["engine"] == "scalar"
        back = pickle.loads(pickle.dumps(track))
        for name in ("theta", "variance", "v"):
            arr = getattr(track, name)
            assert arr.dtype == np.float64
            assert arr.flags.c_contiguous and arr.flags.writeable
            copy = getattr(back, name)
            assert copy.dtype == np.float64 and copy.flags.writeable
            assert np.array_equal(copy, arr)
        assert back.meta == track.meta


class TestConfig:
    def test_std_for_known_sources(self):
        cfg = GradientEKFConfig()
        assert cfg.std_for("gps-speed") == 0.30
        assert cfg.std_for("canbus") == 0.12

    def test_std_for_override(self):
        cfg = GradientEKFConfig(measurement_std={"gps-speed": 1.0})
        assert cfg.std_for("gps-speed") == 1.0

    def test_std_for_unknown_fallback(self):
        assert GradientEKFConfig().std_for("mystery") == 0.5

    def test_unknown_process_rejected(self):
        with pytest.raises(ConfigurationError, match="specfic_force"):
            GradientEKFConfig(process="specfic_force")
        with pytest.raises(ConfigurationError, match="specfic_force"):
            GradientEKFConfig.from_dict({"process": "specfic_force"})

    def test_track_name_defaults_to_source(self):
        accel, vel, s = synthetic_signals(n=100)
        track = estimate_track(accel, vel, s)
        assert track.name == "speedometer"

    def test_shape_mismatch_rejected(self):
        accel, vel, s = synthetic_signals(n=100)
        with pytest.raises(EstimationError):
            estimate_track(accel, vel, s[:-1])
