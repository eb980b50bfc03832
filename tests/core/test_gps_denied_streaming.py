"""GPS-denied streaming: mode machine, reacquisition, clean bit-identity."""

import numpy as np
import pytest

from repro.constants import GRAVITY
from repro.core.dead_reckoning import DeadReckoningConfig, GPSDeniedConfig
from repro.core.online import MODE_NAMES, StreamingGradientEstimator
from repro.errors import EstimationError
from repro.obs import Telemetry
from repro.roads import SectionSpec, build_profile
from repro.roads.prior_map import PriorGradeMap

DT = 0.02

#: Fast-reacting config so tests stay short: 0.5 s to coasting, 1 s to
#: dead reckoning, 3 good fixes to reacquire.
FAST = dict(
    enabled=True,
    outage_enter_ticks=25,
    dead_reckoning_after_ticks=50,
    reacquire_good_ticks=3,
)


def synthetic(theta=0.04, v0=12.0, n=3000, noise=0.05, seed=0):
    rng = np.random.default_rng(seed)
    accel = GRAVITY * np.sin(theta) + rng.normal(0.0, noise, n)
    v_meas = v0 + rng.normal(0.0, noise, n)
    return accel, v_meas


def gps_like(v_meas, period_ticks=50):
    """NaN-hole a dense velocity series down to sparse GPS-like fixes."""
    z = np.full(len(v_meas), np.nan)
    z[::period_ticks] = v_meas[::period_ticks]
    return z


def outage(z, start, n_ticks):
    z = z.copy()
    z[start : start + n_ticks] = np.nan
    return z


def constant_map(theta=0.04, length=3000.0):
    s = np.linspace(0.0, length, 61)
    return PriorGradeMap(s=s, theta=np.full(61, theta), variance=np.full(61, 1e-5))


class TestCleanBitIdentity:
    def test_disabled_config_is_bit_identical(self):
        accel, v_meas = synthetic()
        base = StreamingGradientEstimator(dt=DT, v0=12.0)
        gated = StreamingGradientEstimator(
            dt=DT, v0=12.0, gps_denied=GPSDeniedConfig(enabled=False)
        )
        assert np.array_equal(base.run(accel, v_meas), gated.run(accel, v_meas))

    def test_enabled_config_on_clean_data_is_bit_identical(self):
        # Dense clean fixes never trip the outage machine, so the filter
        # floats must match the historical estimator bit for bit.
        accel, v_meas = synthetic(seed=5)
        base = StreamingGradientEstimator(dt=DT, v0=12.0)
        gated = StreamingGradientEstimator(
            dt=DT, v0=12.0, gps_denied=GPSDeniedConfig(**FAST),
            prior_map=constant_map(),
        )
        assert np.array_equal(base.run(accel, v_meas), gated.run(accel, v_meas))
        assert gated.mode == "nominal"
        assert gated.mode_transitions == 0
        assert gated.map_updates == 0

    def test_enabled_config_on_sparse_gps_is_bit_identical(self):
        # 1 Hz fixes leave 49 dry ticks between updates — below the 150
        # default threshold, so the default config never leaves nominal.
        accel, v_meas = synthetic(seed=7)
        z = gps_like(v_meas)
        base = StreamingGradientEstimator(dt=DT, v0=12.0)
        gated = StreamingGradientEstimator(
            dt=DT, v0=12.0, gps_denied=GPSDeniedConfig(enabled=True)
        )
        assert np.array_equal(base.run(accel, z), gated.run(accel, z))
        assert gated.mode_transitions == 0

    def test_run_matches_push_with_gyro_and_quality(self):
        accel, v_meas = synthetic(n=800, seed=2)
        z = outage(gps_like(v_meas, period_ticks=10), 200, 300)
        gyro = np.random.default_rng(3).normal(0.0, 0.01, len(accel))
        quality = np.ones(len(accel))
        args = dict(gps_denied=GPSDeniedConfig(**FAST), prior_map=constant_map())
        a = StreamingGradientEstimator(dt=DT, v0=12.0, **args)
        b = StreamingGradientEstimator(dt=DT, v0=12.0, **args)
        theta_run = a.run(accel, z, gyro=gyro, fix_quality=quality)
        theta_push = np.array(
            [b.push(ai, zi, gi, qi).theta
             for ai, zi, gi, qi in zip(accel, z, gyro, quality)]
        )
        assert np.array_equal(theta_run, theta_push)
        assert a.mode_transitions == b.mode_transitions


class TestModeMachine:
    def test_outage_walks_the_mode_sequence(self):
        accel, v_meas = synthetic(n=1500)
        z = outage(gps_like(v_meas, period_ticks=10), 300, 600)
        est = StreamingGradientEstimator(
            dt=DT, v0=12.0, gps_denied=GPSDeniedConfig(**FAST)
        )
        modes = []
        for a, zi in zip(accel, z):
            state = est.push(a, zi)
            if not modes or modes[-1] != state.mode:
                modes.append(state.mode)
        assert modes == ["nominal", "coasting", "dead_reckoning", "reacquiring", "nominal"]
        assert est.mode_transitions == 4

    def test_no_dead_reckoning_when_disabled(self):
        accel, v_meas = synthetic(n=1500)
        z = outage(gps_like(v_meas, period_ticks=10), 300, 600)
        est = StreamingGradientEstimator(
            dt=DT, v0=12.0,
            gps_denied=GPSDeniedConfig(**FAST, use_dead_reckoning=False),
        )
        seen = set()
        for a, zi in zip(accel, z):
            seen.add(est.push(a, zi).mode)
        assert "dead_reckoning" not in seen
        assert "coasting" in seen
        assert est.dead_reckoner is None

    def test_marginal_fixes_suppressed_mid_outage(self):
        # A marginal-quality fix during an outage must not be fused (and
        # must not reacquire) — the multipath-protection hysteresis.
        accel, v_meas = synthetic(n=600)
        z = outage(gps_like(v_meas, period_ticks=10), 100, 400)
        z[300] = 99.0  # wild multipath fix mid-outage...
        quality = np.full(len(accel), np.nan)
        quality[300] = 0.5  # ...at marginal quality: above bad, below good
        est = StreamingGradientEstimator(
            dt=DT, v0=12.0, gps_denied=GPSDeniedConfig(**FAST)
        )
        updates = 0
        for i, (a, zi) in enumerate(zip(accel, z)):
            state = est.push(a, zi, 0.0, quality[i])
            updates += state.updated
            if i == 301:
                assert state.mode in ("coasting", "dead_reckoning")
        # The 99 m/s fix was never fused: v stayed near the true 12 m/s.
        assert abs(est.state.v - 12.0) < 2.0

    def test_unusable_fix_never_fused_even_in_nominal(self):
        accel, v_meas = synthetic(n=200)
        quality = np.ones(len(accel))
        quality[50] = 0.1  # below fix_quality_bad
        v_bad = v_meas.copy()
        v_bad[50] = 500.0
        est = StreamingGradientEstimator(
            dt=DT, v0=12.0, gps_denied=GPSDeniedConfig(enabled=True)
        )
        est.run(accel, v_bad, fix_quality=quality)
        assert abs(est.state.v - 12.0) < 2.0

    def test_s_estimate_requires_enabled_config(self):
        est = StreamingGradientEstimator(dt=DT, v0=12.0)
        with pytest.raises(EstimationError):
            est.s_estimate

    def test_s_estimate_tracks_distance(self):
        accel, v_meas = synthetic(n=500, v0=10.0)
        est = StreamingGradientEstimator(
            dt=DT, v0=10.0, gps_denied=GPSDeniedConfig(enabled=True)
        )
        est.run(accel, v_meas)
        assert est.s_estimate == pytest.approx(10.0 * 500 * DT, rel=0.05)


class TestReacquisition:
    @pytest.mark.parametrize("outage_s", [10.0, 30.0, 120.0])
    def test_reconverges_after_outage(self, outage_s):
        n_out = int(outage_s / DT)
        n = 3000 + n_out
        accel, v_meas = synthetic(theta=0.04, n=n, seed=11)
        z = outage(gps_like(v_meas, period_ticks=10), 1000, n_out)
        tel = Telemetry("gps-denied-test")
        est = StreamingGradientEstimator(
            dt=DT, v0=12.0, telemetry=tel,
            gps_denied=GPSDeniedConfig(**FAST),
            prior_map=constant_map(theta=0.04, length=12.0 * n * DT * 2),
        )
        theta = est.run(accel, z)
        # Back to nominal, converged back onto the grade.
        assert est.mode == "nominal"
        assert abs(theta[-1] - 0.04) < 0.01
        # Exactly one reacquisition inflation for the single outage.
        assert tel.metrics.counter("ekf.covariance_reset").value == 1
        assert tel.metrics.counter("stream.mode.transitions").value == 4
        # Every tick lands in exactly one mode counter.
        per_mode = [
            tel.metrics.counter(f"stream.mode.{m}").value for m in MODE_NAMES
        ]
        assert sum(per_mode) == n
        assert per_mode[2] > 0  # dead reckoning engaged
        assert tel.metrics.counter("stream.map_updates").value == est.map_updates
        assert est.map_updates > 0

    def test_covariance_inflated_once_per_episode(self):
        accel, v_meas = synthetic(n=2000)
        # Two separate outages -> two inflations.
        z = outage(outage(gps_like(v_meas, period_ticks=10), 300, 400), 1200, 400)
        tel = Telemetry("gps-denied-test")
        est = StreamingGradientEstimator(
            dt=DT, v0=12.0, telemetry=tel, gps_denied=GPSDeniedConfig(**FAST)
        )
        est.run(accel, z)
        assert tel.metrics.counter("ekf.covariance_reset").value == 2

    def test_map_updates_bound_theta_drift_through_outage(self):
        # Through a long outage the filter coasts; with the prior map the
        # gradient stays pinned near the map value.
        n = 4000
        accel, v_meas = synthetic(theta=0.04, n=n, seed=13)
        z = outage(gps_like(v_meas, period_ticks=10), 500, 3000)
        unaided = StreamingGradientEstimator(
            dt=DT, v0=12.0, gps_denied=GPSDeniedConfig(**FAST)
        )
        aided = StreamingGradientEstimator(
            dt=DT, v0=12.0, gps_denied=GPSDeniedConfig(**FAST),
            prior_map=constant_map(theta=0.04, length=12.0 * n * DT * 2),
        )
        # Start both slightly off the true grade to expose coasting.
        theta_unaided = unaided.run(accel * 0.0 + accel, z)
        theta_aided = aided.run(accel, z)
        err_unaided = np.abs(theta_unaided[2000:3400] - 0.04).max()
        err_aided = np.abs(theta_aided[2000:3400] - 0.04).max()
        assert aided.map_updates > 0
        assert err_aided <= err_unaided + 1e-12

    def test_dead_reckoner_engages_and_clears(self):
        profile = build_profile(
            [SectionSpec.from_degrees(2000.0, 2.0, 1, turn_deg=30.0)],
            name="dr-route",
        )
        accel, v_meas = synthetic(n=1500)
        z = outage(gps_like(v_meas, period_ticks=10), 300, 600)
        est = StreamingGradientEstimator(
            dt=DT, v0=12.0,
            gps_denied=GPSDeniedConfig(
                **FAST, dead_reckoning=DeadReckoningConfig(match_interval_ticks=10)
            ),
            road=profile,
        )
        saw_dr = False
        for a, zi in zip(accel, z):
            est.push(a, zi)
            if est.dead_reckoner is not None:
                saw_dr = True
                assert est.mode == "dead_reckoning"
        assert saw_dr
        assert est.dead_reckoner is None  # cleared on reacquisition
        assert est.mode == "nominal"


class _RecordingMap(PriorGradeMap):
    """A prior map that records every measurement it serves."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.served: list[tuple[float, float]] = []

    def measurement(self, s, s_variance=0.0):
        theta, r_eff = super().measurement(s, s_variance)
        self.served.append((s, theta))
        return theta, r_eff


class TestNonFiniteAccelBeforeOutage:
    """A NaN accel burst just before a 30 s outage must not poison the
    along-track distance: the odometry advances on the recovered speed."""

    N_OUT = int(30.0 / DT)

    def _case(self):
        n = 1000 + self.N_OUT + 1000
        accel, v_meas = synthetic(theta=0.04, n=n, seed=17)
        accel[985:990] = np.nan
        z = outage(gps_like(v_meas, period_ticks=10), 1000, self.N_OUT)
        base = constant_map(theta=0.04, length=1000.0)
        prior = _RecordingMap(base.s, base.theta, base.variance)
        est = StreamingGradientEstimator(
            dt=DT, v0=12.0, gps_denied=GPSDeniedConfig(**FAST), prior_map=prior
        )
        return est, prior, accel, z

    def _check(self, est, prior, theta):
        assert est.recoveries == 5  # one per NaN tick, none later
        assert np.isfinite(est.s_estimate)
        # ~12 m/s for the whole drive, NaN ticks included.
        assert abs(est.s_estimate - 12.0 * len(theta) * DT) < 10.0
        assert est.map_updates > 0 and len(prior.served) == est.map_updates
        assert all(np.isfinite(s) and np.isfinite(t) for s, t in prior.served)
        assert np.all(np.isfinite(theta[990:]))

    def test_push(self):
        est, prior, accel, z = self._case()
        theta = np.array([est.push(a, zi).theta for a, zi in zip(accel, z)])
        self._check(est, prior, theta)

    def test_run(self):
        est, prior, accel, z = self._case()
        self._check(est, prior, est.run(accel, z))


class TestNonFiniteGyroWhileDeadReckoning:
    """A NaN or saturated (±inf) gyro sample while dead reckoning holds the
    heading for that tick, exactly like a zero yaw rate (``run()`` is pinned
    to ``push()`` on such samples in ``test_stream_replay.py``)."""

    ROAD = build_profile(
        [SectionSpec.from_degrees(400.0, 1.0, 1, turn_deg=20.0)], name="gyro-road"
    )

    def _dead_reckoning(self):
        est = StreamingGradientEstimator(
            DT,
            v0=12.0,
            road=self.ROAD,
            gps_denied=GPSDeniedConfig(
                enabled=True, outage_enter_ticks=5, dead_reckoning_after_ticks=10
            ),
        )
        for _ in range(20):
            est.push(0.3, None)
        assert est.mode == "dead_reckoning"
        return est

    @pytest.mark.parametrize("gyro", [float("inf"), float("-inf"), float("nan")])
    def test_held_like_zero(self, gyro):
        held, zero = self._dead_reckoning(), self._dead_reckoning()
        held.push(0.3, None, gyro)
        zero.push(0.3, None, 0.0)
        assert held.dead_reckoner.psi == zero.dead_reckoner.psi
        assert held.s_estimate == zero.s_estimate
        assert held.state.theta == zero.state.theta
