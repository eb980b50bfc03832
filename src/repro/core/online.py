"""Streaming gradient estimation — the on-phone deployment API.

The batch pipeline (:class:`GradientEstimationSystem`) processes whole
recordings; a phone app instead consumes samples as they arrive. This
module wraps the shared single-step filter core
(:class:`~repro.core.gradient_ekf.GradientFilterCore`) in an incremental
API:

    est = StreamingGradientEstimator(dt=0.02)
    for each tick:
        state = est.push(accel_sample, v_meas_or_None)
        state.theta        # current gradient estimate [rad]

The offline engine (:func:`repro.core.gradient_ekf.estimate_track`) runs
the same arithmetic inlined over a whole track rather than calling the
core per tick; a property test pins that forward pass bit for bit to a
loop over ``GradientFilterCore``, and unit tests pin ``push`` to the
offline outputs on real recordings, so the streaming path and the offline
scalar engine stay bit-identical.

The replay API, :meth:`StreamingGradientEstimator.run`, uses both: it is a
segment loop that hands each *stretch* -- ticks on which the mode machine
decides nothing, in any of the four modes -- to that offline forward pass
and advances the clock, distance, dry count and counters in bulk. A
dead-reckoning stretch runs in chunks that end at its road-match and
map-update ticks, with the :class:`DeadReckoner` stepped over each chunk.
Only decision ticks -- bootstrap, a usable fix outside ``nominal``, a
transition, non-finite input -- and monitored replays run through the
per-tick mode machine: on the ``stream_outage`` benchmark, 94 ticks per
pass instead of 16,034 when only nominal stretches took the forward pass,
and a median 121.8 instead of 106.8 replays/s (2-CPU x86_64 host).
``tests/core/test_stream_replay.py`` pins ``run`` to a ``push`` loop bit
for bit, state and telemetry included.

GPS-denied operation
--------------------
With a :class:`~repro.core.dead_reckoning.GPSDeniedConfig` enabled, the
estimator runs an explicit outage-mode state machine::

    nominal -> coasting -> dead_reckoning -> reacquiring -> nominal

``nominal`` fuses fixes as usual; a sustained dry spell
(``outage_enter_ticks``) enters ``coasting`` (predict-only); a longer one
engages the :class:`~repro.core.dead_reckoning.DeadReckoner` (gyro-z
integrated heading, road-heading matches) so the along-track position
stays usable and — when a :class:`~repro.roads.prior_map.PriorGradeMap`
is attached — the map's gradient is fused as an extra EKF update with
quality-weighted noise. The first good-quality fix flips to
``reacquiring``: the covariance is inflated once per outage episode
(soft reconvergence instead of the old hard coast) and a streak of good
fixes completes the return to ``nominal``. Quality hysteresis
(``fix_quality_good`` / ``fix_quality_bad``) keeps marginal, possibly
multipath-biased fixes from being fused mid-outage or flapping the mode.
Each mode ticks a ``stream.mode.*`` counter. With the config disabled
(the default) none of this machinery runs and outputs are bit-identical
to the historical estimator.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import EstimationError
from ..obs.telemetry import Telemetry
from ..vehicle.params import VehicleParams
from .dead_reckoning import DeadReckoner, GPSDeniedConfig
from .gradient_ekf import GradientEKFConfig, GradientFilterCore, _forward_pass

__all__ = ["MODE_NAMES", "StreamState", "StreamingGradientEstimator"]

#: Outage-mode indices and their public names, in escalation order.
_NOMINAL, _COASTING, _DEAD_RECKONING, _REACQUIRING = range(4)
MODE_NAMES = ("nominal", "coasting", "dead_reckoning", "reacquiring")


@dataclass(frozen=True, slots=True)
class StreamState:
    """Snapshot of the streaming filter after one tick."""

    t: float
    v: float
    theta: float
    theta_variance: float
    updated: bool  # whether a velocity measurement was fused this tick
    mode: str = "nominal"  # outage mode (always "nominal" when disabled)


class StreamingGradientEstimator:
    """Incremental [v, theta] gradient EKF fed one sample at a time."""

    def __init__(
        self,
        dt: float,
        vehicle: VehicleParams | None = None,
        config: GradientEKFConfig | None = None,
        measurement_std: float = 0.2,
        v0: float | None = None,
        telemetry: Telemetry | None = None,
        health=None,
        gps_denied: GPSDeniedConfig | None = None,
        prior_map=None,
        road=None,
        s0: float = 0.0,
        heading0: float = 0.0,
    ) -> None:
        if dt <= 0.0:
            raise EstimationError("dt must be positive")
        cfg = config or GradientEKFConfig()
        if cfg.smooth:
            raise EstimationError("streaming estimation cannot smooth backward")
        self.dt = dt
        self._core = GradientFilterCore(
            dt,
            vehicle=vehicle,
            config=cfg,
            measurement_std=measurement_std,
            v0=0.0 if v0 is None else float(v0),
        )
        self._need_init = v0 is None
        self._t = 0.0
        self._ticks = 0
        self._updated = False  # whether the last tick fused a measurement

        # Divergence recovery: remember the last finite state and the
        # initial covariance so a non-finite tick (NaN accel burst, Inf
        # measurement) can be rolled back instead of poisoning every
        # subsequent estimate. Always on — a phone deployment cannot afford
        # a filter that never comes back.
        self._ok_v = self._core.v
        self._ok_theta = 0.0
        self._p0_11 = self._core.p11
        self._p0_22 = self._core.p22
        self._recoveries = 0

        # Telemetry: counter objects are resolved once here so the per-tick
        # cost is one attribute increment; with telemetry disabled the push
        # path pays only a single `is None` check.
        obs = telemetry if telemetry is not None and telemetry.active else None
        self._obs = obs
        self._diverged = False

        # GPS-denied operating mode: everything below is gated on
        # `self._gd is not None`, so with the config absent or disabled the
        # hot loop pays one `is None` check per tick and the filter floats
        # are bit-identical to the historical estimator.
        gd = gps_denied if gps_denied is not None and gps_denied.enabled else None
        self._gd = gd
        self._mode = _NOMINAL
        if gd is not None:
            pm = prior_map
            if pm is None and gd.prior_map is not None:
                pm = gd.prior_map.build()
            self._map = pm if gd.use_prior_map else None
            self._road = road
            self._dr: DeadReckoner | None = None
            self._s_est = float(s0)
            self._heading0 = float(heading0)
            self._dry_ticks = 0
            self._good_streak = 0
            self._outage_inflated = False
            self._transitions = 0
            self._map_update_count = 0

        # Optional streaming health monitor (a HealthConfig enables it).
        # Purely passive — it reads the core's state but never writes, so
        # estimates are bit-identical with health on or off.
        self._health = None
        if health is not None and getattr(health, "enabled", True):
            from ..obs.health import StreamingHealthMonitor

            self._health = StreamingHealthMonitor(
                health, p22_initial=self._p0_22, dt=dt
            )
        if obs is not None:
            self._c_ticks = obs.metrics.counter("stream.ticks")
            self._c_updates = obs.metrics.counter("stream.updates")
            self._c_clamped = obs.metrics.counter("stream.clamped_ticks")
            self._c_nonfinite = obs.metrics.counter("stream.nonfinite_guard")
            self._c_cov_reset = obs.metrics.counter("ekf.covariance_reset")
        if obs is not None and gd is not None:
            self._c_mode = (
                obs.metrics.counter("stream.mode.nominal"),
                obs.metrics.counter("stream.mode.coasting"),
                obs.metrics.counter("stream.mode.dead_reckoning"),
                obs.metrics.counter("stream.mode.reacquiring"),
            )
            self._c_mode_trans = obs.metrics.counter("stream.mode.transitions")
            self._c_map_updates = obs.metrics.counter("stream.map_updates")

    @property
    def ticks(self) -> int:
        """Samples processed so far."""
        return self._ticks

    @property
    def recoveries(self) -> int:
        """Covariance resets performed after non-finite ticks."""
        return self._recoveries

    @property
    def health(self):
        """The :class:`~repro.obs.health.StreamingHealthMonitor`, or None."""
        return self._health

    @property
    def mode(self) -> str:
        """Current outage mode ("nominal" whenever GPS-denied is disabled)."""
        return MODE_NAMES[self._mode]

    @property
    def mode_transitions(self) -> int:
        """Outage-mode transitions so far (0 when GPS-denied is disabled)."""
        return self._transitions if self._gd is not None else 0

    @property
    def map_updates(self) -> int:
        """Prior-map gradient updates fused so far."""
        return self._map_update_count if self._gd is not None else 0

    @property
    def s_estimate(self) -> float:
        """Dead-reckoned along-track distance [m] (GPS-denied mode only)."""
        if self._gd is None:
            raise EstimationError(
                "along-track tracking needs an enabled GPSDeniedConfig"
            )
        return self._s_est

    @property
    def dead_reckoner(self) -> DeadReckoner | None:
        """The engaged :class:`DeadReckoner`, or None outside that mode."""
        return self._dr if self._gd is not None else None

    @property
    def state(self) -> StreamState:
        """The latest snapshot."""
        core = self._core
        return StreamState(
            t=self._t,
            v=core.v,
            theta=core.theta,
            theta_variance=core.p22,
            updated=self._updated,
            mode=MODE_NAMES[self._mode],
        )

    def push(
        self,
        accel: float,
        v_meas: float | None = None,
        gyro: float = 0.0,
        fix_quality: float | None = None,
    ) -> StreamState:
        """Advance one tick with an accelerometer sample and, when a
        velocity measurement arrived this tick, fuse it.

        ``gyro`` (yaw rate [rad/s]) and ``fix_quality`` (0..1, ``None`` =
        nominal quality) only matter in GPS-denied operation: the gyro
        feeds the dead reckoner's heading and the quality drives the mode
        machine's hysteresis.

        Degraded input is survivable: a non-finite ``v_meas`` is treated as
        "no measurement this tick" (predict-only), and a tick whose state
        goes non-finite (NaN/Inf accelerometer) is counted by the guard and
        then *recovered* — the last finite state is restored with the
        covariance reset to its initial (uncertain) value, so estimates
        converge again once the input heals.
        """
        core = self._core
        updated = self._tick(accel, v_meas, gyro, fix_quality)
        return StreamState(
            t=self._t,
            v=core.v,
            theta=core.theta,
            theta_variance=core.p22,
            updated=updated,
            mode=MODE_NAMES[self._mode],
        )

    def _tick(
        self,
        accel: float,
        v_meas: float | None,
        gyro: float = 0.0,
        fix_quality: float | None = None,
    ) -> bool:
        """One filter tick without building a snapshot.

        All per-tick state lives on the estimator and the filter core, so a
        caller that reads the core directly (:meth:`run`'s per-tick
        fallback) pays zero heap allocations per sample.
        """
        core = self._core
        if v_meas is not None and v_meas != v_meas:  # NaN: no measurement
            v_meas = None
        if self._gd is not None:
            v_meas = self._gd_gate(v_meas, fix_quality)
        if self._need_init:
            # Bootstrap the velocity state from the first measurement.
            if v_meas is not None:
                core.v = float(v_meas)
                self._need_init = False

        core.predict(accel)
        updated = False
        if v_meas is not None and not self._need_init:
            if self._health is not None:
                s = core.innovation_variance()
                inno = core.update(float(v_meas))
                self._health.record_update(inno, s)
            else:
                core.update(float(v_meas))
            updated = True
        self._updated = updated

        if self._gd is not None:
            self._gd_track(gyro)

        self._t += self.dt
        self._ticks += 1
        if self._obs is not None:
            self._record_tick(updated)
        if self._health is not None:
            # Observe the raw post-tick state, before any recovery masks it.
            self._health.record_tick(core, updated)
        if math.isfinite(core.theta) and math.isfinite(core.v):
            self._ok_v = core.v
            self._ok_theta = core.theta
        else:
            self._recover()
        return updated

    def _gd_gate(self, v_meas: float | None, fix_quality: float | None):
        """Pre-predict mode machine: gate the fix, drive transitions.

        Returns the possibly-suppressed measurement. Runs before the
        filter predict so a reacquisition inflation precedes the first
        post-outage update (matching the offline engine), and so outage
        modes can refuse to fuse marginal fixes at all.
        """
        gd = self._gd
        usable = good = False
        if v_meas is not None:
            if fix_quality is None or fix_quality != fix_quality:
                quality = 1.0
            else:
                quality = fix_quality
            usable = quality > gd.fix_quality_bad
            good = quality >= gd.fix_quality_good
            if not usable:
                v_meas = None
        if v_meas is None:
            self._dry_ticks += 1
        else:
            self._dry_ticks = 0

        mode = self._mode
        if mode == _NOMINAL:
            if self._dry_ticks >= gd.outage_enter_ticks:
                self._set_mode(_COASTING)
        elif mode == _COASTING:
            if good:
                self._enter_reacquiring()
            elif v_meas is not None:
                v_meas = None  # marginal fix mid-outage: never fused
            elif (
                gd.use_dead_reckoning
                and self._dry_ticks >= gd.dead_reckoning_after_ticks
            ):
                self._set_mode(_DEAD_RECKONING)
                self._engage_dead_reckoning()
        elif mode == _DEAD_RECKONING:
            if good:
                self._dr = None
                self._enter_reacquiring()
            elif v_meas is not None:
                v_meas = None  # marginal fix mid-outage: never fused
        else:  # _REACQUIRING
            if good:
                self._good_streak += 1
                if self._good_streak >= gd.reacquire_good_ticks:
                    self._set_mode(_NOMINAL)
                    self._good_streak = 0
                    self._outage_inflated = False
            elif v_meas is not None:
                self._good_streak = 0  # marginal fix: fused, streak broken
            elif self._dry_ticks >= gd.outage_enter_ticks:
                self._good_streak = 0
                self._set_mode(_COASTING)
        return v_meas

    def _gd_track(self, gyro: float) -> None:
        """Post-update along-track tracking, DR stepping, map fusion."""
        core = self._core
        dr = self._dr
        v = core.v
        if not (math.isfinite(v) and math.isfinite(core.theta)):
            # _recover restores the last finite speed after this tick; the
            # odometry advances on it, not on the poisoned state.
            v = self._ok_v
        if dr is not None and self._mode == _DEAD_RECKONING:
            dr.predict(v, gyro)
            if self._dr_event(dr, self._dry_ticks):
                self._map_update_count += 1
                if self._obs is not None:
                    self._c_map_updates.inc()
            self._s_est = dr.s
        else:
            # Outside dead reckoning the filter speed is the best odometer;
            # pure bookkeeping, never touches the filter state.
            self._s_est += v * self.dt
        if self._obs is not None:
            self._c_mode[self._mode].inc()

    def _dr_event(self, dr: DeadReckoner, dry: int) -> bool:
        """The road match and map update due at dry count ``dry``, after
        the dead reckoner stepped; returns whether a map update was fused."""
        gd = self._gd
        if self._road is not None and dry % gd.dead_reckoning.match_interval_ticks == 0:
            dr.match_road(self._road)
        if self._map is not None and dry % gd.map_update_interval_ticks == 0:
            self._core.update_theta(*self._map.measurement(dr.s, dr.p_ss))
            return True
        return False

    def _set_mode(self, mode: int) -> None:
        previous = self._mode
        self._mode = mode
        self._transitions += 1
        if self._obs is not None:
            self._c_mode_trans.inc()
            self._obs.event(
                "stream.mode_transition",
                previous=MODE_NAMES[previous],
                mode=MODE_NAMES[mode],
                tick=self._ticks,
            )

    def _enter_reacquiring(self) -> None:
        """A good fix arrived mid-outage: inflate once, start the streak."""
        gd = self._gd
        self._set_mode(_REACQUIRING)
        if not self._outage_inflated:
            # Soft reconvergence: the covariance coasted through the outage
            # without ever seeing the drift, so widen it before fusing the
            # fresh fixes instead of fighting them with false confidence.
            self._core.inflate(gd.reacquire_inflation)
            self._outage_inflated = True
            if self._obs is not None:
                self._c_cov_reset.inc()
        self._good_streak = 1
        if self._good_streak >= gd.reacquire_good_ticks:
            self._set_mode(_NOMINAL)
            self._good_streak = 0
            self._outage_inflated = False

    def _engage_dead_reckoning(self) -> None:
        """Build the dead reckoner at the current along-track estimate."""
        gd = self._gd
        if self._road is not None:
            psi0 = float(self._road.heading_at(self._s_est))
        else:
            psi0 = self._heading0
        dr = DeadReckoner(
            self.dt, gd.dead_reckoning, s0=self._s_est, psi0=psi0
        )
        # Seed the position uncertainty with the drift already accumulated
        # while coasting (speed integrated open-loop since the last fix).
        dr.p_ss = gd.dead_reckoning.position_rate_std**2 * self._dry_ticks * self.dt
        self._dr = dr

    def _recover(self) -> None:
        """Roll back to the last finite state with the covariance reset."""
        core = self._core
        core.v = self._ok_v
        core.theta = self._ok_theta
        core.p11 = self._p0_11
        core.p12 = 0.0
        core.p22 = self._p0_22
        self._recoveries += 1
        if self._obs is not None:
            self._c_cov_reset.inc()

    def _record_tick(self, updated: bool) -> None:
        """Per-tick counters plus a one-shot divergence/NaN guard event."""
        self._c_ticks.inc()
        if updated:
            self._c_updates.inc()
        core = self._core
        theta = core.theta
        v = core.v
        if not (math.isfinite(theta) and math.isfinite(v)):
            self._c_nonfinite.inc()
            if not self._diverged:
                self._diverged = True
                self._obs.event(
                    "stream.divergence",
                    reason="nonfinite",
                    tick=self._ticks,
                    theta=theta,
                    v=v,
                )
        elif abs(theta) >= core.theta_clamp:
            self._c_clamped.inc()
            if not self._diverged:
                self._diverged = True
                self._obs.event(
                    "stream.divergence",
                    reason="clamp",
                    tick=self._ticks,
                    theta=theta,
                    v=v,
                )

    def run(
        self,
        accel: np.ndarray,
        v_meas: np.ndarray,
        gyro: np.ndarray | None = None,
        fix_quality: np.ndarray | None = None,
    ) -> np.ndarray:
        """Replay whole arrays (NaN in ``v_meas`` = no update).

        ``gyro`` and ``fix_quality`` are optional parallel 1-D arrays for
        GPS-denied operation (NaN quality = nominal). Returns the theta
        series, bit-identical to an equivalent :meth:`push` loop (unit
        tests, a property test and golden replays pin it).

        The replay is a segment loop. Once the filter is bootstrapped and
        no health monitor is attached, every *stretch* -- a run of ticks on
        which the mode machine decides nothing -- goes in one go through
        the offline forward pass
        (:func:`~repro.core.gradient_ekf._forward_pass`) on the effective
        measurements (NaN where a fix is missing or unusable by quality),
        whatever the mode (:meth:`_stretch_end` says where each mode's
        stretch ends). The clock, tick count, along-track distance, dry
        count and telemetry counters then advance in bulk; a
        dead-reckoning stretch also steps the dead reckoner and fuses its
        road matches and map updates (:meth:`_stretch`). Only decision
        ticks go through :meth:`_tick`: bootstrap, a usable fix outside
        ``nominal``, a mode transition, a non-finite input, and every tick
        of a monitored replay. A stretch whose outputs turn non-finite is
        rolled back and replayed through :meth:`_tick`, so divergence
        recovery is unchanged. On the ``stream_outage`` benchmark this cut
        the ``_tick`` calls per pass from 16,034 to 94.
        """
        accel = _series(accel, "accel")
        v_meas = _series(v_meas, "v_meas")
        n = len(accel)
        if len(v_meas) != n:
            raise EstimationError("accel and v_meas must match")
        if gyro is not None:
            gyro = _series(gyro, "gyro")
            if len(gyro) != n:
                raise EstimationError("gyro must match the accel timebase")
        if fix_quality is not None:
            fix_quality = _series(fix_quality, "fix_quality")
            if len(fix_quality) != n:
                raise EstimationError("fix_quality must match the accel timebase")

        # The measurements a nominal tick fuses: quality only gates fixes
        # when the mode machine runs.
        gd = self._gd
        z_eff = v_meas
        if gd is not None and fix_quality is not None:
            z_eff = np.where(fix_quality <= gd.fix_quality_bad, np.nan, v_meas)
        fixes = np.flatnonzero(~np.isnan(z_eff))
        plan = _StretchPlan(
            fixes.tolist(),
            np.flatnonzero(~np.isfinite(accel) | np.isinf(z_eff)).tolist(),
            _outage_ticks(fixes, n, gd.outage_enter_ticks) if gd is not None else [],
        )

        # tolist() unboxes to Python floats in one pass; NaN measurements
        # are mapped to None inside _tick itself.
        a_list = accel.tolist()
        z_list = v_meas.tolist()
        ze_list = z_list if z_eff is v_meas else z_eff.tolist()
        g_list = gyro.tolist() if gyro is not None else [0.0] * n
        q_list = fix_quality.tolist() if fix_quality is not None else [None] * n
        out = np.empty(n)
        core = self._core
        tick = self._tick
        i = 0
        slow_until = 0  # end of a stretch rolled back to per-tick replay
        while i < n:
            if i >= slow_until and not self._need_init and self._health is None:
                j = self._stretch_end(i, n, plan)
                if j > i:
                    if self._stretch(a_list, ze_list, g_list, i, j, plan, out):
                        i = j
                        continue
                    slow_until = j
            tick(a_list[i], z_list[i], g_list[i], q_list[i])
            out[i] = core.theta
            i += 1
        return out

    def _stretch_end(self, i: int, n: int, plan: _StretchPlan) -> int:
        """End (exclusive) of the stretch in the current mode from tick ``i``."""
        k = bisect_left(plan.stops, i)
        end = plan.stops[k] if k < len(plan.stops) else n
        gd = self._gd
        if gd is None:
            return end
        k = bisect_left(plan.fixes, i)
        first_fix = plan.fixes[k] if k < len(plan.fixes) else n
        mode = self._mode
        if mode == _NOMINAL:
            # The dry spell carried in from earlier ticks enters an outage
            # before the next fix, or else a later spell does.
            carried = i + gd.outage_enter_ticks - self._dry_ticks - 1
            if carried < first_fix:
                return min(end, carried)
            k = bisect_left(plan.outages, first_fix)
            if k < len(plan.outages):
                end = min(end, plan.outages[k])
            return end
        # Outside nominal every usable fix is a decision, and so is the dry
        # tick that escalates coasting or falls back from reacquiring.
        end = min(end, first_fix)
        if mode == _REACQUIRING:
            limit = gd.outage_enter_ticks
        elif mode == _COASTING and gd.use_dead_reckoning:
            limit = gd.dead_reckoning_after_ticks
        else:
            return end
        return min(end, i + limit - self._dry_ticks - 1)

    def _stretch(
        self,
        a_list: list[float],
        ze_list: list[float],
        g_list: list[float],
        i: int,
        j: int,
        plan: _StretchPlan,
        out: np.ndarray,
    ) -> bool:
        """Ticks ``i..j-1`` of one mode on the offline forward pass.

        Writes theta into ``out`` and advances the estimator's bookkeeping
        as ``j - i`` calls of :meth:`_tick` would. A dead-reckoning stretch
        runs in chunks that end at its event ticks (a road match or a map
        update is due): the dead reckoner steps over each chunk's speeds,
        then the event tick's updates overwrite its outputs. Returns False,
        with the filter and dead-reckoner state restored, if any output
        went non-finite.
        """
        core = self._core
        saved = (core.v, core.theta, core.p11, core.p12, core.p22, core.b, core.c, core.d)
        mode = self._mode
        dr = self._dr if mode == _DEAD_RECKONING else None
        match = every = 0  # event spacing in dry ticks (0 = no such event)
        if dr is not None:
            dr_saved = (dr.s, dr.psi, dr.p_ss, dr.p_sp, dr.p_pp, dr.matches)
            gd = self._gd
            if self._road is not None:
                match = gd.dead_reckoning.match_interval_ticks
            if self._map is not None:
                every = gd.map_update_interval_ticks
            off = i - 1 - self._dry_ticks  # the tick k has dry count k - off
        map_updates = 0
        theta = v_out = None
        try:
            k = i
            while k < j:
                end = j
                for step in (match, every):
                    if step:
                        end = min(end, k + 1 + (off - k) % step)
                fwd = _forward_pass(core, a_list[k:end], ze_list[k:end])
                if dr is not None:
                    for v, g in zip(fwd.v, g_list[k:end]):
                        dr.predict(v, g)
                    if self._dr_event(dr, end - 1 - off):
                        fwd.theta[-1] = core.theta
                        fwd.v[-1] = core.v
                        map_updates += 1
                if theta is None:
                    theta, v_out = fwd.theta, fwd.v
                else:
                    theta += fwd.theta
                    v_out += fwd.v
                k = end
        except ValueError:
            # math.sin(inf): a tick overflowed theta and the pass went on
            # where _tick would have recovered.
            theta = None
        # Any non-finite output forces the safe per-tick replay.
        if theta is None or not (
            np.isfinite(theta).all() and np.isfinite(v_out).all()
        ):
            (core.v, core.theta, core.p11, core.p12, core.p22,
             core.b, core.c, core.d) = saved
            if dr is not None:
                dr.s, dr.psi, dr.p_ss, dr.p_sp, dr.p_pp, dr.matches = dr_saved
            return False
        out[i:j] = theta
        m = j - i
        dt = self.dt
        t = self._t
        for _ in itertools.repeat(None, m):
            t += dt
        self._t = t
        start = self._ticks
        self._ticks = start + m
        self._ok_v = core.v
        self._ok_theta = core.theta
        lo = bisect_left(plan.fixes, i)
        hi = bisect_left(plan.fixes, j)
        last_fix = plan.fixes[hi - 1] if hi > lo else -1
        self._updated = last_fix == j - 1
        if self._gd is not None:
            if dr is not None:
                self._s_est = dr.s
                self._map_update_count += map_updates
            else:
                s = self._s_est
                for v in v_out:
                    s += v * dt
                self._s_est = s
            self._dry_ticks = j - 1 - last_fix if hi > lo else self._dry_ticks + m
        if self._obs is not None:
            self._record_stretch(start, out[i:j], v_out, hi - lo, mode, map_updates)
        return True

    def _record_stretch(
        self,
        start: int,
        theta: np.ndarray,
        v: list[float],
        updates: int,
        mode: int,
        map_updates: int,
    ) -> None:
        """:meth:`_record_tick` and the mode counters for a whole finite
        stretch in ``mode``."""
        m = len(theta)
        self._c_ticks.inc(m)
        self._c_updates.inc(updates)
        if self._gd is not None:
            self._c_mode[mode].inc(m)
            self._c_map_updates.inc(map_updates)
        clamped = np.flatnonzero(np.abs(theta) >= self._core.theta_clamp)
        if len(clamped):
            self._c_clamped.inc(len(clamped))
            if not self._diverged:
                self._diverged = True
                k = int(clamped[0])
                self._obs.event(
                    "stream.divergence",
                    reason="clamp",
                    tick=start + k + 1,
                    theta=float(theta[k]),
                    v=v[k],
                )


class _StretchPlan(NamedTuple):
    """Where a replay's stretches must end, as sorted tick lists.

    ``fixes`` are the ticks with a usable measurement (they reset the dry
    count and end every stretch outside ``nominal``), ``stops`` the ticks
    with a non-finite accelerometer sample or an infinite measurement,
    ``outages`` the ticks where a dry spell that began after a fix reaches
    ``outage_enter_ticks`` (they end nominal stretches).
    """

    fixes: list[int]
    stops: list[int]
    outages: list[int]


def _outage_ticks(fixes: np.ndarray, n: int, enter: int) -> list[int]:
    """Ticks where the dry spell after each fix reaches ``enter`` ticks."""
    following = np.append(fixes[1:], n)
    return (fixes[following - fixes - 1 >= enter] + enter).tolist()


def _series(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise EstimationError(f"{name} must be a 1-D array, got shape {arr.shape}")
    return arr
