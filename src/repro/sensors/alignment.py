"""Smartphone coordinate alignment system (paper Sec III-A).

Aligning the phone frame ``X_B Y_B Z_B`` with the road frame
``X_E Y_E Z_E`` lets the gyroscope Z channel be read as the vehicle
direction change rate ``w_vehicle``. The steering rate then follows from

    w_steer = w_vehicle - w_road

where the road direction change rate ``w_road`` is derived from road
geography (map-matched GPS positions against the known road geometry) —
exactly the construction of Fig 2. Where GPS service is missing, ``w_road``
is unknown and treated as zero; road curvature then leaks into the steering
rate, which is why the lane-change detector needs its S-curve
discrimination rule (Sec III-B2).

The phone may additionally sit slightly rotated in its mount. Following the
paper (which cites [14] for removing relative-movement effects) the
alignment estimates a constant yaw mounting offset by comparing the
gyro-integrated heading with the GPS track heading, and removes it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AlignmentError
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from ..roads.profile import RoadProfile
from .base import SampledSignal
from .gps import GPSFixes

__all__ = ["AlignedSteering", "CoordinateAlignment", "map_match", "estimate_mounting_yaw"]


@dataclass
class AlignedSteering:
    """Output of the alignment: everything downstream of Fig 2.

    Attributes
    ----------
    t:
        Phone timebase [s].
    w_vehicle:
        Measured vehicle direction change rate [rad/s] (gyro Z).
    w_road:
        Road direction change rate [rad/s] from map geography (0 where
        unknown).
    w_steer:
        ``w_vehicle - w_road`` [rad/s].
    s:
        Estimated arc length along the route [m] (map-matched; dead-reckoned
        through GPS outages).
    v:
        Speed used for the road-rate computation [m/s].
    road_rate_known:
        False where GPS was unavailable and ``w_road`` fell back to zero.
    yaw_offset:
        Estimated phone mounting yaw offset [rad].
    """

    t: np.ndarray
    w_vehicle: np.ndarray
    w_road: np.ndarray
    w_steer: np.ndarray
    s: np.ndarray
    v: np.ndarray
    road_rate_known: np.ndarray
    yaw_offset: float = 0.0

    def __len__(self) -> int:
        return len(self.t)

    def steering_signal(self) -> SampledSignal:
        """The steering-rate profile as a standard signal."""
        return SampledSignal(t=self.t, values=self.w_steer, name="steering-rate", unit="rad/s")


def map_match(
    profile: RoadProfile,
    x: np.ndarray,
    y: np.ndarray,
    window_m: float = 120.0,
    expected_step: np.ndarray | None = None,
    max_distance_m: float = 35.0,
) -> np.ndarray:
    """Match planar positions to arc lengths along the profile.

    Each fix is matched among the route points within ``max_distance_m``
    of it. Before the first match it takes the geometrically closest one;
    after that, the point that best combines distance with deviation from
    the arc length predicted since the last match, which cannot jump
    backwards across the route on noisy fixes. NaN positions yield NaN
    matches.

    Cost: the near points come from the profile's bucket grid
    (:attr:`~repro.roads.profile.RoadProfile.point_grid`, built once per
    profile): one vectorized pass collects, for all fixes at once, the
    points of every grid cell that can hold a point within
    ``max_distance_m`` (plus one ring of cells as slack for rounding) and
    keeps those that pass the distance gate. The work is O(fixes x points
    per visited cell), independent of route length; only the choice among
    a fix's near points runs per fix. The result is bit-identical to
    scanning every route point per fix: the gate and the cost use the same
    expressions on the same values, and the near points keep ascending
    grid order, so ``argmin`` breaks ties the same way.

    Parameters
    ----------
    window_m:
        Without ``expected_step``, the arc length predicted per fix is
        ``window_m / 4`` (a conservative forward prior).
    expected_step:
        Optional predicted arc-length advance [m] between consecutive
        fixes (e.g. the integral of the measured speed). When supplied the
        prediction follows it, which keeps the matcher locked on routes
        that revisit or double back on the same streets — without it, the
        mirror branch of an out-and-back road can alias the match.
    max_distance_m:
        Matches farther than this from the route are rejected (left NaN);
        the caller's dead reckoning bridges them.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise AlignmentError("map_match expects equal-length 1-D x/y arrays")
    if expected_step is not None:
        expected_step = np.asarray(expected_step, dtype=float)
        if expected_step.shape != x.shape:
            raise AlignmentError("expected_step must match the fix count")
    max_d2 = max_distance_m**2
    pos_sigma2 = (max_distance_m / 3.0) ** 2

    # All (fix, point) pairs within the gate, sorted by fix then point.
    fix, point = profile.point_grid.pairs_near(x, y, abs(max_distance_m))
    d2 = (profile.xy[point, 0] - x[fix]) ** 2 + (profile.xy[point, 1] - y[fix]) ** 2
    near = d2 <= max_d2
    fix = fix[near]
    point = point[near]
    d2 = d2[near]
    d2_pos = d2 / pos_sigma2
    s_near = profile.s[point]
    bounds = np.searchsorted(fix, np.arange(len(x) + 1)).tolist()

    out = np.full(len(x), np.nan)
    if expected_step is not None:
        steps = expected_step.tolist()
    else:
        steps = [window_m / 4.0] * len(x)  # conservative forward prior
    s_anchor: float | None = None  # arc length of the last accepted match
    pending = 0.0  # predicted advance [m] accumulated since the last match
    for i, step in enumerate(steps):
        pending += step
        lo, hi = bounds[i], bounds[i + 1]
        if lo == hi:
            continue
        if s_anchor is None:
            # No anchor yet: take the geometrically closest point.
            j = lo + int(np.argmin(d2[lo:hi]))
        else:
            # Disambiguate revisited streets: combine geometric distance
            # with deviation from the speed-predicted arc length. The
            # prediction uncertainty grows with distance dead-reckoned.
            s_pred = s_anchor + pending
            s_sigma2 = (12.0 + 0.05 * abs(pending)) ** 2
            cost = s_near[lo:hi] - s_pred  # in place from here on
            cost *= cost
            cost /= s_sigma2
            cost += d2_pos[lo:hi]
            j = lo + int(cost.argmin())
        s_anchor = float(s_near[j])
        pending = 0.0
        out[i] = s_anchor
    return out


class CoordinateAlignment:
    """Builds the aligned steering-rate profile for one recording."""

    def __init__(
        self, profile: RoadProfile, telemetry: Telemetry | None = None
    ) -> None:
        self.profile = profile
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY

    def align(
        self,
        gyro: SampledSignal,
        speed: SampledSignal,
        gps: GPSFixes,
        yaw_offset_truth: float = 0.0,
    ) -> AlignedSteering:
        """Compute ``w_steer = w_vehicle - w_road`` on the gyro timebase.

        Parameters
        ----------
        gyro:
            Gyroscope Z signal (vehicle direction change rate).
        speed:
            A speed signal (any source) used both for the road-rate lookup
            and for dead reckoning through outages.
        gps:
            GPS fixes for map matching.
        yaw_offset_truth:
            The simulated mounting offset, if any; the estimator sees only
            its effect on the signals, this parameter simply lets callers
            report estimation quality.
        """
        t = gyro.t
        if len(t) < 2:
            raise AlignmentError("alignment needs at least two gyro samples")
        v = speed.interpolate_to(t)
        v = np.where(np.isfinite(v), v, 0.0)

        # Predicted advance between GPS epochs from the measured speed;
        # keeps map matching locked on self-revisiting routes.
        dt = np.diff(t, prepend=t[0])
        travelled = np.cumsum(v * dt)
        travelled_at_fix = np.interp(gps.t, t, travelled)
        expected_step = np.diff(travelled_at_fix, prepend=travelled_at_fix[0])

        s_fix = map_match(self.profile, gps.x, gps.y, expected_step=expected_step)
        s = self._dead_reckon(t, v, gps.t, s_fix)

        gps_ok_t = np.interp(t, gps.t, gps.available.astype(float)) > 0.5
        known = gps_ok_t & np.isfinite(s)

        curvature = self.profile.curvature_at(np.where(np.isfinite(s), s, 0.0))
        w_road = np.where(known, curvature * v, 0.0)
        w_steer = gyro.values - w_road

        tel = self.telemetry
        if tel.active:
            matched = int(np.count_nonzero(np.isfinite(s_fix)))
            tel.count("alignment.samples", len(t))
            tel.count("alignment.gps_fixes", len(gps))
            tel.count("alignment.matched_fixes", matched)
            tel.count("alignment.dropped_fixes", len(gps) - matched)
            tel.count("alignment.outage_samples", int(np.count_nonzero(~known)))
            tel.gauge("alignment.yaw_offset", float(yaw_offset_truth))

        return AlignedSteering(
            t=t,
            w_vehicle=gyro.values,
            w_road=w_road,
            w_steer=w_steer,
            s=s,
            v=v,
            road_rate_known=known,
            yaw_offset=yaw_offset_truth,
        )

    @staticmethod
    def _dead_reckon(
        t: np.ndarray,
        v: np.ndarray,
        t_fix: np.ndarray,
        s_fix: np.ndarray,
        s_dr: np.ndarray | None = None,
    ) -> np.ndarray:
        """Arc length on the phone timebase: matched where possible, integrated elsewhere.

        Between (and beyond) GPS matches, s advances by the integral of the
        speed signal; at each valid match the estimate snaps back to the
        matched value, bounding dead-reckoning drift by the outage length.
        Callers that already integrated the speed (the batched alignment
        path) pass it via ``s_dr`` to avoid recomputing it.
        """
        if s_dr is None:
            dt = np.diff(t, prepend=t[0])
            s_dr = np.cumsum(v * dt)
        ok = np.isfinite(s_fix)
        if not np.any(ok):
            return s_dr  # pure dead reckoning from the route start
        # Offset correction: piecewise-constant between fixes.
        t_ok = t_fix[ok]
        s_ok = s_fix[ok]
        s_dr_at_fix = np.interp(t_ok, t, s_dr)
        offset = s_ok - s_dr_at_fix
        # Hold the most recent offset (previous fix) at each phone sample.
        idx = np.searchsorted(t_ok, t, side="right") - 1
        idx = np.clip(idx, 0, len(t_ok) - 1)
        return s_dr + offset[idx]


def estimate_mounting_yaw(
    accel_long: SampledSignal,
    accel_lat: SampledSignal,
    speed: SampledSignal,
    gyro: SampledSignal | None = None,
    straight_threshold: float = 0.02,
) -> float:
    """Estimate a constant phone mounting yaw from the accelerometer channels.

    A phone rotated by yaw ``phi`` in its mount measures
    ``a_y = cos(phi) f_long + sin(phi) f_lat`` and
    ``a_x = -sin(phi) f_long + cos(phi) f_lat``. A constant yaw is invisible
    to the gyro Z axis, so — following the idea of the paper's reference
    [14] — it is recovered from the accelerometers: the true longitudinal
    channel correlates with the derivative of the (independent) speed
    signal while the lateral channel does not, hence

        cov(a_y, dv/dt) = cos(phi) * c,   cov(a_x, dv/dt) = -sin(phi) * c

    and ``phi = atan2(-cov(a_x, ref), cov(a_y, ref))``. Cornering breaks the
    "lateral channel is uncorrelated" assumption (drivers brake into turns),
    so when a gyro signal is supplied only straight-driving samples
    (|w| below ``straight_threshold`` rad/s) enter the covariances.
    Returns the estimated yaw [rad].
    """
    t = accel_long.t
    if len(t) < 10:
        raise AlignmentError("yaw estimation needs a longer recording")
    v = speed.interpolate_to(t)
    v = np.where(np.isfinite(v), v, np.nan)
    dvdt = np.gradient(np.nan_to_num(v, nan=0.0), t)
    # Smooth the reference: finite-differenced speed is noisy.
    kernel = np.ones(25) / 25.0
    dvdt = np.convolve(dvdt, kernel, mode="same")
    mask = np.ones(len(t), dtype=bool)
    if gyro is not None:
        smooth_w = np.convolve(gyro.values, kernel, mode="same")
        mask = np.abs(smooth_w) < straight_threshold
        if np.count_nonzero(mask) < 50:
            mask = np.ones(len(t), dtype=bool)
    ay = (accel_long.values - np.nanmean(accel_long.values[mask]))[mask]
    ax = (accel_lat.values - np.nanmean(accel_lat.values[mask]))[mask]
    ref = (dvdt - np.mean(dvdt[mask]))[mask]
    c_y = float(np.dot(ay, ref))
    c_x = float(np.dot(ax, ref))
    if abs(c_y) < 1e-9 and abs(c_x) < 1e-9:
        return 0.0
    return float(np.arctan2(-c_x, c_y))
