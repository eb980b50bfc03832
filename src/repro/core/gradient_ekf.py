"""Per-track gradient estimation: state-space model + EKF (Sec III-C2).

``estimate_track`` runs an EKF over ``x = [v, theta]`` driven by the
accelerometer at the phone rate and corrected by one velocity source; the
output is a :class:`~repro.core.track.GradientTrack`. The filter is a
hand-specialized scalar 2-state EKF, algebraically identical to running
:class:`~repro.core.state_space.GradientStateSpace` through the generic
:class:`~repro.core.ekf.ExtendedKalmanFilter` (the test suite keeps that
generic run as an oracle) but ~20x faster, which matters on the 165 km
network experiment.

:class:`GradientFilterCore` is the streaming tick: one predict/update per
call, driven sample by sample on the phone
(:class:`~repro.core.online.StreamingGradientEstimator`). Offline,
:func:`estimate_track` runs :func:`_forward_pass`, which copies the core's
arithmetic operation for operation onto Python locals (the inputs are
unboxed with ``tolist()`` once) so a tick pays for no method calls,
attribute traffic or numpy scalars; the RTS backward pass
(:func:`_rts_backward`) runs on plain floats the same way. The streaming
replay (:meth:`~repro.core.online.StreamingGradientEstimator.run`) runs
its stretches between mode decisions through the same forward pass.
``tests/core/test_forward_pass.py`` pins the forward pass bit for bit to a
loop over the core, so the two spellings cannot drift apart. The
vectorized kernel in :mod:`repro.core.batch` writes the same equations
over arrays with the same hoisting and association, so it is bit-identical
too and :func:`~repro.core.batch.estimate_tracks_batch` picks between the
kernels by track count alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..config import SerializableConfig
from ..constants import GRAVITY
from ..errors import DegradedInputError, EstimationError
from ..obs import Telemetry
from ..sensors.base import SampledSignal
from ..vehicle.params import DEFAULT_VEHICLE, VehicleParams
from .track import GradientTrack

__all__ = [
    "GradientEKFConfig",
    "GradientFilterCore",
    "estimate_track",
    "measurements_on_timebase",
]

#: Default measurement noise std [m/s] per velocity source.
_DEFAULT_MEASUREMENT_STD = {
    "gps-speed": 0.30,
    "speedometer": 0.20,
    "canbus": 0.12,
    "accelerometer-velocity": 0.90,
}
_FALLBACK_MEASUREMENT_STD = 0.5


@dataclass
class GradientEKFConfig(SerializableConfig):
    """Tuning of the per-track gradient EKF.

    ``smooth=True`` runs a Rauch-Tung-Striebel backward pass after the
    forward filter — an **extension** over the paper's online estimator
    that fits the cloud use-case (Sec III-C3), where tracks are processed
    after the trip anyway. The smoothed track removes the filter's
    convergence lag at grade transitions.
    """

    process: str = "specific_force"
    accel_noise_std: float = 0.18
    grade_rate_std: float = 0.012
    initial_speed_std: float = 1.5
    initial_grade_std: float = math.radians(3.0)
    smooth: bool = False
    measurement_std: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        # Dict input is the ergonomic form ({"gps": 0.4}); normalize to
        # sorted (name, std) pairs so the stored config is immutable data
        # and two specs with the same overrides compare equal.
        if isinstance(self.measurement_std, dict):
            pairs = sorted(self.measurement_std.items())
        else:
            pairs = list(self.measurement_std)
        self.measurement_std = tuple((str(k), float(v)) for k, v in pairs)

    def std_for(self, source_name: str) -> float:
        """Measurement noise std for a velocity source by signal name."""
        for name, std in self.measurement_std:
            if name == source_name:
                return std
        return _DEFAULT_MEASUREMENT_STD.get(source_name, _FALLBACK_MEASUREMENT_STD)


class GradientFilterCore:
    """Single-tick predict/update of the ``[v, theta]`` gradient EKF.

    The streaming tick of the paper's per-track filter (Eq 4/5 prediction,
    H = [1, 0] velocity update): the on-phone estimator
    (:class:`~repro.core.online.StreamingGradientEstimator`) drives it one
    sample at a time. :func:`_forward_pass` reads its constants and
    current state and runs the same arithmetic inlined over many ticks,
    writing the final state back. It has two callers: the offline engine
    (:func:`estimate_track`, a whole track) and the streaming replay
    (:meth:`~repro.core.online.StreamingGradientEstimator.run`, each
    stretch between mode decisions). A property test pins the forward
    pass bit for bit to a loop over the core, so streaming and offline
    outputs stay identical.

    After :meth:`predict`, the attributes ``v``/``theta``/``p11``/``p12``/
    ``p22`` hold the predicted state and covariance and ``b``/``c``/``d``
    hold this tick's Jacobian entries (``F = [[1, b], [c, d]]``) — the
    per-tick columns the RTS backward pass reads. :meth:`update` folds in one
    velocity measurement and returns the innovation.
    """

    __slots__ = (
        "dt", "specific_force", "cdt", "neg_g_dt", "q_v", "q_t", "r", "theta_clamp",
        "v", "theta", "p11", "p12", "p22", "b", "c", "d",
    )

    def __init__(
        self,
        dt: float,
        vehicle: VehicleParams | None = None,
        config: GradientEKFConfig | None = None,
        measurement_std: float | None = None,
        v0: float = 0.0,
    ) -> None:
        if dt <= 0.0:
            raise EstimationError("dt must be positive")
        vehicle = vehicle or DEFAULT_VEHICLE
        cfg = config or GradientEKFConfig()
        self.dt = float(dt)
        self.specific_force = cfg.process == "specific_force"
        # Per-track constants, hoisted exactly as the vectorized kernel
        # hoists them: drift_coeff * dt and -g * dt.
        self.cdt = vehicle.drag_term / vehicle.weight * self.dt
        self.neg_g_dt = -GRAVITY * self.dt
        qa = cfg.accel_noise_std * self.dt
        self.q_v = qa * qa
        self.q_t = cfg.grade_rate_std**2 * self.dt
        std = _FALLBACK_MEASUREMENT_STD if measurement_std is None else measurement_std
        self.r = std**2
        self.theta_clamp = math.pi / 3.0
        self.v = float(v0)
        self.theta = 0.0
        self.p11 = cfg.initial_speed_std**2
        self.p12 = 0.0
        self.p22 = cfg.initial_grade_std**2
        self.b = 0.0
        self.c = 0.0
        self.d = 1.0

    def predict(self, a_meas: float) -> None:
        """Advance one tick on an accelerometer sample (Eq 5 + Eq 4 drift).

        Every product is associated exactly as in the vectorized kernel
        (:mod:`repro.core.batch`), so the two agree bit for bit.
        """
        v = self.v
        theta = self.theta
        sin_t = math.sin(theta)
        cos_t = math.cos(theta)
        if cos_t < 1e-6:
            cos_t = 1e-6

        # Jacobian F = [[1, b], [c, d]]; d = 1 + (cdt v) * slope is
        # 1 + d(drift)/d(theta) * dt.
        if self.specific_force:
            a_long = a_meas - sin_t * GRAVITY
            b = self.neg_g_dt * cos_t
            slope = a_long * sin_t / (cos_t * cos_t) - GRAVITY
        else:
            a_long = a_meas
            b = 0.0
            slope = a_long * sin_t / (cos_t * cos_t)
        cdt = self.cdt
        cdt_v = cdt * v
        d = cdt_v * slope + 1.0
        c = cdt * a_long / cos_t

        # State prediction.
        v = v + a_long * self.dt
        if v < 0.0:
            v = 0.0
        theta = theta + cdt_v * a_long / cos_t
        clamp = self.theta_clamp
        if theta > clamp:
            theta = clamp
        elif theta < -clamp:
            theta = -clamp

        # Covariance prediction P = F P F^T + Q.
        p11, p12, p22 = self.p11, self.p12, self.p22
        self.p11 = p11 + b * p12 + (p12 + b * p22) * b + self.q_v
        self.p12 = c * p11 + (b * c + d) * p12 + b * d * p22
        self.p22 = c * (c * p11) + c * d * p12 * 2.0 + d * d * p22 + self.q_t
        self.v = v
        self.theta = theta
        self.b = b
        self.c = c
        self.d = d

    def innovation_variance(self) -> float:
        """Predicted innovation variance ``S = H P H^T + R`` for this tick.

        Read-only; health monitors call it just before :meth:`update` to
        normalize the innovation without touching the filter state.
        """
        return self.p11 + self.r

    def update(self, z: float) -> float:
        """Fuse one velocity measurement (H = [1, 0]); returns the innovation."""
        p11, p12 = self.p11, self.p12
        s_inno = p11 + self.r
        k1 = p11 / s_inno
        k2 = p12 / s_inno
        inno = z - self.v
        self.v += k1 * inno
        self.theta += k2 * inno
        one_m = 1.0 - k1
        self.p22 = self.p22 - k2 * p12
        self.p12 = one_m * p12
        self.p11 = one_m * p11
        return inno

    def update_theta(self, z: float, r: float) -> float:
        """Fuse one *gradient* measurement (H = [0, 1]) with noise ``r``.

        This is the prior-grade-map update used in GPS-denied operation:
        ``z`` is the map gradient at the estimated arc length [rad] and
        ``r`` its quality-weighted variance [rad^2]
        (:meth:`~repro.roads.prior_map.PriorGradeMap.measurement`). Returns
        the innovation.
        """
        p12, p22 = self.p12, self.p22
        s_inno = p22 + r
        k1 = p12 / s_inno
        k2 = p22 / s_inno
        inno = z - self.theta
        self.v += k1 * inno
        self.theta += k2 * inno
        one_m = 1.0 - k2
        self.p11 = self.p11 - k1 * p12
        self.p12 = one_m * p12
        self.p22 = one_m * p22
        return inno

    def inflate(self, factor: float) -> None:
        """Scale the whole covariance by ``factor`` (>= 1).

        The reacquisition policy after a GPS outage: instead of trusting a
        coasted covariance that never saw the drift, the filter admits
        extra uncertainty so fresh measurements reconverge it quickly. A
        uniform scaling keeps the matrix positive semi-definite.
        """
        self.p11 *= factor
        self.p12 *= factor
        self.p22 *= factor

    def step(self, a_meas: float, z: float | None = None) -> float | None:
        """Predict, then update when a measurement arrived this tick.

        Returns the innovation, or ``None`` on a prediction-only tick.
        """
        self.predict(a_meas)
        if z is None or z != z:  # None or NaN: no measurement this tick
            return None
        return self.update(z)


def measurements_on_timebase(
    t: np.ndarray, velocity: SampledSignal
) -> np.ndarray:
    """Place velocity measurements on the phone timebase.

    Each valid measurement is assigned to the nearest phone tick (one
    update per measurement, as in a real pipeline); ticks without a fresh
    measurement hold NaN and the filter only predicts there.
    """
    z = np.full(len(t), np.nan)
    ok = velocity.valid & np.isfinite(velocity.values)
    if not np.any(ok):
        raise DegradedInputError(
            f"velocity source {velocity.name!r} has no valid samples"
        )
    t_meas = velocity.t[ok]
    v_meas = velocity.values[ok]
    idx = np.searchsorted(t, t_meas)
    idx = np.clip(idx, 0, len(t) - 1)
    left = np.clip(idx - 1, 0, len(t) - 1)
    pick_left = np.abs(t_meas - t[left]) < np.abs(t_meas - t[idx])
    idx = np.where(pick_left, left, idx)
    z[idx] = v_meas  # later measurements on one tick win
    return z


#: One GPS-denied plan event: ``(tick, kind, z, r)``. ``kind`` is ``"map"``
#: (fuse gradient ``z`` with variance ``r``) or ``"inflate"`` (scale the
#: covariance at reacquisition; ``z`` and ``r`` unused).
_PlanEvent = tuple[int, str, float, float]


def _gps_denied_plan(
    z: np.ndarray,
    dt: float,
    s: np.ndarray,
    gps_denied,
    prior_map,
) -> list[_PlanEvent] | None:
    """GPS-denied events for the offline engine, sorted by tick, or ``None``.

    Measurement outages longer than ``outage_enter_ticks`` get (a)
    prior-map gradient updates every ``map_update_interval_ticks`` once
    the dead-reckoning threshold passes — fused with noise widened by the
    position drift a streaming deployment would have accumulated by then —
    and (b) one covariance inflation at the reacquisition tick (the first
    measurement after the outage). Outages are visited in order and each
    one's map ticks lie before its reacquisition tick, so the events come
    out sorted with distinct ticks; ``None`` when nothing applies.
    """
    pm = prior_map
    if pm is None and gps_denied.prior_map is not None:
        pm = gps_denied.prior_map.build()
    fuse_map = gps_denied.use_prior_map and pm is not None
    bad = ~np.isfinite(z)
    plan: list[_PlanEvent] = []
    edges = np.flatnonzero(
        np.diff(np.concatenate(([False], bad, [False])).astype(int))
    ).tolist()
    q_s = gps_denied.dead_reckoning.position_rate_std**2
    for start, end in zip(edges[0::2], edges[1::2]):
        if end - start < gps_denied.outage_enter_ticks:
            continue  # an ordinary sparse-measurement gap, not an outage
        if fuse_map:
            first = start + gps_denied.dead_reckoning_after_ticks
            for i in range(first, end, gps_denied.map_update_interval_ticks):
                # Offline the arc length is known from the alignment, but a
                # deployment localizes by dead reckoning; model its drift
                # so the map update's trust matches the streaming path.
                s_var = q_s * (i - start) * dt
                plan.append((i, "map", *pm.measurement(float(s[i]), s_var)))
        if end < len(z):
            plan.append((end, "inflate", 0.0, 0.0))
    return plan or None


class _History(NamedTuple):
    """Forward-pass columns the RTS backward sweep reads, one list each.

    The predicted state, covariance and Jacobian entries
    (``F = [[1, b], [c, d]]``) per tick, plus the filtered ``p11``/``p12``;
    the filtered ``v``, ``theta`` and ``p22`` are the forward outputs.
    """

    v: list[float]
    theta: list[float]
    p11: list[float]
    p12: list[float]
    p22: list[float]
    b: list[float]
    c: list[float]
    d: list[float]
    p11_filt: list[float]
    p12_filt: list[float]


class _Forward(NamedTuple):
    """What :func:`_forward_pass` returns: per-tick filtered outputs, the
    innovations and their variances (update ticks only), the smoothing
    history (``None`` unless asked for) and the plan's event counts."""

    theta: list[float]
    var: list[float]
    v: list[float]
    innovations: list[float]
    inno_var: list[float]
    history: _History | None
    map_updates: int
    inflations: int


def _forward_pass(
    core: GradientFilterCore,
    a_list: list[float],
    z_list: list[float],
    events: list[_PlanEvent] | None = None,
    inflation: float = 1.0,
    smooth: bool = False,
) -> _Forward:
    """Run the filter over a whole track on Python locals.

    Each tick does what driving ``core`` would:
    :meth:`~GradientFilterCore.inflate` on an ``"inflate"`` event, then
    :meth:`~GradientFilterCore.predict`, then
    :meth:`~GradientFilterCore.update` when ``z`` is not NaN or else
    :meth:`~GradientFilterCore.update_theta` on a ``"map"`` event. The
    arithmetic is copied from those methods operation for operation, so
    the result is bit-identical to the method loop
    (``tests/core/test_forward_pass.py`` pins it) without paying for two
    calls and ~30 attribute reads and writes per tick. ``core`` supplies
    the constants and the initial state and receives the final state.
    ``events`` must be sorted by tick (see :func:`_gps_denied_plan`).

    Two callers: :func:`estimate_track` runs a whole track from a fresh
    core, and the streaming replay
    (:meth:`~repro.core.online.StreamingGradientEstimator.run`) runs each
    stretch between mode decisions from the streaming core's current
    state, without events (it fuses a dead-reckoning stretch's map
    updates itself, between calls).
    """
    dt = core.dt
    specific_force = core.specific_force
    cdt = core.cdt
    neg_g_dt = core.neg_g_dt
    q_v = core.q_v
    q_t = core.q_t
    r = core.r
    clamp = core.theta_clamp
    neg_clamp = -clamp
    g = GRAVITY
    sin = math.sin
    cos = math.cos
    v, theta = core.v, core.theta
    p11, p12, p22 = core.p11, core.p12, core.p22
    b, c, d = core.b, core.c, core.d

    theta_out: list[float] = []
    var_out: list[float] = []
    v_out: list[float] = []
    innovations: list[float] = []
    inno_var: list[float] = []  # S = p11 + r at each update
    theta_app = theta_out.append
    var_app = var_out.append
    v_app = v_out.append
    inno_app = innovations.append
    s_app = inno_var.append
    history: _History | None = None
    if smooth:
        history = _History(*([] for _ in _History._fields))
        (
            hv_app, ht_app, h11_app, h12_app, h22_app,
            hb_app, hc_app, hd_app, f11_app, f12_app,
        ) = [col.append for col in history]

    events = events or []
    n_events = len(events)
    ev_k = 0
    ev_tick = events[0][0] if n_events else -1
    ev_z = ev_r = 0.0
    map_tick = -1  # the tick whose map event (ev_z, ev_r) is pending
    n_map_updates = 0
    n_inflations = 0

    for i, a, zi in zip(itertools.count(), a_list, z_list):
        if i == ev_tick:
            _, kind, ev_z, ev_r = events[ev_k]
            ev_k += 1
            ev_tick = events[ev_k][0] if ev_k < n_events else -1
            if kind == "inflate":
                # Reacquisition: inflate *before* this tick's predict so
                # the first post-outage update sees an honestly uncertain
                # prior.
                p11 *= inflation
                p12 *= inflation
                p22 *= inflation
                n_inflations += 1
            else:
                map_tick = i

        # Predict (GradientFilterCore.predict).
        sin_t = sin(theta)
        cos_t = cos(theta)
        if cos_t < 1e-6:
            cos_t = 1e-6
        if specific_force:
            a_long = a - sin_t * g
            b = neg_g_dt * cos_t
            slope = a_long * sin_t / (cos_t * cos_t) - g
        else:
            a_long = a
            b = 0.0
            slope = a_long * sin_t / (cos_t * cos_t)
        cdt_v = cdt * v
        d = cdt_v * slope + 1.0
        c = cdt * a_long / cos_t
        v = v + a_long * dt
        if v < 0.0:
            v = 0.0
        theta = theta + cdt_v * a_long / cos_t
        if theta > clamp:
            theta = clamp
        elif theta < neg_clamp:
            theta = neg_clamp
        p11, p12, p22 = (
            p11 + b * p12 + (p12 + b * p22) * b + q_v,
            c * p11 + (b * c + d) * p12 + b * d * p22,
            c * (c * p11) + c * d * p12 * 2.0 + d * d * p22 + q_t,
        )
        if smooth:
            hv_app(v)
            ht_app(theta)
            h11_app(p11)
            h12_app(p12)
            h22_app(p22)
            hb_app(b)
            hc_app(c)
            hd_app(d)

        if zi == zi:  # not NaN: GradientFilterCore.update
            s_inno = p11 + r
            k1 = p11 / s_inno
            k2 = p12 / s_inno
            inno = zi - v
            v += k1 * inno
            theta += k2 * inno
            one_m = 1.0 - k1
            p22 = p22 - k2 * p12
            p12 = one_m * p12
            p11 = one_m * p11
            s_app(s_inno)
            inno_app(inno)
        elif i == map_tick:
            # GPS-denied: fuse the prior-map gradient at this tick's
            # estimated arc length (GradientFilterCore.update_theta).
            s_inno = p22 + ev_r
            k1 = p12 / s_inno
            k2 = p22 / s_inno
            inno = ev_z - theta
            v += k1 * inno
            theta += k2 * inno
            one_m = 1.0 - k2
            p11 = p11 - k1 * p12
            p12 = one_m * p12
            p22 = one_m * p22
            n_map_updates += 1

        theta_app(theta)
        var_app(p22)
        v_app(v)
        if smooth:
            f11_app(p11)
            f12_app(p12)

    core.v, core.theta = v, theta
    core.p11, core.p12, core.p22 = p11, p12, p22
    core.b, core.c, core.d = b, c, d
    return _Forward(
        theta_out, var_out, v_out, innovations, inno_var, history,
        n_map_updates, n_inflations,
    )


def estimate_track(
    accel: SampledSignal,
    velocity: SampledSignal,
    s: np.ndarray,
    vehicle: VehicleParams | None = None,
    config: GradientEKFConfig | None = None,
    name: str | None = None,
    telemetry: Telemetry | None = None,
    monitor=None,
    gps_denied=None,
    prior_map=None,
) -> GradientTrack:
    """Run the gradient EKF against one velocity source (fast engine).

    Parameters
    ----------
    accel:
        Longitudinal accelerometer signal on the phone timebase (specific
        force, unless the paper-literal process model is selected).
    velocity:
        One of the four velocity sources.
    s:
        Estimated arc length on the phone timebase (from the alignment).
    monitor:
        Optional :class:`~repro.obs.health.HealthMonitor`; receives the
        track's innovation record via ``check_track``. Purely passive —
        outputs are bit-identical with or without it.
    gps_denied:
        Optional :class:`~repro.core.dead_reckoning.GPSDeniedConfig`; when
        enabled, long measurement outages fuse prior-map gradient updates
        and reacquisition inflates the covariance (see
        :func:`_gps_denied_plan`). ``None`` or disabled leaves the engine
        bit-identical to the historical behaviour.
    prior_map:
        Optional :class:`~repro.roads.prior_map.PriorGradeMap` overriding
        the map embedded in ``gps_denied.prior_map``.
    """
    vehicle = vehicle or DEFAULT_VEHICLE
    cfg = config or GradientEKFConfig()
    t = accel.t
    n = len(t)
    if n < 2:
        raise EstimationError("gradient estimation needs at least two samples")
    s = np.asarray(s, dtype=float)
    if s.shape != t.shape:
        raise EstimationError("arc-length array must match the accel timebase")

    dt = float(np.median(np.diff(t)))
    z = measurements_on_timebase(t, velocity)
    updated = np.isfinite(z)
    tel = telemetry if telemetry is not None and telemetry.active else None
    if tel is not None:
        dropped = int(np.count_nonzero(~(velocity.valid & np.isfinite(velocity.values))))
        tel.count("samples_dropped", dropped)
        tel.count("ekf_ticks", n)
        tel.count("ekf_updates", int(np.count_nonzero(updated)))
    r_std = cfg.std_for(velocity.name)

    # Initial state: first measurement (measurements_on_timebase raised if
    # there is none), flat road prior.
    v0 = float(z[np.argmax(updated)])
    core = GradientFilterCore(
        dt, vehicle=vehicle, config=cfg, measurement_std=r_std, v0=v0
    )

    gd_plan = None
    inflation = 1.0
    if gps_denied is not None and gps_denied.enabled:
        gd_plan = _gps_denied_plan(z, dt, s, gps_denied, prior_map)
        inflation = gps_denied.reacquire_inflation

    # tolist() unboxes the inputs once, so no tick touches numpy.
    fwd = _forward_pass(
        core, accel.values.tolist(), z.tolist(), gd_plan, inflation, cfg.smooth
    )
    if fwd.history is not None:
        _rts_backward(fwd.history, fwd.theta, fwd.var, fwd.v)
    theta_arr = np.array(fwd.theta, dtype=float)
    var_arr = np.array(fwd.var, dtype=float)
    v_arr = np.array(fwd.v, dtype=float)

    if tel is not None:
        if fwd.innovations:
            tel.observe_many("ekf_innovation_abs", np.abs(fwd.innovations))
        tel.gauge("ekf.final_theta_variance", float(var_arr[-1]))
        if fwd.map_updates:
            tel.count("ekf.map_updates", fwd.map_updates)
        if fwd.inflations:
            tel.count("ekf.covariance_reset", fwd.inflations)

    track_name = name or velocity.name
    if monitor is not None:
        monitor.check_track(
            track_name,
            theta_arr,
            var_arr,
            innovations=np.array(fwd.innovations),
            s=np.array(fwd.inno_var),
            update_ticks=np.flatnonzero(updated),
            dt=dt,
            n_ticks=n,
            final_cov=(core.p11, core.p12, core.p22),
        )

    meta = {
        "process": cfg.process,
        "measurement_std": r_std,
        "smoothed": cfg.smooth,
        "engine": "scalar",
    }
    if gd_plan is not None:
        meta["gps_denied"] = {
            "map_updates": fwd.map_updates,
            "reacquisitions": fwd.inflations,
        }
    return GradientTrack(
        name=track_name,
        t=t.copy(),
        s=s.copy(),
        theta=theta_arr,
        variance=var_arr,
        v=v_arr,
        meta=meta,
    )


def _rts_backward(
    hist: _History,
    theta_out: list[float],
    var_out: list[float],
    v_out: list[float],
) -> None:
    """Rauch-Tung-Striebel backward pass for the scalar 2-state filter.

    ``theta_out``/``var_out``/``v_out`` hold the filtered estimates on
    entry and are overwritten in place with the smoothed ones (index ``k``
    is read before it is written). ``C_k = P_k^f F_{k+1}^T
    (P_{k+1}^pred)^{-1}``; the 2x2 inverse is done in closed form.
    """
    xp_v, xp_t, pp11_l, pp12_l, pp22_l, b_l, c_l, d_l, pf11_l, pf12_l = hist
    n = len(theta_out)
    xs_v, xs_t = v_out[n - 1], theta_out[n - 1]
    ps11, ps12, ps22 = pf11_l[n - 1], pf12_l[n - 1], var_out[n - 1]
    var_out[n - 1] = max(ps22, 1e-14)
    for k in range(n - 2, -1, -1):
        j = k + 1
        pf11, pf12, pf22 = pf11_l[k], pf12_l[k], var_out[k]
        pp11, pp12, pp22 = pp11_l[j], pp12_l[j], pp22_l[j]
        det = pp11 * pp22 - pp12 * pp12
        if det <= 1e-18:
            # Filtered values stand; only the variance floor applies.
            xs_v, xs_t = v_out[k], theta_out[k]
            var_out[k] = max(pf22, 1e-14)
            ps11, ps12, ps22 = pf11, pf12, pf22
            continue
        b, c, d = b_l[j], c_l[j], d_l[j]
        i11 = pp22 / det
        i12 = -pp12 / det
        i22 = pp11 / det
        # A = P_f F^T, with F = [[1, b], [c, d]] so F^T = [[1, c], [b, d]].
        a11 = pf11 + pf12 * b
        a12 = pf11 * c + pf12 * d
        a21 = pf12 + pf22 * b
        a22 = pf12 * c + pf22 * d
        # C = A * inv(P_pred).
        c11 = a11 * i11 + a12 * i12
        c12 = a11 * i12 + a12 * i22
        c21 = a21 * i11 + a22 * i12
        c22 = a21 * i12 + a22 * i22
        dv = xs_v - xp_v[j]
        dt_ = xs_t - xp_t[j]
        xs_v = v_out[k] + c11 * dv + c12 * dt_
        xs_t = theta_out[k] + c21 * dv + c22 * dt_
        # P_s = P_f + C (P_s' - P_pred) C^T.
        d11 = ps11 - pp11
        d12 = ps12 - pp12
        d22 = ps22 - pp22
        t11 = c11 * d11 + c12 * d12
        t12 = c11 * d12 + c12 * d22
        t21 = c21 * d11 + c22 * d12
        t22 = c21 * d12 + c22 * d22
        ps11 = pf11 + t11 * c11 + t12 * c12
        ps12 = pf12 + t11 * c21 + t12 * c22
        ps22 = pf22 + t21 * c21 + t22 * c22
        v_out[k] = xs_v
        theta_out[k] = xs_t
        var_out[k] = max(ps22, 1e-14)
