"""Per-track gradient estimation: state-space model + EKF (Sec III-C2).

``estimate_track`` runs an EKF over ``x = [v, theta]`` driven by the
accelerometer at the phone rate and corrected by one velocity source; the
output is a :class:`~repro.core.track.GradientTrack`. Two interchangeable
engines exist:

* :func:`estimate_track` uses a hand-specialized scalar 2-state filter —
  algebraically identical to the generic EKF but ~20x faster, which matters
  on the 165 km network experiment;
* :func:`estimate_track_generic` runs the same model through
  :class:`~repro.core.ekf.ExtendedKalmanFilter`. A unit test pins both to
  the same output.

The single-tick predict/update arithmetic lives in one place —
:class:`GradientFilterCore` — shared by the offline scalar engine here and
the on-phone streaming path
(:class:`~repro.core.online.StreamingGradientEstimator`), so the two can
never drift apart numerically. The vectorized kernel in
:mod:`repro.core.batch` writes the same equations over arrays; the core
hoists the same per-track constants and associates every product the same
way, so the two kernels are bit-identical and
:func:`~repro.core.batch.estimate_tracks_batch` picks between them by
track count alone. :func:`estimate_track` runs the core on plain Python
floats (the inputs are unboxed with ``tolist()`` once), so no tick pays
for numpy scalar arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..config import SerializableConfig
from ..constants import GRAVITY
from ..errors import DegradedInputError, EstimationError
from ..obs import Telemetry
from ..sensors.base import SampledSignal
from ..vehicle.params import DEFAULT_VEHICLE, VehicleParams
from .ekf import EKFModel, ExtendedKalmanFilter
from .state_space import GradientStateSpace
from .track import GradientTrack

__all__ = [
    "GradientEKFConfig",
    "GradientFilterCore",
    "estimate_track",
    "estimate_track_generic",
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

    This is the *one* implementation of the paper's per-track filter math
    (Eq 4/5 prediction, H = [1, 0] velocity update). The offline scalar
    engine (:func:`estimate_track`) drives it tick by tick over a whole
    recording; the streaming estimator
    (:class:`~repro.core.online.StreamingGradientEstimator`) drives it one
    sample at a time on the phone. Both therefore produce bit-identical
    state sequences by construction.

    After :meth:`predict`, the attributes ``v``/``theta``/``p11``/``p12``/
    ``p22`` hold the predicted state and covariance and ``b``/``c``/``d``
    hold this tick's Jacobian entries (``F = [[1, b], [c, d]]``) — exactly
    the history the RTS backward pass needs. :meth:`update` folds in one
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


def _gps_denied_plan(
    z: np.ndarray,
    dt: float,
    s: np.ndarray,
    gps_denied,
    prior_map,
) -> dict[int, tuple] | None:
    """Per-tick GPS-denied actions for the offline engine, or ``None``.

    Measurement outages longer than ``outage_enter_ticks`` get (a)
    prior-map gradient updates every ``map_update_interval_ticks`` once
    the dead-reckoning threshold passes — fused with noise widened by the
    position drift a streaming deployment would have accumulated by then —
    and (b) one covariance inflation at the reacquisition tick (the first
    measurement after the outage). Returns ``{tick: ("map", theta, r)}``
    and ``{tick: ("inflate",)}`` entries; ``None`` when nothing applies.
    """
    pm = prior_map
    if pm is None and gps_denied.prior_map is not None:
        pm = gps_denied.prior_map.build()
    fuse_map = gps_denied.use_prior_map and pm is not None
    bad = ~np.isfinite(z)
    plan: dict[int, tuple] = {}
    edges = np.flatnonzero(
        np.diff(np.concatenate(([False], bad, [False])).astype(int))
    )
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
                plan[i] = ("map", *pm.measurement(float(s[i]), s_var))
        if end < len(z):
            plan[end] = ("inflate",)
    return plan or None


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
    tel = telemetry if telemetry is not None and telemetry.active else None
    if tel is not None:
        dropped = int(np.count_nonzero(~(velocity.valid & np.isfinite(velocity.values))))
        tel.count("samples_dropped", dropped)
        tel.count("ekf_ticks", n)
        tel.count("ekf_updates", int(np.count_nonzero(np.isfinite(z))))
    r_std = cfg.std_for(velocity.name)

    # Initial state: first available measurement, flat road prior.
    first = np.flatnonzero(np.isfinite(z))
    v0 = float(z[first[0]]) if len(first) else float(np.nanmax([accel.values[0], 0.0]))
    core = GradientFilterCore(
        dt, vehicle=vehicle, config=cfg, measurement_std=r_std, v0=v0
    )

    gd_plan = None
    n_map_updates = 0
    n_inflations = 0
    if gps_denied is not None and gps_denied.enabled:
        gd_plan = _gps_denied_plan(z, dt, s, gps_denied, prior_map)
        inflation = gps_denied.reacquire_inflation

    # The loop runs on plain Python floats: tolist() unboxes the inputs
    # once, so no tick touches numpy, and outputs collect in lists.
    a_list = accel.values.tolist()
    z_list = z.tolist()
    predict = core.predict
    update = core.update
    r = core.r
    theta_out: list[float] = []
    var_out: list[float] = []
    v_out: list[float] = []
    innovations: list[float] = []
    inno_var: list[float] = []  # S = p11 + r before each update
    do_smooth = cfg.smooth
    # Forward-pass history for the RTS backward sweep: the predicted
    # (v, theta, p11, p12, p22, b, c, d) and filtered (v, theta, p11, p12,
    # p22) rows per tick; F = [[1, b], [c, d]].
    hist_pred: list[tuple] = []
    hist_filt: list[tuple] = []

    for i, (a, zi) in enumerate(zip(a_list, z_list)):
        gd_act = gd_plan.get(i) if gd_plan is not None else None
        if gd_act is not None and gd_act[0] == "inflate":
            # Reacquisition: inflate *before* this tick's predict so
            # the first post-outage update sees an honestly uncertain
            # prior.
            core.inflate(inflation)
            n_inflations += 1

        predict(a)
        if do_smooth:
            hist_pred.append(
                (core.v, core.theta, core.p11, core.p12, core.p22,
                 core.b, core.c, core.d)
            )

        if zi == zi:  # not NaN
            inno_var.append(core.p11 + r)
            innovations.append(update(zi))
        elif gd_act is not None and gd_act[0] == "map":
            # GPS-denied: fuse the prior-map gradient at this tick's
            # estimated arc length (the tick itself has no velocity
            # measurement, so the two updates never collide).
            core.update_theta(gd_act[1], gd_act[2])
            n_map_updates += 1

        theta_out.append(core.theta)
        var_out.append(core.p22)
        v_out.append(core.v)
        if do_smooth:
            hist_filt.append((core.v, core.theta, core.p11, core.p12, core.p22))

    theta_arr = np.array(theta_out, dtype=float)
    var_arr = np.array(var_out, dtype=float)
    v_arr = np.array(v_out, dtype=float)
    if do_smooth:
        pred = np.array(hist_pred)
        filt = np.array(hist_filt)
        _rts_backward(
            pred[:, 0:2], pred[:, 2:5], filt[:, 0:2], filt[:, 2:5], pred[:, 5:8],
            theta_arr, var_arr, v_arr,
        )

    if tel is not None:
        if innovations:
            tel.observe_many("ekf_innovation_abs", np.abs(innovations))
        tel.gauge("ekf.final_theta_variance", float(var_arr[-1]))
        if n_map_updates:
            tel.count("ekf.map_updates", n_map_updates)
        if n_inflations:
            tel.count("ekf.covariance_reset", n_inflations)

    track_name = name or velocity.name
    if monitor is not None:
        monitor.check_track(
            track_name,
            theta_arr,
            var_arr,
            innovations=np.array(innovations),
            s=np.array(inno_var),
            update_ticks=np.flatnonzero(np.isfinite(z)),
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
            "map_updates": n_map_updates,
            "reacquisitions": n_inflations,
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
    xp: np.ndarray,
    pp: np.ndarray,
    xf: np.ndarray,
    pf: np.ndarray,
    f_entries: np.ndarray,
    theta_out: np.ndarray,
    var_out: np.ndarray,
    v_out: np.ndarray,
) -> None:
    """Rauch-Tung-Striebel backward pass for the scalar 2-state filter.

    Overwrites the output arrays in place with the smoothed estimates.
    ``C_k = P_k^f F_{k+1}^T (P_{k+1}^pred)^{-1}``; the 2x2 inverse is done
    in closed form.
    """
    n = len(theta_out)
    xs_v, xs_t = xf[n - 1]
    ps11, ps12, ps22 = pf[n - 1]
    v_out[n - 1], theta_out[n - 1] = xs_v, xs_t
    var_out[n - 1] = max(ps22, 1e-14)
    for k in range(n - 2, -1, -1):
        b, c, d = f_entries[k + 1]
        pf11, pf12, pf22 = pf[k]
        pp11, pp12, pp22 = pp[k + 1]
        det = pp11 * pp22 - pp12 * pp12
        if det <= 1e-18:
            v_out[k], theta_out[k] = xf[k]
            var_out[k] = max(pf22, 1e-14)
            xs_v, xs_t = xf[k]
            ps11, ps12, ps22 = pf[k]
            continue
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
        dv = xs_v - xp[k + 1, 0]
        dt_ = xs_t - xp[k + 1, 1]
        xs_v = xf[k, 0] + c11 * dv + c12 * dt_
        xs_t = xf[k, 1] + c21 * dv + c22 * dt_
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


def estimate_track_generic(
    accel: SampledSignal,
    velocity: SampledSignal,
    s: np.ndarray,
    vehicle: VehicleParams | None = None,
    config: GradientEKFConfig | None = None,
    name: str | None = None,
) -> GradientTrack:
    """Reference engine: the same model through the generic EKF class."""
    vehicle = vehicle or DEFAULT_VEHICLE
    cfg = config or GradientEKFConfig()
    t = accel.t
    n = len(t)
    if n < 2:
        raise EstimationError("gradient estimation needs at least two samples")
    dt = float(np.median(np.diff(t)))
    model_space = GradientStateSpace(vehicle=vehicle, dt=dt, process=cfg.process)
    r = np.array([[cfg.std_for(velocity.name) ** 2]])
    q = np.diag([(cfg.accel_noise_std * dt) ** 2, cfg.grade_rate_std**2 * dt])
    model = EKFModel(
        f=model_space.f,
        f_jacobian=model_space.f_jacobian,
        h=model_space.h,
        h_jacobian=model_space.h_jacobian,
        q=q,
        r=r,
    )
    z = measurements_on_timebase(t, velocity)
    first = np.flatnonzero(np.isfinite(z))
    v0 = float(z[first[0]]) if len(first) else 0.0
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
        name=name or velocity.name,
        t=t.copy(),
        s=np.asarray(s, dtype=float).copy(),
        theta=theta_out,
        variance=var_out,
        v=v_out,
        meta={"process": cfg.process, "engine": "generic"},
    )
