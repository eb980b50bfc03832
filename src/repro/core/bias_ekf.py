"""Extension: bias-observable hybrid EKF over ``x = [v, theta, b, z]``.

The paper's 2-state filter cannot distinguish a constant accelerometer bias
``b`` from the gravity term ``g sin(theta)``: with only a velocity
measurement the DC split between the two is **unobservable** (any constant
bias can be absorbed by a constant gradient offset at zero innovation
cost). On a trip the residual bias therefore puts a common floor
(~``asin(b/g)``) under *all four* velocity-source tracks, which is why
Fig 8(b)'s within-phone fusion saturates.

The hybrid filter restores observability with the sensor the paper
dismisses: the barometer. Its metre-level noise and weather drift make it
useless for *local* gradients (Sec III-C1 is right), but over minutes its
altitude trend anchors the DC component of the gradient —
``z' = z + v sin(theta) dt`` — freeing ``b`` to absorb the accelerometer's
DC error:

    v'     = v + (a_meas - b - g sin(theta)) dt
    theta' = theta + rho A_f C_d v a_long / (m g cos(theta)) dt   (Eq 4)
    b'     = b                                   (slow random walk)
    z'     = z + v sin(theta) dt

    measurements: the velocity source (h1 = v) and the barometric
    altitude (h2 = z).

This is a natural future-work item for the paper's system; the extension
bench quantifies when it pays off (poorly calibrated IMUs, long trips).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..config import SerializableConfig
from ..constants import GRAVITY
from ..errors import EstimationError
from ..sensors.base import SampledSignal
from ..vehicle.params import DEFAULT_VEHICLE, VehicleParams
from .gradient_ekf import GradientEKFConfig, measurements_on_timebase
from .track import GradientTrack, readonly_view

__all__ = ["BiasEKFConfig", "estimate_track_bias_augmented"]


@dataclass(frozen=True)
class BiasEKFConfig(SerializableConfig):
    """Tuning of the bias-observable hybrid filter.

    ``bias_rate_std`` [m/s^2 per sqrt(s)] models slow bias evolution
    (temperature drift); ``initial_bias_std`` is the prior on the residual
    calibration error; ``altitude_noise_std`` is the barometer's effective
    measurement noise (large: it only needs to anchor the DC trend).
    """

    accel_noise_std: float = 0.18
    grade_rate_std: float = 0.012
    bias_rate_std: float = 2e-4
    initial_speed_std: float = 1.5
    initial_grade_std: float = math.radians(3.0)
    initial_bias_std: float = 0.08
    initial_altitude_std: float = 5.0
    altitude_noise_std: float = 4.0
    measurement_std: dict | None = None

    def std_for(self, source_name: str) -> float:
        """Measurement noise std for a velocity source by signal name."""
        helper = GradientEKFConfig(measurement_std=self.measurement_std or {})
        return helper.std_for(source_name)


def estimate_track_bias_augmented(
    accel: SampledSignal,
    velocity: SampledSignal,
    s: np.ndarray,
    barometer: SampledSignal | None = None,
    vehicle: VehicleParams | None = None,
    config: BiasEKFConfig | None = None,
    name: str | None = None,
) -> GradientTrack:
    """Run the hybrid [v, theta, b, z] gradient filter against one source.

    Without a barometer signal the filter degenerates to the 2-state
    behaviour (bias stays at its prior — documented unobservability).
    Returns a :class:`GradientTrack` whose ``meta['bias']`` holds the final
    bias estimate [m/s^2].
    """
    vehicle = vehicle or DEFAULT_VEHICLE
    cfg = config or BiasEKFConfig()
    t = accel.t
    n = len(t)
    if n < 2:
        raise EstimationError("gradient estimation needs at least two samples")
    s = np.asarray(s, dtype=float)
    if s.shape != t.shape:
        raise EstimationError("arc-length array must match the accel timebase")

    dt = float(np.median(np.diff(t)))
    z_v = measurements_on_timebase(t, velocity)
    r_v = cfg.std_for(velocity.name) ** 2
    if barometer is not None:
        z_alt = measurements_on_timebase(t, barometer)
        r_alt = cfg.altitude_noise_std**2
        z0 = float(z_alt[np.flatnonzero(np.isfinite(z_alt))[0]])
    else:
        z_alt = np.full(n, np.nan)
        r_alt = np.inf
        z0 = 0.0

    q = np.diag(
        [
            (cfg.accel_noise_std * dt) ** 2,
            cfg.grade_rate_std**2 * dt,
            cfg.bias_rate_std**2 * dt,
            (0.01 * dt) ** 2,
        ]
    )
    drift_coeff = vehicle.drag_term / vehicle.weight
    g = GRAVITY
    clamp = math.pi / 3.0

    first = np.flatnonzero(np.isfinite(z_v))
    x = np.array([float(z_v[first[0]]) if len(first) else 0.0, 0.0, 0.0, z0])
    p = np.diag(
        [
            cfg.initial_speed_std**2,
            cfg.initial_grade_std**2,
            cfg.initial_bias_std**2,
            cfg.initial_altitude_std**2,
        ]
    )
    eye = np.eye(4)
    h_v = np.array([[1.0, 0.0, 0.0, 0.0]])
    h_z = np.array([[0.0, 0.0, 0.0, 1.0]])

    theta_out = np.empty(n)
    var_out = np.empty(n)
    v_out = np.empty(n)
    a_in = accel.values

    for i in range(n):
        v, theta, bias, alt = x
        sin_t = math.sin(theta)
        cos_t = max(math.cos(theta), 1e-6)
        a_long = a_in[i] - bias - g * sin_t
        drift = drift_coeff * v * a_long / cos_t

        f_jac = np.array(
            [
                [1.0, -g * cos_t * dt, -dt, 0.0],
                [
                    drift_coeff * a_long / cos_t * dt,
                    1.0
                    + drift_coeff * v * (-g + a_long * sin_t / cos_t**2) * dt,
                    -drift_coeff * v / cos_t * dt,
                    0.0,
                ],
                [0.0, 0.0, 1.0, 0.0],
                [sin_t * dt, v * cos_t * dt, 0.0, 1.0],
            ]
        )
        x = np.array(
            [
                max(v + a_long * dt, 0.0),
                float(np.clip(theta + drift * dt, -clamp, clamp)),
                bias,
                alt + v * sin_t * dt,
            ]
        )
        p = f_jac @ p @ f_jac.T + q

        for z_meas, h, r in ((z_v[i], h_v, r_v), (z_alt[i], h_z, r_alt)):
            if not np.isfinite(z_meas):
                continue
            s_inno = float((h @ p @ h.T)[0, 0]) + r
            gain = (p @ h.T) / s_inno
            x = x + gain[:, 0] * (z_meas - float((h @ x)[0]))
            ikh = eye - gain @ h
            p = ikh @ p @ ikh.T + gain @ np.array([[r]]) @ gain.T

        v_out[i] = x[0]
        theta_out[i] = x[1]
        var_out[i] = max(float(p[1, 1]), 1e-14)

    return GradientTrack(
        name=name or f"{velocity.name}+bias",
        t=readonly_view(t),
        s=readonly_view(s),
        theta=theta_out,
        variance=var_out,
        v=v_out,
        meta={"method": "bias-hybrid", "bias": float(x[2])},
    )
