"""Test oracle: a generic EKF run over the ``[v, theta]`` state-space model.

:class:`ExtendedKalmanFilter` is a small, general EKF over an
:class:`EKFModel` (Joseph-form covariance update). :class:`GradientStateSpace`
writes the paper's vehicle model (Eqs 3-5) as the maps and Jacobians that
filter needs. Together they are slow but written from the model rather
than from the hand-specialized scalar equations of
:mod:`repro.core.gradient_ekf`, so ``test_scalar_matches_generic*`` checks
the specialization itself.

Two process-model variants exist (see DESIGN.md §1):

* ``"specific_force"`` (default): the accelerometer input is treated as
  what a phone accelerometer physically measures on a gradient — specific
  force ``a + g sin(theta)`` — so the velocity prediction is
  ``v' = v + (a_meas - g sin(theta)) dt``. The velocity innovation then
  carries direct information about theta, which is what makes the filter
  converge quickly.
* ``"paper"``: the literal Eq 5 ``v' = v + a_meas dt`` (the measured
  acceleration is assumed gravity-free). Theta is then only observable
  through Eq 4's drift term, which is weak.

Both variants keep Eq 4's gradient dynamics
``theta' = theta + rho A_f C_d v a / (m g cos(theta)) dt``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.constants import GRAVITY
from repro.core import PROCESS_MODELS
from repro.errors import ConfigurationError, EstimationError
from repro.vehicle.params import VehicleParams


@dataclass
class EKFModel:
    """The two nonlinear maps and their Jacobians defining a filter.

    Attributes
    ----------
    f:
        Process model ``f(x, u) -> x_next``.
    f_jacobian:
        ``F(x, u) -> dF/dx`` evaluated at (x, u).
    h:
        Measurement model ``h(x) -> z_pred``.
    h_jacobian:
        ``H(x) -> dh/dx``.
    q:
        Process noise covariance (n x n), or a callable ``q(x, u)``.
    r:
        Measurement noise covariance (m x m), or a callable ``r(x)``.
    """

    f: Callable[[np.ndarray, np.ndarray | None], np.ndarray]
    f_jacobian: Callable[[np.ndarray, np.ndarray | None], np.ndarray]
    h: Callable[[np.ndarray], np.ndarray]
    h_jacobian: Callable[[np.ndarray], np.ndarray]
    q: np.ndarray | Callable[[np.ndarray, np.ndarray | None], np.ndarray]
    r: np.ndarray | Callable[[np.ndarray], np.ndarray]


class ExtendedKalmanFilter:
    """EKF over an :class:`EKFModel` with explicit state/covariance access."""

    def __init__(self, model: EKFModel, x0: np.ndarray, p0: np.ndarray) -> None:
        self.model = model
        self.x = np.asarray(x0, dtype=float).copy()
        self.p = np.asarray(p0, dtype=float).copy()
        n = len(self.x)
        if self.p.shape != (n, n):
            raise EstimationError(f"P0 must be ({n}, {n}), got {self.p.shape}")
        self._eye = np.eye(n)

    # -- core steps ---------------------------------------------------------

    def predict(self, u: np.ndarray | None = None) -> None:
        """Propagate state and covariance through the process model."""
        model = self.model
        f_jac = np.asarray(model.f_jacobian(self.x, u), dtype=float)
        self.x = np.asarray(model.f(self.x, u), dtype=float)
        q = model.q(self.x, u) if callable(model.q) else model.q
        self.p = f_jac @ self.p @ f_jac.T + np.asarray(q, dtype=float)

    def update(self, z: np.ndarray | float) -> np.ndarray:
        """Fuse a measurement; returns the innovation (z - h(x))."""
        model = self.model
        z_arr = np.atleast_1d(np.asarray(z, dtype=float))
        h_jac = np.atleast_2d(np.asarray(model.h_jacobian(self.x), dtype=float))
        z_pred = np.atleast_1d(np.asarray(model.h(self.x), dtype=float))
        r = model.r(self.x) if callable(model.r) else model.r
        r = np.atleast_2d(np.asarray(r, dtype=float))

        innovation = z_arr - z_pred
        s = h_jac @ self.p @ h_jac.T + r
        try:
            gain = np.linalg.solve(s.T, (self.p @ h_jac.T).T).T
        except np.linalg.LinAlgError as exc:
            raise EstimationError("singular innovation covariance") from exc

        self.x = self.x + gain @ innovation
        ikh = self._eye - gain @ h_jac
        # Joseph form: numerically symmetric and PSD.
        self.p = ikh @ self.p @ ikh.T + gain @ r @ gain.T
        return innovation

    def step(self, z: np.ndarray | float | None, u: np.ndarray | None = None) -> None:
        """One predict(+update) cycle; pass ``z=None`` to skip the update.

        Skipping the update is how the estimators ride out GPS outages:
        predictions continue, covariance grows, and the next measurement
        pulls the state back.
        """
        self.predict(u)
        if z is not None:
            self.update(z)

    # -- introspection --------------------------------------------------------

    @property
    def state(self) -> np.ndarray:
        """Current state estimate (copy)."""
        return self.x.copy()

    @property
    def covariance(self) -> np.ndarray:
        """Current error covariance (copy)."""
        return self.p.copy()

    def variance_of(self, index: int) -> float:
        """Marginal variance of one state component."""
        return float(self.p[index, index])


#: Gradient magnitudes beyond this are clamped to keep cos(theta) healthy.
_THETA_CLAMP = np.pi / 3.0


@dataclass
class GradientStateSpace:
    """Discrete-time model ``[v, theta]`` with accelerometer input.

    Parameters
    ----------
    vehicle:
        Vehicle constants (rho, A_f, C_d, m enter Eq 4's drift term).
    dt:
        Discretization step [s] (the phone sampling period).
    process:
        ``"specific_force"`` or ``"paper"`` (see module docstring).
    """

    vehicle: VehicleParams
    dt: float
    process: str = "specific_force"

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ConfigurationError("dt must be positive")
        if self.process not in PROCESS_MODELS:
            raise ConfigurationError(
                f"unknown process model {self.process!r}; choose from {PROCESS_MODELS}"
            )

    @property
    def _drift_coeff(self) -> float:
        """``rho A_f C_d / (m g)`` — Eq 4's coefficient."""
        return self.vehicle.drag_term / self.vehicle.weight

    def f(self, x: np.ndarray, u: np.ndarray | None) -> np.ndarray:
        """Process map: one Euler step of Eq 5."""
        v, theta = float(x[0]), float(np.clip(x[1], -_THETA_CLAMP, _THETA_CLAMP))
        a_meas = 0.0 if u is None else float(np.atleast_1d(u)[0])
        if self.process == "specific_force":
            a_long = a_meas - GRAVITY * np.sin(theta)
        else:
            a_long = a_meas
        v_next = max(v + a_long * self.dt, 0.0)
        drift = self._drift_coeff * v * a_long / max(np.cos(theta), 1e-6)
        theta_next = theta + drift * self.dt
        return np.array([v_next, float(np.clip(theta_next, -_THETA_CLAMP, _THETA_CLAMP))])

    def f_jacobian(self, x: np.ndarray, u: np.ndarray | None) -> np.ndarray:
        """dF/dx of :meth:`f` at (x, u)."""
        v, theta = float(x[0]), float(np.clip(x[1], -_THETA_CLAMP, _THETA_CLAMP))
        a_meas = 0.0 if u is None else float(np.atleast_1d(u)[0])
        c = self._drift_coeff
        cos_t = max(np.cos(theta), 1e-6)
        sin_t = np.sin(theta)
        if self.process == "specific_force":
            a_long = a_meas - GRAVITY * sin_t
            dv_dtheta = -GRAVITY * cos_t * self.dt
            # d/dtheta of [c v (a_meas - g sin t) / cos t]
            ddrift_dtheta = c * v * (
                -GRAVITY * cos_t / cos_t + a_long * sin_t / cos_t**2
            )
        else:
            a_long = a_meas
            dv_dtheta = 0.0
            ddrift_dtheta = c * v * a_long * sin_t / cos_t**2
        ddrift_dv = c * a_long / cos_t
        return np.array(
            [
                [1.0, dv_dtheta],
                [ddrift_dv * self.dt, 1.0 + ddrift_dtheta * self.dt],
            ]
        )

    @staticmethod
    def h(x: np.ndarray) -> np.ndarray:
        """Measurement map: the measured longitudinal velocity."""
        return np.array([x[0]])

    @staticmethod
    def h_jacobian(x: np.ndarray) -> np.ndarray:
        """dh/dx = [1, 0]."""
        return np.array([[1.0, 0.0]])

    def default_q(self, accel_noise_std: float = 0.18, grade_rate_std: float = 0.012) -> np.ndarray:
        """A reasonable process-noise covariance.

        ``accel_noise_std`` propagates accelerometer white noise into the
        velocity prediction; ``grade_rate_std`` [rad/sqrt(s)] models the road
        gradient as a random walk in time (roads change slope over tens of
        metres).
        """
        q_v = (accel_noise_std * self.dt) ** 2
        q_theta = grade_rate_std**2 * self.dt
        return np.diag([q_v, q_theta])
