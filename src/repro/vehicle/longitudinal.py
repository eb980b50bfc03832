"""Longitudinal vehicle dynamics — the forward form of the paper's Eq 3.

Eq 3 solves the driving equation for the road gradient:

    theta = arcsin( M/(r m g) - rho A_f C_d v^2 / (2 m g) - a/g ) - beta

Rearranged, the force balance the simulator integrates is

    m a = F_traction - (1/2) rho A_f C_d v^2 - m g sin(theta + beta)

where ``F_traction = M / r`` and ``beta = arcsin(mu / sqrt(1 + mu^2))``
lumps rolling resistance into the gravity term exactly as the paper does.
:func:`acceleration` gives ``a`` from the forces and
:func:`required_traction_force` the traction that holds a given ``a``; the
simulator uses both.
"""

from __future__ import annotations

import math

import numpy as np

from .params import VehicleParams

__all__ = [
    "aero_drag_force",
    "grade_resistance_force",
    "acceleration",
    "required_traction_force",
]


def aero_drag_force(params: VehicleParams, v: float | np.ndarray):
    """Aerodynamic drag ``(1/2) rho A_f C_d v^2`` [N] (opposes motion)."""
    if isinstance(v, float):
        # Scalar fast path for the per-tick simulator loop; ``v * v`` and
        # ``np.square`` are the same IEEE multiply, bit for bit.
        return 0.5 * params.drag_term * (v * v)
    v = np.asarray(v, dtype=float) if not np.isscalar(v) else v
    return 0.5 * params.drag_term * np.square(v)


def grade_resistance_force(params: VehicleParams, grade: float | np.ndarray):
    """Combined grade + rolling resistance ``m g sin(theta + beta)`` [N]."""
    if isinstance(grade, float):
        # math.sin and np.sin resolve to the same libm call on float64.
        return params.weight * math.sin(grade + params.beta)
    return params.weight * np.sin(np.asarray(grade, dtype=float) + params.beta)


def acceleration(
    params: VehicleParams,
    traction_force: float | np.ndarray,
    v: float | np.ndarray,
    grade: float | np.ndarray,
):
    """Longitudinal acceleration [m/s^2] from the force balance."""
    if (
        isinstance(traction_force, float)
        and isinstance(v, float)
        and isinstance(grade, float)
    ):
        return (
            traction_force
            - aero_drag_force(params, v)
            - grade_resistance_force(params, grade)
        ) / params.mass
    f_net = (
        np.asarray(traction_force, dtype=float)
        - aero_drag_force(params, v)
        - grade_resistance_force(params, grade)
    )
    return f_net / params.mass


def required_traction_force(
    params: VehicleParams,
    a: float | np.ndarray,
    v: float | np.ndarray,
    grade: float | np.ndarray,
):
    """Traction force [N] needed to hold acceleration ``a`` at (v, grade)."""
    if isinstance(a, float) and isinstance(v, float) and isinstance(grade, float):
        return (
            params.mass * a
            + aero_drag_force(params, v)
            + grade_resistance_force(params, grade)
        )
    return (
        params.mass * np.asarray(a, dtype=float)
        + aero_drag_force(params, v)
        + grade_resistance_force(params, grade)
    )

