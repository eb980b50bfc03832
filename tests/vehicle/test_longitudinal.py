"""Longitudinal dynamics tests: the force balance and its traction inverse."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vehicle.longitudinal import (
    acceleration,
    aero_drag_force,
    grade_resistance_force,
    required_traction_force,
)
from repro.vehicle.params import DEFAULT_VEHICLE


class TestForces:
    def test_aero_quadratic(self):
        f10 = aero_drag_force(DEFAULT_VEHICLE, 10.0)
        f20 = aero_drag_force(DEFAULT_VEHICLE, 20.0)
        assert f20 == pytest.approx(4.0 * f10)

    def test_aero_magnitude_plausible(self):
        # A sedan at 100 km/h sees a few hundred newtons of drag.
        f = aero_drag_force(DEFAULT_VEHICLE, 27.8)
        assert 200.0 < f < 600.0

    def test_grade_force_sign(self):
        up = grade_resistance_force(DEFAULT_VEHICLE, math.radians(3.0))
        down = grade_resistance_force(DEFAULT_VEHICLE, math.radians(-3.0))
        assert up > 0.0
        # Downhill gravity can outweigh rolling resistance.
        assert down < 0.0

    def test_grade_force_flat_equals_rolling(self):
        flat = grade_resistance_force(DEFAULT_VEHICLE, 0.0)
        expected = DEFAULT_VEHICLE.weight * math.sin(DEFAULT_VEHICLE.beta)
        assert flat == pytest.approx(expected)


class TestForceBalance:
    def test_acceleration_zero_at_equilibrium(self):
        v, grade = 15.0, math.radians(2.0)
        force = required_traction_force(DEFAULT_VEHICLE, 0.0, v, grade)
        assert acceleration(DEFAULT_VEHICLE, force, v, grade) == pytest.approx(0.0)

    @given(
        st.floats(0.5, 35.0),
        st.floats(-3.0, 3.0),
        st.floats(-0.12, 0.12),
    )
    @settings(max_examples=100)
    def test_traction_force_inverts_acceleration(self, v, a, grade):
        """acceleration(required_traction_force(a, ...)) must return a."""
        force = required_traction_force(DEFAULT_VEHICLE, a, v, grade)
        recovered = acceleration(DEFAULT_VEHICLE, force, v, grade)
        assert math.isclose(recovered, a, abs_tol=1e-9)

    def test_vectorized_round_trip(self):
        v = np.array([5.0, 15.0, 25.0])
        a = np.array([0.5, -0.5, 0.0])
        grade = np.array([0.02, -0.03, 0.05])
        force = required_traction_force(DEFAULT_VEHICLE, a, v, grade)
        recovered = acceleration(DEFAULT_VEHICLE, force, v, grade)
        assert np.allclose(recovered, a, atol=1e-9)

    def test_uphill_needs_more_traction(self):
        flat = required_traction_force(DEFAULT_VEHICLE, 0.0, 15.0, 0.0)
        hill = required_traction_force(DEFAULT_VEHICLE, 0.0, 15.0, math.radians(4.0))
        assert hill > flat
