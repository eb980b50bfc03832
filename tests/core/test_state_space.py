"""Vehicle state-space model tests (Eqs 3-5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import GRAVITY
from repro.core import PROCESS_MODELS
from repro.errors import ConfigurationError
from repro.vehicle.params import DEFAULT_VEHICLE

from .generic_ekf import GradientStateSpace


def make_model(process="specific_force", dt=0.02):
    return GradientStateSpace(vehicle=DEFAULT_VEHICLE, dt=dt, process=process)


class TestValidation:
    def test_bad_dt(self):
        with pytest.raises(ConfigurationError):
            make_model(dt=0.0)

    def test_bad_process(self):
        with pytest.raises(ConfigurationError):
            make_model(process="kalman")

    def test_known_processes(self):
        assert set(PROCESS_MODELS) == {"specific_force", "paper"}


class TestProcessModels:
    def test_specific_force_subtracts_gravity(self):
        model = make_model("specific_force")
        theta = 0.05
        a_meas = GRAVITY * np.sin(theta)  # pure gravity reading, no motion
        x_next = model.f(np.array([10.0, theta]), np.array([a_meas]))
        assert x_next[0] == pytest.approx(10.0, abs=1e-9)

    def test_paper_uses_raw_acceleration(self):
        model = make_model("paper")
        x_next = model.f(np.array([10.0, 0.0]), np.array([1.0]))
        assert x_next[0] == pytest.approx(10.0 + 1.0 * model.dt)

    def test_velocity_floors_at_zero(self):
        model = make_model("paper")
        x_next = model.f(np.array([0.01, 0.0]), np.array([-10.0]))
        assert x_next[0] == 0.0

    def test_theta_clamped(self):
        model = make_model("paper")
        x_next = model.f(np.array([10.0, 10.0]), np.array([0.0]))
        assert abs(x_next[1]) <= np.pi / 3.0

    def test_drift_term_sign(self):
        # Eq 4: positive v * a drives theta upward.
        model = make_model("paper")
        x_next = model.f(np.array([20.0, 0.0]), np.array([2.0]))
        assert x_next[1] > 0.0

    def test_no_input_means_zero_accel(self):
        model = make_model("paper")
        x_next = model.f(np.array([10.0, 0.0]), None)
        assert x_next[0] == pytest.approx(10.0)


class TestJacobians:
    @given(
        st.floats(0.5, 30.0),
        st.floats(-0.3, 0.3),
        st.floats(-3.0, 3.0),
        st.sampled_from(PROCESS_MODELS),
    )
    @settings(max_examples=80, deadline=None)
    def test_jacobian_matches_finite_difference(self, v, theta, a, process):
        model = make_model(process)
        x = np.array([v, theta])
        u = np.array([a])
        jac = model.f_jacobian(x, u)
        eps = 1e-6
        for col in range(2):
            dx = np.zeros(2)
            dx[col] = eps
            fd = (model.f(x + dx, u) - model.f(x - dx, u)) / (2 * eps)
            # Skip rows affected by the v >= 0 / theta clamps.
            if model.f(x, u)[0] > 0.0 and abs(model.f(x, u)[1]) < np.pi / 3 - 1e-3:
                assert np.allclose(jac[:, col], fd, atol=1e-5)

    def test_measurement_model(self):
        x = np.array([12.3, 0.1])
        assert GradientStateSpace.h(x)[0] == 12.3
        assert GradientStateSpace.h_jacobian(x).tolist() == [[1.0, 0.0]]

    def test_default_q_positive_definite(self):
        q = make_model().default_q()
        assert np.all(np.linalg.eigvalsh(q) > 0.0)

    def test_specific_force_has_theta_coupling(self):
        """The velocity row must depend on theta (observability)."""
        jac = make_model("specific_force").f_jacobian(
            np.array([10.0, 0.0]), np.array([0.0])
        )
        assert jac[0, 1] == pytest.approx(-GRAVITY * make_model().dt)

    def test_paper_lacks_theta_coupling(self):
        jac = make_model("paper").f_jacobian(np.array([10.0, 0.0]), np.array([0.0]))
        assert jac[0, 1] == 0.0
