"""Generic EKF tests."""

import numpy as np
import pytest

from repro.errors import EstimationError

from .generic_ekf import EKFModel, ExtendedKalmanFilter


def linear_model(q=1e-4, r=0.04):
    """1-D constant-value model: x' = x, z = x."""
    return EKFModel(
        f=lambda x, u: x,
        f_jacobian=lambda x, u: np.array([[1.0]]),
        h=lambda x: x,
        h_jacobian=lambda x: np.array([[1.0]]),
        q=np.array([[q]]),
        r=np.array([[r]]),
    )


class TestLinearCase:
    def test_converges_to_constant(self, rng):
        ekf = ExtendedKalmanFilter(linear_model(), np.array([0.0]), np.array([[10.0]]))
        truth = 3.0
        for _ in range(500):
            ekf.step(truth + rng.normal(0.0, 0.2))
        assert ekf.x[0] == pytest.approx(truth, abs=0.1)

    def test_variance_shrinks(self, rng):
        ekf = ExtendedKalmanFilter(linear_model(), np.array([0.0]), np.array([[10.0]]))
        for _ in range(200):
            ekf.step(1.0 + rng.normal(0.0, 0.2))
        assert ekf.variance_of(0) < 0.01

    def test_matches_scalar_kalman_closed_form(self):
        """With Q=0 the posterior variance follows 1/p = 1/p0 + n/r."""
        r = 0.04
        ekf = ExtendedKalmanFilter(
            linear_model(q=0.0, r=r), np.array([0.0]), np.array([[1.0]])
        )
        n = 25
        for _ in range(n):
            ekf.step(1.0)
        expected = 1.0 / (1.0 / 1.0 + n / r)
        assert ekf.variance_of(0) == pytest.approx(expected, rel=1e-9)

    def test_predict_only_grows_variance(self):
        ekf = ExtendedKalmanFilter(linear_model(q=0.1), np.array([0.0]), np.array([[1.0]]))
        ekf.step(None)
        assert ekf.variance_of(0) == pytest.approx(1.1)

    def test_update_returns_innovation(self):
        ekf = ExtendedKalmanFilter(linear_model(), np.array([2.0]), np.array([[1.0]]))
        inno = ekf.update(5.0)
        assert inno[0] == pytest.approx(3.0)


class TestNonlinear:
    def test_tracks_nonlinear_measurement(self, rng):
        # x constant, z = x^2 measured; start near the true value.
        model = EKFModel(
            f=lambda x, u: x,
            f_jacobian=lambda x, u: np.array([[1.0]]),
            h=lambda x: np.array([x[0] ** 2]),
            h_jacobian=lambda x: np.array([[2.0 * x[0]]]),
            q=np.array([[1e-6]]),
            r=np.array([[0.01]]),
        )
        ekf = ExtendedKalmanFilter(model, np.array([1.5]), np.array([[0.5]]))
        for _ in range(300):
            ekf.step(4.0 + rng.normal(0.0, 0.1))
        assert ekf.x[0] == pytest.approx(2.0, abs=0.05)

    def test_control_input_forwarded(self):
        captured = []
        model = EKFModel(
            f=lambda x, u: x + (u if u is not None else 0.0),
            f_jacobian=lambda x, u: (captured.append(u), np.array([[1.0]]))[1],
            h=lambda x: x,
            h_jacobian=lambda x: np.array([[1.0]]),
            q=np.zeros((1, 1)),
            r=np.array([[1.0]]),
        )
        ekf = ExtendedKalmanFilter(model, np.array([0.0]), np.array([[1.0]]))
        ekf.predict(np.array([0.5]))
        assert captured[-1][0] == 0.5
        assert ekf.x[0] == pytest.approx(0.5)


class TestNumerics:
    def test_covariance_stays_symmetric_psd(self, rng):
        ekf = ExtendedKalmanFilter(
            linear_model(q=1e-6, r=1e-4), np.array([0.0]), np.array([[100.0]])
        )
        for _ in range(5000):
            ekf.step(rng.normal())
        p = ekf.covariance
        assert np.allclose(p, p.T)
        assert np.all(np.linalg.eigvalsh(p) >= 0.0)

    def test_callable_q_and_r(self):
        model = EKFModel(
            f=lambda x, u: x,
            f_jacobian=lambda x, u: np.array([[1.0]]),
            h=lambda x: x,
            h_jacobian=lambda x: np.array([[1.0]]),
            q=lambda x, u: np.array([[0.5]]),
            r=lambda x: np.array([[1.0]]),
        )
        ekf = ExtendedKalmanFilter(model, np.array([0.0]), np.array([[1.0]]))
        ekf.predict()
        assert ekf.variance_of(0) == pytest.approx(1.5)

    def test_bad_p0_shape(self):
        with pytest.raises(EstimationError):
            ExtendedKalmanFilter(linear_model(), np.zeros(1), np.zeros((2, 2)))

    def test_state_and_covariance_are_copies(self):
        ekf = ExtendedKalmanFilter(linear_model(), np.array([1.0]), np.array([[1.0]]))
        ekf.state[0] = 99.0
        ekf.covariance[0, 0] = 99.0
        assert ekf.x[0] == 1.0
        assert ekf.p[0, 0] == 1.0
