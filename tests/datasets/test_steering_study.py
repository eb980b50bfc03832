"""Synthetic steering study tests (Table I calibration)."""

import numpy as np
import pytest

from repro.datasets.steering_study import (
    DEFAULT_THRESHOLDS,
    SteeringStudyConfig,
    calibrated_thresholds,
    maneuver_profile,
    run_steering_study,
)
from repro.errors import ConfigurationError
from repro.vehicle.driver import DriverProfile

FAST = SteeringStudyConfig(n_drivers=3, speeds_kmh=(25.0, 45.0), repetitions=1, seed=2)


@pytest.fixture(scope="module")
def study():
    return run_steering_study(FAST)


class TestManeuverProfile:
    def test_shapes(self):
        t, raw, smooth = maneuver_profile(DriverProfile(), 11.0, +1)
        assert t.shape == raw.shape == smooth.shape

    def test_left_change_positive_first(self):
        t, _, smooth = maneuver_profile(
            DriverProfile(), 11.0, +1, rng=np.random.default_rng(1)
        )
        # The positive lobe precedes the negative lobe.
        assert np.argmax(smooth) < np.argmin(smooth)

    def test_smoothing_reduces_noise(self):
        _, raw, smooth = maneuver_profile(
            DriverProfile(), 11.0, +1, rng=np.random.default_rng(1)
        )
        assert np.std(np.diff(smooth)) < np.std(np.diff(raw))


class TestStudy:
    def test_driver_count(self, study):
        assert len(study.drivers) == 3

    def test_thresholds_plausible(self, study):
        th = study.thresholds
        # Same order of magnitude as the paper's Table I minima
        # (delta = 0.1167 rad/s, T = 1.383 s).
        assert 0.01 < th.delta < 0.4
        assert 0.3 < th.duration < 3.0

    def test_table_has_all_cells(self, study):
        rows = study.table_rows
        for key in ("delta_L+", "delta_R-", "T_L-", "T_R+", "delta_min", "T_min"):
            assert key in rows

    def test_minima_consistent(self, study):
        rows = study.table_rows
        deltas = [rows[k] for k in ("delta_L+", "delta_L-", "delta_R+", "delta_R-")]
        assert rows["delta_min"] == pytest.approx(min(deltas))

    def test_deterministic(self):
        a = run_steering_study(FAST)
        b = run_steering_study(FAST)
        assert a.thresholds.delta == b.thresholds.delta
        assert a.thresholds.duration == b.thresholds.duration

    def test_slow_maneuvers_are_sharper(self, study):
        """Physical check: lower speed forces higher steering rates."""
        slow_cfg = SteeringStudyConfig(
            n_drivers=2, speeds_kmh=(15.0,), repetitions=1, seed=2
        )
        fast_cfg = SteeringStudyConfig(
            n_drivers=2, speeds_kmh=(65.0,), repetitions=1, seed=2
        )
        slow = run_steering_study(slow_cfg).thresholds.delta
        fast = run_steering_study(fast_cfg).thresholds.delta
        assert slow > fast

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SteeringStudyConfig(n_drivers=0)
        with pytest.raises(ConfigurationError):
            SteeringStudyConfig(speeds_kmh=())


class TestCache:
    def test_calibrated_thresholds_cached(self):
        a = calibrated_thresholds(FAST)
        b = calibrated_thresholds(FAST)
        assert a is b

    def test_default_thresholds_match_fresh_study(self):
        """The pinned default is what the study computes on this host."""

        def cells(th):
            return {
                "delta": th.delta,
                "duration": th.duration,
                "threshold_coeff": th.threshold_coeff,
                **th.table,
            }

        got = cells(run_steering_study(SteeringStudyConfig()).thresholds)
        pinned = cells(DEFAULT_THRESHOLDS)
        fresh_lines = "\n".join(f"    {k!r}: {v!r}," for k, v in got.items())
        assert got.keys() == pinned.keys()
        for key, value in got.items():
            assert value == pytest.approx(pinned[key], rel=1e-12), (
                f"{key}: fresh study gives {value!r}, DEFAULT_THRESHOLDS pins "
                f"{pinned[key]!r}. If the study changed on purpose, copy these "
                f"fresh values into DEFAULT_THRESHOLDS in "
                f"src/repro/datasets/steering_study.py:\n{fresh_lines}"
            )
