"""The 10-driver steering study (paper Sec III-B1, Fig 3/4, Table I).

The paper calibrated its lane-change detector by having ten drivers perform
left and right lane changes at 15-65 km/h while a phone recorded steering
rates; bump features were extracted from the (LOESS-smoothed) profiles and
the per-category minima became the detection thresholds (Table I).

This module reproduces that study synthetically: each cohort driver's
maneuver style (duration, asymmetry, hold) drives the lane-change kinematics
of :mod:`repro.vehicle.lateral`; the gyroscope noise model corrupts the
steering-rate truth; features come out of the identical extraction code the
detector uses. Everything is deterministic given the config seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import KMH, PHONE_SAMPLE_RATE_HZ
from ..core.lane_change.features import (
    LaneChangeThresholds,
    ManeuverFeatures,
    calibrate_thresholds,
    maneuver_features,
)
from ..core.lane_change.smoothing import loess_smooth
from ..errors import ConfigurationError
from ..sensors.imu import Gyroscope
from ..vehicle.driver import DriverProfile, make_driver_cohort
from ..vehicle.lateral import plan_lane_change

__all__ = [
    "SteeringStudyConfig",
    "DriverManeuvers",
    "SteeringStudyResult",
    "run_steering_study",
    "calibrated_thresholds",
    "maneuver_profile",
]


@dataclass(frozen=True)
class SteeringStudyConfig:
    """Study design: cohort size, speed range, repetitions."""

    n_drivers: int = 10
    speeds_kmh: tuple[float, ...] = (15.0, 25.0, 35.0, 45.0, 55.0, 65.0)
    repetitions: int = 3
    sample_rate: float = PHONE_SAMPLE_RATE_HZ
    smoothing_half_window: int = 25
    pad_s: float = 1.5
    threshold_coeff: float = 0.7
    seed: int = 11

    def __post_init__(self) -> None:
        if self.n_drivers < 1 or self.repetitions < 1:
            raise ConfigurationError("study needs at least one driver and repetition")
        if not self.speeds_kmh:
            raise ConfigurationError("study needs at least one test speed")


@dataclass
class DriverManeuvers:
    """One driver's averaged maneuver features per direction."""

    driver: str
    left: ManeuverFeatures
    right: ManeuverFeatures


@dataclass
class SteeringStudyResult:
    """The whole study: per-driver features and the Table I calibration."""

    drivers: list[DriverManeuvers]
    thresholds: LaneChangeThresholds
    config: SteeringStudyConfig

    @property
    def table_rows(self) -> dict:
        """The eight Table I cells plus the two minima."""
        table = dict(self.thresholds.table or {})
        table["delta_min"] = self.thresholds.delta
        table["T_min"] = self.thresholds.duration
        return table


def maneuver_profile(
    driver: DriverProfile,
    v: float,
    direction: int,
    sample_rate: float = PHONE_SAMPLE_RATE_HZ,
    pad_s: float = 1.5,
    smoothing_half_window: int = 25,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One measured lane-change steering profile: (t, raw, smoothed).

    The maneuver is executed on a straight road (``w_road = 0``), so the
    gyro reads the steering rate directly; the raw profile carries gyro
    noise plus the driver's road-roughness jitter, and the smoothed profile
    is what the paper's Fig 4 shows.
    """
    rng = rng or np.random.default_rng(0)
    maneuver = plan_lane_change(
        v=v,
        direction=direction,
        duration=driver.lane_change_duration * float(rng.uniform(0.9, 1.1)),
        asymmetry=driver.lane_change_asymmetry * float(rng.uniform(0.92, 1.08)),
        hold_fraction=float(rng.uniform(0.22, 0.38)),
    )
    dt = 1.0 / sample_rate
    t = np.arange(-pad_s, maneuver.duration + pad_s, dt)
    w_true = maneuver.steering_rate(t)
    w_true = w_true + rng.normal(0.0, driver.steering_noise_std, len(t))

    # Reuse the gyroscope noise model directly on the steering-rate series.
    gyro = Gyroscope()
    w_raw = gyro.noise.apply(w_true, dt, rng)
    w_smooth = loess_smooth(w_raw, smoothing_half_window)
    return t, w_raw, w_smooth


def run_steering_study(config: SteeringStudyConfig | None = None) -> SteeringStudyResult:
    """Run the full synthetic steering study and calibrate Table I."""
    cfg = config or SteeringStudyConfig()
    cohort = make_driver_cohort(cfg.n_drivers, seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed + 1)

    drivers: list[DriverManeuvers] = []
    for driver in cohort:
        per_direction: dict[int, ManeuverFeatures] = {}
        for direction in (+1, -1):
            features: list[ManeuverFeatures] = []
            for v_kmh in cfg.speeds_kmh:
                for _ in range(cfg.repetitions):
                    t, _, w_smooth = maneuver_profile(
                        driver,
                        v=v_kmh * KMH,
                        direction=direction,
                        sample_rate=cfg.sample_rate,
                        pad_s=cfg.pad_s,
                        smoothing_half_window=cfg.smoothing_half_window,
                        rng=rng,
                    )
                    features.append(
                        maneuver_features(t, w_smooth, direction, cfg.threshold_coeff)
                    )
            per_direction[direction] = _average_features(features, direction)
        drivers.append(
            DriverManeuvers(driver=driver.name, left=per_direction[+1], right=per_direction[-1])
        )

    thresholds = calibrate_thresholds(
        [d.left for d in drivers], [d.right for d in drivers],
        threshold_coeff=cfg.threshold_coeff,
    )
    return SteeringStudyResult(drivers=drivers, thresholds=thresholds, config=cfg)


def _average_features(features: list[ManeuverFeatures], direction: int) -> ManeuverFeatures:
    """Average maneuver features across a driver's repetitions."""
    from ..core.lane_change.features import BumpFeatures

    def avg_bump(selector) -> BumpFeatures:
        bumps = [selector(m) for m in features]
        return BumpFeatures(
            delta=float(np.mean([b.delta for b in bumps])),
            duration=float(np.mean([b.duration for b in bumps])),
            sign=bumps[0].sign,
            t_peak=float(np.mean([b.t_peak for b in bumps])),
        )

    return ManeuverFeatures(
        direction=direction,
        first=avg_bump(lambda m: m.first),
        second=avg_bump(lambda m: m.second),
    )


#: ``run_steering_study(SteeringStudyConfig()).thresholds``, pinned so a
#: process need not re-run the ~1 s study before its first estimate. Every
#: float is its ``repr``, so the values round-trip exactly;
#: ``tests/datasets/test_steering_study.py`` re-runs the study against it.
DEFAULT_THRESHOLDS = LaneChangeThresholds(
    delta=0.0560499694959212,
    duration=0.7144444444444451,
    threshold_coeff=0.7,
    table={
        "delta_L+": 0.07033859270009718,
        "delta_L-": 0.06063334653670813,
        "delta_R+": 0.0560499694959212,
        "delta_R-": 0.06557631366726945,
        "T_L+": 0.7400000000000007,
        "T_L-": 0.8766666666666674,
        "T_R+": 0.8600000000000008,
        "T_R-": 0.7144444444444451,
    },
)

_THRESHOLD_CACHE: dict[SteeringStudyConfig, LaneChangeThresholds] = {
    SteeringStudyConfig(): DEFAULT_THRESHOLDS,
}


def calibrated_thresholds(config: SteeringStudyConfig | None = None) -> LaneChangeThresholds:
    """Thresholds calibrated from the synthetic study (cached per config).

    This is the analogue of using the paper's Table I values with the
    paper's own hardware: every evaluation in this repository detects lane
    changes with thresholds derived from the same maneuver model that
    generates them. The default config returns the pinned
    :data:`DEFAULT_THRESHOLDS` without running the study; any other config
    runs :func:`run_steering_study` once per process.
    """
    cfg = config or SteeringStudyConfig()
    if cfg not in _THRESHOLD_CACHE:
        _THRESHOLD_CACHE[cfg] = run_steering_study(cfg).thresholds
    return _THRESHOLD_CACHE[cfg]
