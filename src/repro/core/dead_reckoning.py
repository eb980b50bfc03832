"""Dead reckoning through GPS outages: heading/along-track ES-EKF + mode knobs.

While GPS is healthy the streaming estimator never needs to know *where*
it is — velocity updates keep the ``[v, theta]`` filter honest. Through a
tunnel or urban canyon that changes: to fuse a prior grade map
(:class:`~repro.roads.prior_map.PriorGradeMap`) the filter must track its
along-track distance, and to keep that tracking honest through curves it
needs a heading. :class:`DeadReckoner` is the smallest filter that does
both — an error-state EKF in the classical strapdown style (cf. the
ES-EKF exemplars in SNIPPETS.md): the *nominal* state ``(s, psi)``
integrates wheel/filter speed and gyro yaw rate directly, while a 2x2
covariance over the error state ``[delta_s, delta_psi]`` grows with the
configured drift rates and shrinks at each road-heading match.

The heading match is the ES-EKF measurement: on a mapped road the vehicle
heading should equal the road heading at the true arc length, so the
innovation ``psi - psi_road(s)`` observes ``delta_psi - kappa * delta_s``
(``kappa`` = local curvature, errors estimate-minus-truth). Around curves
this makes along-track error
observable — exactly why dead reckoning needs the heading augmentation —
while on straights it still bounds heading drift.

:class:`GPSDeniedConfig` gathers every knob of the GPS-denied operating
mode (the streaming mode state machine, hysteresis thresholds,
reacquisition policy, dead-reckoning and prior-map toggles) as one
serializable dataclass reachable from
:class:`~repro.core.pipeline.GradientSystemConfig` and
:class:`~repro.eval.runner.RunnerConfig`. The default is **disabled**, and
every consumer gates on that, so the clean path stays bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..config import SerializableConfig
from ..errors import ConfigurationError, EstimationError
from ..roads.prior_map import PriorMapConfig

__all__ = ["DeadReckoner", "DeadReckoningConfig", "GPSDeniedConfig"]


def _wrap(angle: float) -> float:
    """Wrap a scalar angle to (-pi, pi] without array overhead."""
    return math.atan2(math.sin(angle), math.cos(angle))


@dataclass(frozen=True)
class DeadReckoningConfig(SerializableConfig):
    """Drift and matching rates of the dead reckoner.

    ``position_rate_std`` [m/sqrt(s)] and ``heading_rate_std``
    [rad/sqrt(s)] set how fast the error covariance grows per second of
    outage; ``heading_match_std`` [rad] is the measurement noise of one
    road-heading match; ``match_interval_ticks`` spaces the matches so the
    correlated road-geometry error is not fused as if independent every
    tick.
    """

    position_rate_std: float = 0.5
    heading_rate_std: float = 0.02
    heading_match_std: float = 0.08
    match_interval_ticks: int = 25

    def __post_init__(self) -> None:
        for name in ("position_rate_std", "heading_rate_std", "heading_match_std"):
            value = getattr(self, name)
            if value <= 0.0 or not np.isfinite(value):
                raise ConfigurationError(
                    f"{name} must be finite and > 0, got {value}"
                )
        if self.match_interval_ticks < 1:
            raise ConfigurationError(
                f"match_interval_ticks must be >= 1, got {self.match_interval_ticks}"
            )


class DeadReckoner:
    """Error-state EKF over ``[delta_s, delta_psi]`` with a direct nominal.

    The nominal along-track distance ``s`` and heading ``psi`` integrate
    the caller-provided speed and gyro yaw rate each tick
    (:meth:`predict`); :meth:`match_road` fuses one road-heading
    measurement and folds the estimated error straight back into the
    nominal (the ES-EKF reset), so the error state itself is always zero
    between updates and only its covariance is stored.
    """

    __slots__ = (
        "dt", "q_s", "q_psi", "r_match",
        "s", "psi", "p_ss", "p_sp", "p_pp", "matches",
    )

    def __init__(
        self,
        dt: float,
        config: DeadReckoningConfig | None = None,
        s0: float = 0.0,
        psi0: float = 0.0,
    ) -> None:
        if dt <= 0.0:
            raise EstimationError("dt must be positive")
        cfg = config or DeadReckoningConfig()
        self.dt = float(dt)
        self.q_s = cfg.position_rate_std**2 * dt
        self.q_psi = cfg.heading_rate_std**2 * dt
        self.r_match = cfg.heading_match_std**2
        self.s = float(s0)
        self.psi = _wrap(float(psi0))
        self.p_ss = 0.0
        self.p_sp = 0.0
        self.p_pp = 0.0
        self.matches = 0

    @property
    def s_variance(self) -> float:
        """Along-track position error variance [m^2]."""
        return self.p_ss

    @property
    def psi_variance(self) -> float:
        """Heading error variance [rad^2]."""
        return self.p_pp

    def predict(self, v: float, gyro_z: float) -> None:
        """Advance one tick on speed [m/s] and gyro yaw rate [rad/s].

        A non-finite yaw rate (a NaN or saturated gyro sample) holds the
        heading for this tick.
        """
        dt = self.dt
        if not math.isfinite(gyro_z):
            gyro_z = 0.0
        self.s += v * dt
        self.psi = _wrap(self.psi + gyro_z * dt)
        # Error dynamics are identity to first order; only noise grows.
        self.p_ss += self.q_s
        self.p_pp += self.q_psi

    def match_road(self, road) -> float:
        """Fuse one road-heading match; returns the heading innovation [rad].

        ``road`` needs ``heading_at(s)`` and ``curvature_at(s)`` (any
        :class:`~repro.roads.profile.RoadProfile`). The measurement model:
        the vehicle heading equals the road heading at the *true* arc
        length, so with the error state ``[delta_s, delta_psi]`` defined
        estimate-minus-truth, ``psi - psi_road(s_est)`` observes
        ``delta_psi - kappa * delta_s`` — ``H = [-kappa, 1]``. Around
        curves (``kappa != 0``) this makes along-track error observable.
        """
        s_q = self.s
        kappa = float(road.curvature_at(s_q))
        psi_road = float(road.heading_at(s_q))
        y = _wrap(self.psi - psi_road)

        p_ss, p_sp, p_pp = self.p_ss, self.p_sp, self.p_pp
        # S = H P H^T + R with H = [-kappa, 1].
        s_inno = kappa * kappa * p_ss - 2.0 * kappa * p_sp + p_pp + self.r_match
        k_s = (-kappa * p_ss + p_sp) / s_inno
        k_p = (-kappa * p_sp + p_pp) / s_inno

        # ES-EKF reset: subtract the estimated error from the nominal state.
        self.s = s_q - k_s * y
        self.psi = _wrap(self.psi - k_p * y)

        # P = (I - K H) P, rows a=[1 + k_s*kappa, -k_s], b=[k_p*kappa, 1 - k_p].
        a1 = 1.0 + k_s * kappa
        b2 = 1.0 - k_p
        self.p_ss = a1 * p_ss - k_s * p_sp
        self.p_sp = a1 * p_sp - k_s * p_pp
        self.p_pp = k_p * kappa * p_sp + b2 * p_pp
        self.matches += 1
        return y


@dataclass(frozen=True)
class GPSDeniedConfig(SerializableConfig):
    """Every knob of the GPS-denied operating mode (default: disabled).

    Mode machine (ticks at the phone rate, GPS fixes ~1 Hz):

    * ``outage_enter_ticks`` dry ticks move ``nominal -> coasting``; the
      default of 150 (3 s at 50 Hz) sits well above the nominal 1 Hz
      inter-fix gap, so ordinary sparse fixes never trip it.
    * ``dead_reckoning_after_ticks`` dry ticks move ``coasting ->
      dead_reckoning`` (when ``use_dead_reckoning``), engaging the
      :class:`DeadReckoner` and — when ``use_prior_map`` and a map is
      available — prior-map gradient updates every
      ``map_update_interval_ticks``.
    * A fix with quality >= ``fix_quality_good`` moves any outage mode to
      ``reacquiring``, inflating the covariance once per outage episode by
      ``reacquire_inflation`` (the soft-reconvergence policy: the filter
      *admits* it drifted instead of rejecting the fresh fixes).
    * ``reacquire_good_ticks`` consecutive good fixes complete
      reacquisition (``-> nominal``); a new dry spell falls back to
      ``coasting``. Fixes at or below ``fix_quality_bad`` are never fused
      while in an outage episode — multipath protection — and the
      ``good``/``bad`` split is the hysteresis that keeps marginal fixes
      from flapping the mode.
    """

    enabled: bool = False
    outage_enter_ticks: int = 150
    dead_reckoning_after_ticks: int = 300
    reacquire_good_ticks: int = 5
    fix_quality_good: float = 0.75
    fix_quality_bad: float = 0.25
    reacquire_inflation: float = 25.0
    use_dead_reckoning: bool = True
    use_prior_map: bool = True
    map_update_interval_ticks: int = 25
    dead_reckoning: DeadReckoningConfig = field(default_factory=DeadReckoningConfig)
    prior_map: PriorMapConfig | None = None

    def __post_init__(self) -> None:
        if self.outage_enter_ticks < 1:
            raise ConfigurationError(
                f"outage_enter_ticks must be >= 1, got {self.outage_enter_ticks}"
            )
        if self.dead_reckoning_after_ticks < self.outage_enter_ticks:
            raise ConfigurationError(
                "dead_reckoning_after_ticks must be >= outage_enter_ticks "
                f"({self.dead_reckoning_after_ticks} < {self.outage_enter_ticks})"
            )
        if self.reacquire_good_ticks < 1:
            raise ConfigurationError(
                f"reacquire_good_ticks must be >= 1, got {self.reacquire_good_ticks}"
            )
        if self.map_update_interval_ticks < 1:
            raise ConfigurationError(
                "map_update_interval_ticks must be >= 1, "
                f"got {self.map_update_interval_ticks}"
            )
        if not (0.0 <= self.fix_quality_bad < self.fix_quality_good <= 1.0):
            raise ConfigurationError(
                "fix quality thresholds need 0 <= bad < good <= 1, got "
                f"bad={self.fix_quality_bad}, good={self.fix_quality_good}"
            )
        if self.reacquire_inflation < 1.0 or not np.isfinite(self.reacquire_inflation):
            raise ConfigurationError(
                f"reacquire_inflation must be finite and >= 1, "
                f"got {self.reacquire_inflation}"
            )
