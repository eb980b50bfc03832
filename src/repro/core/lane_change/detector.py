"""Lane-change detection: Algorithm 1 plus the S-curve displacement rule.

The detector pairs opposite-sign bumps in the steering-rate profile and
accepts the pair as a lane change only when the lateral (horizontal)
displacement over the maneuver,

    W = sum_i v_i * Omega * sin( sum_{j<=i} w_steer_j * Omega )      (Eq 1)

stays within ``3 * W_lane`` (W_lane = 3.65 m). S-shaped roads produce the
same bump signature — especially where GPS is out and road curvature leaks
into the steering rate — but sweep a far larger lateral displacement, so
the rule rejects them (Fig 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...config import SerializableConfig
from ...constants import (
    BUMP_THRESHOLD_COEFF,
    DELTA_MIN_RAD_S,
    LANE_CHANGE_DISPLACEMENT_FACTOR,
    LANE_WIDTH_M,
    T_MIN_S,
)
from ...errors import EstimationError
from ...obs.telemetry import NULL_TELEMETRY, Telemetry
from ...sensors.alignment import AlignedSteering
from .bumps import Bump, find_bumps
from .features import LaneChangeThresholds
from .smoothing import loess_smooth

__all__ = ["LaneChangeEvent", "LaneChangeDetectorConfig", "LaneChangeDetector", "lateral_displacement"]

#: Paper Table I thresholds, used when no calibration is supplied.
PAPER_THRESHOLDS = LaneChangeThresholds(
    delta=DELTA_MIN_RAD_S, duration=T_MIN_S, threshold_coeff=BUMP_THRESHOLD_COEFF
)


@dataclass(frozen=True)
class LaneChangeEvent:
    """One detected lane change.

    ``direction`` is +1 for a left change, -1 for a right change;
    ``displacement`` is the Eq 1 lateral displacement [m]; index bounds
    refer to the steering-rate profile arrays.
    """

    t_start: float
    t_end: float
    direction: int
    displacement: float
    i_start: int
    i_end: int

    @property
    def duration(self) -> float:
        """Maneuver duration [s]."""
        return self.t_end - self.t_start


@dataclass(frozen=True)
class LaneChangeDetectorConfig(SerializableConfig):
    """Detector tuning.

    Attributes
    ----------
    thresholds:
        Bump gates (delta, T); defaults to the paper's Table I minima.
    smoothing_half_window:
        LOESS half window in samples (~0.5 s at 50 Hz).
    max_pair_gap_s:
        Maximum silence allowed between the two bumps of one maneuver;
        bumps further apart belong to separate steering actions.
    displacement_factor / lane_width:
        The ``W <= 3 * W_lane`` acceptance rule.
    """

    thresholds: LaneChangeThresholds = field(default_factory=lambda: PAPER_THRESHOLDS)
    smoothing_half_window: int = 25
    max_pair_gap_s: float = 3.0
    displacement_factor: float = LANE_CHANGE_DISPLACEMENT_FACTOR
    lane_width: float = LANE_WIDTH_M


def lateral_displacement(
    t: np.ndarray, w_steer: np.ndarray, v: np.ndarray, start: int, end: int
) -> float:
    """Eq 1 over profile indices [start, end)."""
    if not (0 <= start < end <= len(t)):
        raise EstimationError(f"bad displacement span [{start}, {end})")
    seg_t = t[start:end]
    seg_w = w_steer[start:end]
    seg_v = v[start:end]
    dt = np.diff(seg_t, prepend=seg_t[0])
    alpha = np.cumsum(seg_w * dt)
    return float(np.sum(seg_v * dt * np.sin(alpha)))


class LaneChangeDetector:
    """Algorithm 1 over a steering-rate profile."""

    def __init__(
        self,
        config: LaneChangeDetectorConfig | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.config = config or LaneChangeDetectorConfig()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY

    def smooth(self, w_steer: np.ndarray) -> np.ndarray:
        """The LOESS-smoothed steering-rate profile the detector scans."""
        return loess_smooth(w_steer, self.config.smoothing_half_window)

    def detect(
        self,
        t: np.ndarray,
        w_steer: np.ndarray,
        v: np.ndarray,
        presmoothed: bool = False,
    ) -> list[LaneChangeEvent]:
        """Detect lane changes in a trip's steering-rate profile.

        Parameters
        ----------
        t, w_steer:
            Steering-rate profile (uniform timebase).
        v:
            Vehicle speed on the same timebase (used by Eq 1).
        presmoothed:
            Skip the LOESS pass when the caller already smoothed the
            profile.
        """
        t = np.asarray(t, dtype=float)
        w = np.asarray(w_steer, dtype=float)
        v = np.asarray(v, dtype=float)
        if not (t.shape == w.shape == v.shape):
            raise EstimationError("t, w_steer and v must share one shape")
        if not presmoothed:
            w = self.smooth(w)

        bumps = find_bumps(t, w, self.config.thresholds)
        self.telemetry.count("lane_change.bumps", len(bumps))
        events = self._run_state_machine(t, w, v, bumps)
        self.telemetry.count("lane_changes_detected", len(events))
        return events

    def detect_aligned(self, aligned: AlignedSteering) -> list[LaneChangeEvent]:
        """Detect lane changes directly from an alignment output."""
        return self.detect(aligned.t, aligned.w_steer, aligned.v)

    # -- Algorithm 1 ---------------------------------------------------------

    def _run_state_machine(
        self,
        t: np.ndarray,
        w: np.ndarray,
        v: np.ndarray,
        bumps: list[Bump],
    ) -> list[LaneChangeEvent]:
        cfg = self.config
        events: list[LaneChangeEvent] = []
        stored: Bump | None = None  # STATE is "one-bump" whenever stored is set

        for bump in bumps:
            if stored is None:
                stored = bump
                continue
            gap = bump.t_start - stored.t_end
            if gap > cfg.max_pair_gap_s:
                # Too far apart to be one maneuver; restart from this bump.
                stored = bump
                continue
            if bump.sign == stored.sign:
                # Same sign: Algorithm 1 "do nothing and continue"; keep the
                # fresher bump as the candidate first lobe.
                stored = bump
                continue
            # Opposite signs: apply the Eq 1 displacement rule.
            displacement = lateral_displacement(t, w, v, stored.start, bump.end)
            self.telemetry.observe("lane_change.displacement_abs", abs(displacement))
            if abs(displacement) <= cfg.displacement_factor * cfg.lane_width:
                direction = +1 if stored.sign > 0 else -1
                events.append(
                    LaneChangeEvent(
                        t_start=stored.t_start,
                        t_end=bump.t_end,
                        direction=direction,
                        displacement=displacement,
                        i_start=stored.start,
                        i_end=bump.end,
                    )
                )
                stored = None  # STATE back to "no-bump"
            else:
                # S-shaped road: reject the pair; the trailing lobe becomes
                # the new candidate so a genuine maneuver right after an
                # S-curve is still catchable.
                self.telemetry.count("lane_change.s_curve_rejections")
                stored = bump
        return events
