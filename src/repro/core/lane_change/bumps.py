"""Bump segmentation in a full-trip steering-rate profile (Sec III-B2).

The detector scans the (smoothed) steering-rate profile for candidate
bumps: contiguous excursions whose peak magnitude reaches the calibrated
``delta`` and whose time above ``0.7 * peak`` reaches the calibrated ``T``.
Each accepted excursion becomes a :class:`Bump` handed to the Algorithm 1
state machine in :mod:`.detector`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...errors import EstimationError
from .features import LaneChangeThresholds

__all__ = ["Bump", "find_bumps"]


@dataclass(frozen=True)
class Bump:
    """One qualified steering-rate excursion.

    Index bounds are inclusive start / exclusive end on the profile arrays.
    """

    start: int
    end: int
    peak_index: int
    sign: int
    delta: float
    duration: float
    t_start: float
    t_end: float
    t_peak: float


def find_bumps(
    t: np.ndarray,
    w: np.ndarray,
    thresholds: LaneChangeThresholds,
) -> list[Bump]:
    """All bumps in a steering-rate profile satisfying the Table I gates.

    An excursion is a maximal run of samples with ``|w| >= 0.7 * delta_min``
    and constant sign; it qualifies as a bump when its peak reaches
    ``delta_min`` and its time above ``0.7 * its own peak`` reaches
    ``T_min`` — the two "necessary conditions" of Sec III-B1.
    """
    t = np.asarray(t, dtype=float)
    w = np.asarray(w, dtype=float)
    if t.shape != w.shape or t.ndim != 1:
        raise EstimationError("find_bumps expects matching 1-D arrays")
    if len(t) < 3:
        return []

    floor = thresholds.threshold_coeff * thresholds.delta
    hot = np.abs(w) >= floor
    # Label each sample 0 (cold) or sign(w) + 2 (hot, sign -1/0/+1); an
    # excursion is a maximal run of one nonzero label, and the label changes
    # exactly at the run edges.
    label = np.where(hot, np.sign(w) + 2.0, 0.0)
    edges = np.flatnonzero(np.diff(label, prepend=0.0, append=0.0))
    starts, ends = edges[:-1], edges[1:]
    # A run shorter than two samples never qualifies.
    keep = (label[starts] > 0.0) & (ends - starts >= 2)

    bumps: list[Bump] = []
    for i, j in zip(starts[keep].tolist(), ends[keep].tolist()):
        seg_w = w[i:j]
        seg_t = t[i:j]
        bump_sign = int(label[i]) - 2
        peak_rel = int(np.argmax(bump_sign * seg_w))
        delta = float(bump_sign * seg_w[peak_rel])
        if delta >= thresholds.delta:
            level = thresholds.threshold_coeff * delta
            above = bump_sign * seg_w >= level
            lo = peak_rel
            while lo > 0 and above[lo - 1]:
                lo -= 1
            hi = peak_rel
            while hi < len(above) - 1 and above[hi + 1]:
                hi += 1
            duration = float(seg_t[hi] - seg_t[lo])
            if duration >= thresholds.duration:
                bumps.append(
                    Bump(
                        start=i,
                        end=j,
                        peak_index=i + peak_rel,
                        sign=bump_sign,
                        delta=delta,
                        duration=duration,
                        t_start=float(seg_t[0]),
                        t_end=float(seg_t[-1]),
                        t_peak=float(seg_t[peak_rel]),
                    )
                )
    return bumps
