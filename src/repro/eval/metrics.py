"""Evaluation metrics matching the paper's Sec IV reporting.

* **absolute estimation error** — |estimate - ground truth| per position
  (the paper plots these in degrees);
* **MRE** (Mean Relative Error) — the mean absolute error normalized by the
  mean absolute true gradient: ``mean(|err|) / mean(|truth|)``. The paper
  reports 11.9 % / 20.3 % / 31.6 % for OPS / EKF / ANN on the red route;
* **CDF** of absolute errors, read at y = 0.5 (the paper's comparison
  point in Fig 8(b)/9(b));
* lane-change **detection accuracy** via interval matching.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EstimationError

__all__ = [
    "absolute_errors",
    "mean_absolute_error",
    "mean_relative_error",
    "root_mean_square_error",
    "error_cdf",
    "cdf_value_at",
    "DetectionScore",
    "score_lane_change_detection",
]


def absolute_errors(estimate: np.ndarray, truth: np.ndarray, degrees: bool = False) -> np.ndarray:
    """Per-position |estimate - truth| (radians, or degrees on request)."""
    estimate = np.asarray(estimate, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if estimate.shape != truth.shape:
        raise EstimationError("estimate and truth must share a shape")
    err = np.abs(estimate - truth)
    return np.degrees(err) if degrees else err


def mean_absolute_error(estimate: np.ndarray, truth: np.ndarray, degrees: bool = False) -> float:
    """Mean of :func:`absolute_errors`, ignoring NaNs."""
    return float(np.nanmean(absolute_errors(estimate, truth, degrees)))


def mean_relative_error(estimate: np.ndarray, truth: np.ndarray) -> float:
    """MRE = mean(|err|) / mean(|truth|).

    A ratio of means rather than a mean of ratios: road gradients cross
    zero, where per-sample relative errors diverge.
    """
    err = absolute_errors(estimate, truth)
    scale = float(np.nanmean(np.abs(truth)))
    if scale <= 0.0:
        raise EstimationError("MRE undefined on an everywhere-flat reference")
    return float(np.nanmean(err)) / scale


def root_mean_square_error(
    estimate: np.ndarray, truth: np.ndarray, degrees: bool = False
) -> float:
    """RMSE over positions, ignoring NaNs.

    The fault sweeps report RMSE rather than MAE because degraded
    inputs produce a few large excursions over an otherwise-fine profile —
    exactly the error shape a squared metric surfaces and a mean absolute
    error buries.
    """
    err = absolute_errors(estimate, truth, degrees)
    return float(np.sqrt(np.nanmean(err**2)))


def error_cdf(errors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of absolute errors: (sorted values, fractions)."""
    err = np.asarray(errors, dtype=float)
    err = err[np.isfinite(err)]
    if len(err) == 0:
        raise EstimationError("CDF of an empty error array")
    values = np.sort(err)
    fractions = np.arange(1, len(values) + 1) / len(values)
    return values, fractions


def cdf_value_at(errors: np.ndarray, fraction: float = 0.5) -> float:
    """Error value at a CDF fraction (fraction=0.5 -> median error)."""
    if not (0.0 < fraction <= 1.0):
        raise EstimationError("CDF fraction must be in (0, 1]")
    values, fractions = error_cdf(errors)
    return float(np.interp(fraction, fractions, values))


@dataclass(frozen=True)
class DetectionScore:
    """Lane-change detection accuracy from interval matching."""

    true_positives: int
    false_positives: int
    false_negatives: int
    direction_errors: int

    @property
    def precision(self) -> float:
        """TP / (TP + FP); 1.0 when nothing was detected and nothing existed."""
        denom = self.true_positives + self.false_positives
        return self.true_positives / denom if denom else 1.0

    @property
    def recall(self) -> float:
        """TP / (TP + FN)."""
        denom = self.true_positives + self.false_negatives
        return self.true_positives / denom if denom else 1.0

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall."""
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if (p + r) else 0.0


def score_lane_change_detection(
    detected: list[tuple[float, float, int]],
    truth: list[tuple[float, float, int]],
    tolerance_s: float = 3.0,
) -> DetectionScore:
    """Match detected (t_start, t_end, direction) events to ground truth.

    A detection matches a truth maneuver when their intervals, each padded
    by ``tolerance_s``, overlap; every truth maneuver matches at most one
    detection. Matches with the wrong direction still count as true
    positives but are tallied in ``direction_errors``.
    """
    remaining = list(range(len(truth)))
    tp = 0
    dir_err = 0
    for d_start, d_end, d_dir in detected:
        best = None
        for idx in remaining:
            t_start, t_end, _ = truth[idx]
            if d_start - tolerance_s <= t_end and d_end + tolerance_s >= t_start:
                best = idx
                break
        if best is not None:
            remaining.remove(best)
            tp += 1
            if truth[best][2] != d_dir:
                dir_err += 1
    fp = len(detected) - tp
    fn = len(remaining)
    return DetectionScore(
        true_positives=tp, false_positives=fp, false_negatives=fn, direction_errors=dir_err
    )
