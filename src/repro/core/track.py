"""Gradient tracks: one estimator's theta-versus-position series.

A *track* (paper Sec III-C3) is the road-gradient estimate produced from
one velocity source (or one vehicle), with its EKF error variance attached.
Track fusion consumes several of these; evaluation resamples them onto the
reference grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import EstimationError

__all__ = ["GradientTrack", "readonly_view"]


def readonly_view(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``: shares its memory, leaves ``a`` writable.

    The EKF engines build a track's ``t`` and ``s`` this way, so a trip's
    tracks share one timebase and one arc-length array with their inputs,
    and a stray in-place write to one track raises instead of changing its
    siblings.
    """
    view = a.view()
    view.flags.writeable = False
    return view


@dataclass
class GradientTrack:
    """Theta estimates along a route with per-sample variance.

    Attributes
    ----------
    name:
        Which velocity source (or vehicle) produced the track.
    t:
        Time stamps [s].
    s:
        Estimated arc length along the route [m] (may be non-monotonic at
        noise level; resampling handles that).

        The EKF engines hand out ``t`` and ``s`` as read-only views
        (:func:`readonly_view`) shared with the trip's sibling tracks and
        with the caller's input arrays; copy them before writing.
    theta:
        Estimated road gradient [rad].
    variance:
        EKF marginal variance of theta [rad^2] — ``P_k`` in Eq 6.
    v:
        Estimated longitudinal velocity [m/s].
    """

    name: str
    t: np.ndarray
    s: np.ndarray
    theta: np.ndarray
    variance: np.ndarray
    v: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.t)
        for label in ("t", "s", "theta", "variance", "v"):
            arr = np.asarray(getattr(self, label), dtype=float)
            if arr.shape != (n,):
                raise EstimationError(f"track field {label!r} must have length {n}")
            setattr(self, label, arr)
        if n == 0:
            raise EstimationError("a gradient track cannot be empty")
        if np.any(self.variance < 0.0):
            raise EstimationError("track variances must be non-negative")

    def __len__(self) -> int:
        return len(self.t)

    def resample(self, s_grid: np.ndarray, bin_width: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(theta, variance) on a position grid.

        Samples are averaged into bins centred on the grid points
        (inverse-variance weighted); empty bins are filled by linear
        interpolation from neighbouring bins. Binning rather than direct
        interpolation is needed because ``s`` is an estimate and may jitter
        backwards locally.
        """
        s_grid = np.asarray(s_grid, dtype=float)
        if s_grid.ndim != 1 or len(s_grid) < 2:
            raise EstimationError("resample grid needs at least two points")
        width = bin_width if bin_width is not None else float(np.median(np.diff(s_grid)))
        if width <= 0.0:
            raise EstimationError("bin width must be positive")

        edges = np.concatenate([[s_grid[0] - width / 2.0], s_grid + width / 2.0])
        idx = np.digitize(self.s, edges) - 1
        ok = (idx >= 0) & (idx < len(s_grid)) & np.isfinite(self.theta)
        weights = 1.0 / np.maximum(self.variance[ok], 1e-12)
        sum_w = np.bincount(idx[ok], weights=weights, minlength=len(s_grid))
        sum_wt = np.bincount(idx[ok], weights=weights * self.theta[ok], minlength=len(s_grid))
        have = sum_w > 0.0

        theta = np.full(len(s_grid), np.nan)
        var = np.full(len(s_grid), np.nan)
        theta[have] = sum_wt[have] / sum_w[have]
        # Weighted-mean variance of the bin: 1 / sum of weights.
        var[have] = 1.0 / sum_w[have]

        if not np.any(have):
            raise EstimationError(f"track {self.name!r} does not overlap the grid")
        if not np.all(have):
            theta = _fill_nan(s_grid, theta)
            var = _fill_nan(s_grid, var)
        return theta, var

    def clipped(self, s_min: float, s_max: float) -> "GradientTrack":
        """Keep only samples with ``s_min <= s <= s_max``."""
        mask = (self.s >= s_min) & (self.s <= s_max)
        if not np.any(mask):
            raise EstimationError("clip range removes every sample")
        return GradientTrack(
            name=self.name,
            t=self.t[mask],
            s=self.s[mask],
            theta=self.theta[mask],
            variance=self.variance[mask],
            v=self.v[mask],
            meta=dict(self.meta),
        )


def _fill_nan(grid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Linear interpolation over NaN gaps (edge values extend outward)."""
    out = values.copy()
    bad = ~np.isfinite(out)
    out[bad] = np.interp(grid[bad], grid[~bad], out[~bad])
    return out
