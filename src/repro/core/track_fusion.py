"""Track fusion: the basic convex combination algorithm (paper Eq 6).

Given N gradient tracks with EKF error covariances ``P_k``, the fused
estimate at each position is

    theta_bar = U * sum_k P_k^{-1} theta_k,    U = (sum_k P_k^{-1})^{-1}

— an inverse-variance weighted mean. The paper chooses this fusion rule
because its tracks are sensor tracks with no cross-covariance (Sec III-C3);
the same routine fuses velocity-source tracks inside one phone and
gradient profiles uploaded by different vehicles in the cloud.
"""

from __future__ import annotations

import numpy as np

from ..errors import FusionError
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from .track import GradientTrack

__all__ = ["fuse_tracks", "convex_combination"]


def convex_combination(
    thetas: np.ndarray, variances: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Eq 6 applied column-wise.

    Parameters
    ----------
    thetas:
        (N, M) array: N tracks on a common grid of M positions.
    variances:
        (N, M) matching error variances ``P_k``; non-finite entries mark
        positions a track does not cover and are excluded.

    Returns
    -------
    (theta_bar, variance_bar):
        Fused gradient and fused variance ``U`` per position.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    variances = np.atleast_2d(np.asarray(variances, dtype=float))
    if thetas.shape != variances.shape:
        raise FusionError("thetas and variances must have identical shapes")
    if thetas.shape[0] == 0:
        raise FusionError("need at least one track to fuse")

    ok = np.isfinite(thetas) & np.isfinite(variances) & (variances > 0.0)
    weights = np.where(ok, 1.0 / np.where(ok, variances, 1.0), 0.0)
    total_w = np.sum(weights, axis=0)
    if np.any(total_w <= 0.0):
        raise FusionError("some positions are covered by no track")
    theta_bar = np.sum(weights * np.where(ok, thetas, 0.0), axis=0) / total_w
    return theta_bar, 1.0 / total_w


def fuse_tracks(
    tracks: list[GradientTrack],
    s_grid: np.ndarray,
    name: str = "fused",
    telemetry: Telemetry | None = None,
) -> GradientTrack:
    """Fuse several gradient tracks onto a common position grid.

    Each track is resampled onto ``s_grid`` (inverse-variance binning) and
    the convex combination is applied per grid point. The fused track's
    timebase is taken from the first track's coverage of the grid.
    """
    if not tracks:
        raise FusionError("fuse_tracks needs at least one track")
    s_grid = np.asarray(s_grid, dtype=float)

    thetas = np.empty((len(tracks), len(s_grid)))
    variances = np.empty_like(thetas)
    for i, track in enumerate(tracks):
        thetas[i], variances[i] = track.resample(s_grid)

    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    if tel.active:
        ok = np.isfinite(thetas) & np.isfinite(variances) & (variances > 0.0)
        tel.count("fusion_tracks_in", len(tracks))
        tel.count("fusion.grid_points", len(s_grid))
        tel.count("fusion.uncovered_cells", int(ok.size - np.count_nonzero(ok)))

    theta_bar, var_bar = convex_combination(thetas, variances)

    first = tracks[0]
    order = np.argsort(first.s)
    t_grid = np.interp(s_grid, first.s[order], first.t[order])
    v_grid = np.interp(s_grid, first.s[order], first.v[order])
    return GradientTrack(
        name=name,
        t=t_grid,
        s=s_grid.copy(),
        theta=theta_bar,
        variance=var_bar,
        v=v_grid,
        meta={"sources": [track.name for track in tracks]},
    )
