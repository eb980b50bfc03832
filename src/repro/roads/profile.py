"""Road profiles: everything the simulator and estimators need about a road.

A :class:`RoadProfile` maps arc length ``s`` (metres from the route start) to
planar position, elevation, road gradient, heading (relative to East) and
curvature, plus per-position lane counts and GPS availability. Profiles are
stored as dense samples on a uniform grid and interpolated linearly, which
keeps every query vectorized and fast.

Conventions (matching the paper):

* gradient ``theta`` is in radians; positive = uphill (Sec IV-A1);
* heading follows the East-angle convention of Sec III-A;
* ``w_road``, the road-direction change rate seen by a vehicle moving at
  speed ``v``, is ``curvature(s) * v``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import GeometryError, RouteError
from .geometry import GeoPoint, LocalFrame, Polyline

__all__ = ["RoadSection", "RoadProfile", "PointGrid"]


@dataclass(frozen=True)
class RoadSection:
    """A contiguous stretch of road with homogeneous description.

    Used to express Table III: grade sign and lane count per section of the
    paper's red route.
    """

    name: str
    s_start: float
    s_end: float
    lanes: int
    mean_grade: float

    @property
    def length(self) -> float:
        """Section length in metres."""
        return self.s_end - self.s_start

    @property
    def grade_sign(self) -> str:
        """``"+"`` for uphill sections, ``"-"`` for downhill (Table III)."""
        return "+" if self.mean_grade >= 0.0 else "-"


class PointGrid:
    """A bucket grid over a set of planar points, for radius queries.

    The points are binned into square cells of side ``cell`` [m]; only the
    occupied cells are stored, as sorted integer keys with CSR offsets into
    the point indices, so memory is O(points) whatever the bounding box.
    """

    def __init__(self, xy: np.ndarray, cell: float) -> None:
        xy = np.asarray(xy, dtype=float)
        self.n_points = len(xy)
        self.cell = float(cell)
        self.x0, self.y0 = (float(c) for c in xy.min(axis=0))
        ix = np.floor((xy[:, 0] - self.x0) / self.cell).astype(np.int64)
        iy = np.floor((xy[:, 1] - self.y0) / self.cell).astype(np.int64)
        self.n_x = int(ix.max()) + 1
        self.n_y = int(iy.max()) + 1
        point_keys = ix * self.n_y + iy
        #: Point indices grouped by cell, ascending within a cell.
        self.order = np.argsort(point_keys, kind="stable")
        self.keys, counts = np.unique(point_keys[self.order], return_counts=True)
        self.starts = np.concatenate(([0], np.cumsum(counts)))

    def pairs_near(
        self, x: np.ndarray, y: np.ndarray, radius: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Candidate ``(query, point)`` index pairs for a radius query.

        Every point within ``radius`` of query ``(x[i], y[i])`` is paired
        with ``i``, plus other points of the visited cells: all cells
        within ``ceil(radius / cell)`` of the query's cell, and one more
        ring as slack for rounding in the cell arithmetic. Non-finite
        queries get no pairs. The pairs come sorted by query, then by
        point index, in one vectorized pass over all queries.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        query = np.flatnonzero(np.isfinite(x) & np.isfinite(y))
        span = max(self.n_x, self.n_y)
        if not radius < self.cell * span:  # the radius spans the grid
            every = np.arange(self.n_points)
            return np.repeat(query, self.n_points), np.tile(every, len(query))
        reach = math.ceil(radius / self.cell) + 1
        # Clip before the integer cast so far-off queries stay representable.
        lim = (-reach - 1.0, span + reach)
        ix = np.floor(np.clip((x[query] - self.x0) / self.cell, *lim)).astype(np.int64)
        iy = np.floor(np.clip((y[query] - self.y0) / self.cell, *lim)).astype(np.int64)
        off = np.arange(-reach, reach + 1)
        cx = ix[:, None, None] + off[:, None]
        cy = iy[:, None, None] + off
        inside = (cx >= 0) & (cx < self.n_x) & (cy >= 0) & (cy < self.n_y)
        key = (cx * self.n_y + cy)[inside]
        owner = np.broadcast_to(query[:, None, None], inside.shape)[inside]
        slot = np.minimum(np.searchsorted(self.keys, key), len(self.keys) - 1)
        hit = self.keys[slot] == key
        slot = slot[hit]
        owner = owner[hit]
        lo = self.starts[slot]
        counts = self.starts[slot + 1] - lo
        # Expand each cell's [lo, lo + count) range of ``order``.
        ends = np.cumsum(counts)
        pos = np.arange(ends[-1] if len(ends) else 0) + np.repeat(lo - ends + counts, counts)
        pair = np.repeat(owner, counts) * self.n_points + self.order[pos]
        pair.sort()
        return pair // self.n_points, pair % self.n_points


#: Cell side of :attr:`RoadProfile.point_grid` [m]: half the default gate of
#: :func:`~repro.sensors.alignment.map_match`, so a default query visits 7 x 7
#: cells (~120 m square) of a 1 m route grid. Any gate works with any cell.
POINT_GRID_CELL_M = 17.5


class RoadProfile:
    """Dense, uniformly sampled description of one route.

    Parameters
    ----------
    s:
        Monotonic arc-length grid [m], starting at 0.
    xy:
        (N, 2) planar positions [m] in the local ENU frame.
    z:
        Elevations [m].
    grade:
        Road gradient [rad] at each grid point.
    heading:
        Road direction relative to East [rad], unwrapped.
    curvature:
        Signed curvature [1/m].
    lanes:
        Integer lane count at each grid point (same travel direction).
    name:
        Human-readable route name.
    sections:
        Optional section metadata (Table III style).
    gps_outages:
        List of (s_start, s_end) intervals where GPS is unavailable.
    frame:
        Optional geographic anchor so positions can be exported as lat/lon.
    """

    def __init__(
        self,
        s: np.ndarray,
        xy: np.ndarray,
        z: np.ndarray,
        grade: np.ndarray,
        heading: np.ndarray,
        curvature: np.ndarray,
        lanes: np.ndarray | None = None,
        name: str = "route",
        sections: list[RoadSection] | None = None,
        gps_outages: list[tuple[float, float]] | None = None,
        frame: LocalFrame | None = None,
    ) -> None:
        s = np.asarray(s, dtype=float)
        if s.ndim != 1 or len(s) < 2:
            raise GeometryError("profile grid needs at least two samples")
        if np.any(np.diff(s) <= 0.0):
            raise GeometryError("profile grid must be strictly increasing")
        n = len(s)
        xy = np.asarray(xy, dtype=float)
        if xy.shape != (n, 2):
            raise GeometryError(f"xy must have shape ({n}, 2), got {xy.shape}")
        self.s = s
        self.xy = xy
        self.z = self._check("z", z, n)
        self.grade = self._check("grade", grade, n)
        self.heading = self._check("heading", heading, n)
        self.curvature = self._check("curvature", curvature, n)
        if lanes is None:
            lanes = np.ones(n, dtype=int)
        self.lanes = np.asarray(lanes, dtype=int)
        if self.lanes.shape != (n,):
            raise GeometryError("lanes must match the grid length")
        self.name = name
        self.sections = list(sections or [])
        self.gps_outages = [(float(a), float(b)) for a, b in (gps_outages or [])]
        for a, b in self.gps_outages:
            if not (0.0 <= a < b):
                raise GeometryError(f"bad GPS outage interval ({a}, {b})")
        self.frame = frame

    @staticmethod
    def _check(label: str, arr: np.ndarray, n: int) -> np.ndarray:
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (n,):
            raise GeometryError(f"{label} must have shape ({n},), got {arr.shape}")
        return arr

    # -- construction -----------------------------------------------------

    @classmethod
    def from_polyline(
        cls,
        polyline: Polyline,
        terrain,
        spacing: float = 1.0,
        lanes: int | np.ndarray = 1,
        name: str = "route",
        gps_outages: list[tuple[float, float]] | None = None,
        frame: LocalFrame | None = None,
    ) -> "RoadProfile":
        """Drape a planar polyline over a terrain field.

        ``terrain`` must expose ``elevation(x, y)`` and ``gradient(x, y)``
        (see :mod:`repro.roads.elevation`). The road gradient at each point
        is the terrain slope projected onto the road heading:
        ``tan(theta) = dz/dx * cos(psi) + dz/dy * sin(psi)``.
        """
        n = max(2, int(np.ceil(polyline.length / spacing)) + 1)
        s = np.linspace(0.0, polyline.length, n)
        xy = polyline.position(s)
        heading = np.asarray(polyline.heading(s), dtype=float)
        curvature = np.asarray(polyline.curvature(s), dtype=float)
        z = terrain.elevation(xy[:, 0], xy[:, 1])
        dzdx, dzdy = terrain.gradient(xy[:, 0], xy[:, 1])
        slope = dzdx * np.cos(heading) + dzdy * np.sin(heading)
        grade = np.arctan(slope)
        if np.isscalar(lanes):
            lanes_arr = np.full(n, int(lanes), dtype=int)
        else:
            lanes_arr = np.asarray(lanes, dtype=int)
        return cls(
            s=s, xy=xy, z=np.asarray(z, dtype=float), grade=grade, heading=heading,
            curvature=curvature, lanes=lanes_arr, name=name,
            gps_outages=gps_outages, frame=frame,
        )

    # -- queries -----------------------------------------------------------

    @cached_property
    def point_grid(self) -> PointGrid:
        """A :class:`PointGrid` over the grid positions ``xy``, built on
        first use (profiles are immutable once built)."""
        return PointGrid(self.xy, POINT_GRID_CELL_M)

    @property
    def length(self) -> float:
        """Route length in metres."""
        return float(self.s[-1])

    def _interp(self, table: np.ndarray, s: float | np.ndarray):
        if isinstance(s, float):
            # The per-tick caller (dead reckoning) asks for one float: clamp
            # it in Python and skip the 1-element array round trip.
            return float(np.interp(min(max(s, 0.0), self.length), self.s, table))
        scalar = np.isscalar(s)
        s_arr = np.clip(np.atleast_1d(np.asarray(s, dtype=float)), 0.0, self.length)
        out = np.interp(s_arr, self.s, table)
        return float(out[0]) if scalar else out

    def grade_at(self, s: float | np.ndarray):
        """Road gradient [rad] at arc length ``s``."""
        return self._interp(self.grade, s)

    def elevation_at(self, s: float | np.ndarray):
        """Elevation [m] at arc length ``s``."""
        return self._interp(self.z, s)

    def heading_at(self, s: float | np.ndarray):
        """Road direction relative to East [rad] at arc length ``s``."""
        return self._interp(self.heading, s)

    def curvature_at(self, s: float | np.ndarray):
        """Signed curvature [1/m] at arc length ``s``."""
        return self._interp(self.curvature, s)

    def position_at(self, s: float | np.ndarray) -> np.ndarray:
        """Planar (east, north) position [m] at arc length ``s``."""
        scalar = np.isscalar(s)
        s_arr = np.clip(np.atleast_1d(np.asarray(s, dtype=float)), 0.0, self.length)
        x = np.interp(s_arr, self.s, self.xy[:, 0])
        y = np.interp(s_arr, self.s, self.xy[:, 1])
        out = np.stack([x, y], axis=-1)
        return out[0] if scalar else out

    def lane_count_at(self, s: float | np.ndarray):
        """Lane count at arc length ``s`` (nearest-sample lookup)."""
        scalar = np.isscalar(s)
        s_arr = np.clip(np.atleast_1d(np.asarray(s, dtype=float)), 0.0, self.length)
        idx = np.clip(np.searchsorted(self.s, s_arr, side="right") - 1, 0, len(self.s) - 1)
        out = self.lanes[idx]
        return int(out[0]) if scalar else out

    def gps_available_at(self, s: float | np.ndarray):
        """True where GPS service exists (outside every outage interval)."""
        scalar = np.isscalar(s)
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        ok = np.ones(s_arr.shape, dtype=bool)
        for a, b in self.gps_outages:
            ok &= ~((s_arr >= a) & (s_arr <= b))
        return bool(ok[0]) if scalar else ok

    def road_turn_rate(self, s: float | np.ndarray, v: float | np.ndarray):
        """``w_road`` [rad/s] for a vehicle at arc length ``s`` moving at ``v``."""
        return self.curvature_at(s) * np.asarray(v, dtype=float)

    def geo_at(self, s: float) -> GeoPoint:
        """Geographic point at arc length ``s`` (requires a frame)."""
        if self.frame is None:
            raise RouteError(f"profile {self.name!r} has no geographic frame")
        x, y = self.position_at(float(s))
        return self.frame.to_geo(float(x), float(y), float(self.elevation_at(s)) - self.frame.origin.alt)

    def section_at(self, s: float) -> RoadSection | None:
        """The section containing ``s``, or None if sections are undefined."""
        for section in self.sections:
            if section.s_start <= s <= section.s_end:
                return section
        return None

    def subprofile(self, s_start: float, s_end: float, name: str | None = None) -> "RoadProfile":
        """Extract the stretch ``[s_start, s_end]`` as a standalone profile."""
        if not (0.0 <= s_start < s_end <= self.length + 1e-9):
            raise RouteError(f"bad subprofile range [{s_start}, {s_end}] of {self.length}")
        mask = (self.s >= s_start) & (self.s <= s_end)
        idx = np.flatnonzero(mask)
        if len(idx) < 2:
            raise RouteError("subprofile range covers fewer than two grid samples")
        sel = slice(idx[0], idx[-1] + 1)
        outages = [
            (max(a, s_start) - s_start, min(b, s_end) - s_start)
            for a, b in self.gps_outages
            if b > s_start and a < s_end
        ]
        return RoadProfile(
            s=self.s[sel] - self.s[idx[0]],
            xy=self.xy[sel],
            z=self.z[sel],
            grade=self.grade[sel],
            heading=self.heading[sel],
            curvature=self.curvature[sel],
            lanes=self.lanes[sel],
            name=name or f"{self.name}[{s_start:.0f}:{s_end:.0f}]",
            gps_outages=outages,
            frame=self.frame,
        )

    def cached(self, maxsize: int = 64):
        """A memoizing view of this profile for hot repeated queries.

        See :class:`repro.roads.cache.CachedRoadProfile` for the
        equivalence and invalidation contract.
        """
        from .cache import CachedRoadProfile

        return CachedRoadProfile(self, maxsize=maxsize)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RoadProfile(name={self.name!r}, length={self.length:.1f} m, "
            f"samples={len(self.s)}, sections={len(self.sections)})"
        )
