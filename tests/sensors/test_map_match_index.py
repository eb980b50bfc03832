"""Indexed map matching against the full-route scan, bit for bit.

:func:`repro.sensors.alignment.map_match` takes each fix's near points
from the profile's bucket grid. The oracle below is the matcher it
replaced, which measured the distance from every fix to every route
point; the two must agree exactly on every input: the red route and a
route that revisits its own points, NaN and far-off fixes, fixes exactly
``max_distance_m`` from a point, equidistant ties, with and without
``expected_step``, and gates both smaller and larger than a grid cell.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.charlottesville import red_route
from repro.roads.profile import POINT_GRID_CELL_M, PointGrid, RoadProfile
from repro.sensors import Smartphone
from repro.sensors.alignment import map_match
from repro.vehicle import DriverProfile, simulate_trip


def full_scan_map_match(
    profile,
    x,
    y,
    window_m=120.0,
    expected_step=None,
    max_distance_m=35.0,
):
    """The full-route scan: every fix against every route point."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if expected_step is not None:
        expected_step = np.asarray(expected_step, dtype=float)
    grid_x = profile.xy[:, 0]
    grid_y = profile.xy[:, 1]
    s_grid = profile.s
    max_d2 = max_distance_m**2
    pos_sigma2 = (max_distance_m / 3.0) ** 2

    out = np.full(len(x), np.nan)
    s_anchor = None
    pending = 0.0
    for i in range(len(x)):
        if expected_step is not None:
            pending += float(expected_step[i])
        else:
            pending += window_m / 4.0
        if not (np.isfinite(x[i]) and np.isfinite(y[i])):
            continue
        d2 = (grid_x - x[i]) ** 2 + (grid_y - y[i]) ** 2
        near = d2 <= max_d2
        if not np.any(near):
            continue
        if s_anchor is None:
            idx = int(np.argmin(d2))
        else:
            s_pred = s_anchor + pending
            s_sigma2 = (12.0 + 0.05 * abs(pending)) ** 2
            cand = np.flatnonzero(near)
            cost = d2[cand] / pos_sigma2 + (s_grid[cand] - s_pred) ** 2 / s_sigma2
            idx = int(cand[np.argmin(cost)])
        s_anchor = float(s_grid[idx])
        pending = 0.0
        out[i] = s_anchor
    return out


def _revisiting_route() -> RoadProfile:
    """West along y = 0 on integer metres, a 40 m jog north and back, then
    east over the very same points: every westbound point recurs on the
    eastbound leg, cell boundaries fall on route points, and the westbound
    leg lists points in the opposite order to the grid's cells."""
    west_x = np.arange(300.0, -1.0, -1.0)
    jog_y = np.arange(1.0, 41.0)
    xy = np.concatenate(
        [
            np.column_stack([west_x, np.zeros_like(west_x)]),
            np.column_stack([np.zeros_like(jog_y), jog_y]),
            np.column_stack([np.zeros_like(jog_y), jog_y[::-1] - 1.0]),
            np.column_stack([west_x[::-1][1:], np.zeros(300)]),
        ]
    )
    n = len(xy)
    zeros = np.zeros(n)
    return RoadProfile(
        s=np.arange(n, dtype=float), xy=xy, z=zeros, grade=zeros,
        heading=zeros, curvature=zeros, name="revisit",
    )


ROUTES = {"red": red_route(), "revisit": _revisiting_route()}
GATES = (35.0, 12.5, 90.0, 250.0)  # the default, below and above a cell


@st.composite
def match_inputs(draw):
    """A route, a gate and a sequence of fixes that walks the route with
    noise, sprinkled with NaN, far-off, on-the-gate and tie fixes."""
    name = draw(st.sampled_from(sorted(ROUTES)))
    profile = ROUTES[name]
    max_d = draw(st.sampled_from(GATES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 60))
    n_pts = len(profile.s)
    idx = np.minimum(np.cumsum(rng.integers(0, 3 * n_pts // n + 2, n)), n_pts - 2)
    noise = draw(st.sampled_from([0.0, 3.0, 15.0, 40.0]))
    xy = profile.xy[idx] + rng.normal(0.0, noise, (n, 2))
    kinds = rng.choice(
        ["walk", "nan", "far", "huge", "gate", "tie"],
        size=n,
        p=[0.55, 0.1, 0.1, 0.05, 0.1, 0.1],
    )
    for i, kind in enumerate(kinds):
        px, py = profile.xy[idx[i]]
        qx, qy = profile.xy[idx[i] + 1]
        if kind == "nan":
            xy[i, rng.integers(0, 2)] = np.nan
        elif kind == "far":
            xy[i] = (px + max_d + 500.0, py - max_d - 500.0)
        elif kind == "huge":
            xy[i] = (1e200, py)
        elif kind == "gate":
            xy[i] = (px, py + max_d)  # exactly on the gate on integer routes
        elif kind == "tie":
            xy[i] = ((px + qx) / 2.0, (py + qy) / 2.0 + float(rng.uniform(0.0, max_d)))
    steps = None
    if draw(st.booleans()):
        steps = np.diff(profile.s[idx], prepend=profile.s[idx[0]])
        steps = steps + rng.normal(0.0, 5.0, n)
    return profile, xy[:, 0].copy(), xy[:, 1].copy(), steps, max_d


@given(match_inputs())
@settings(max_examples=150, deadline=None)
def test_indexed_match_equals_full_scan(inputs):
    profile, x, y, steps, max_d = inputs
    got = map_match(profile, x, y, expected_step=steps, max_distance_m=max_d)
    with np.errstate(over="ignore"):  # the scan squares the 1e200 offsets
        want = full_scan_map_match(
            profile, x, y, expected_step=steps, max_distance_m=max_d
        )
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("max_d", GATES)
def test_revisited_points_tie_break_like_the_scan(max_d):
    # Every westbound point recurs on the eastbound leg at the same
    # position; the first fix (no anchor) has to take the lower grid
    # index, later ones the prediction-consistent leg.
    profile = ROUTES["revisit"]
    x = np.array([290.0, 290.0, 150.0, 10.0, 0.0, 10.0, 150.0, 290.0])
    y = np.array([0.0, 3.0, 0.0, 0.0, 20.0, 0.0, 0.0, 0.0])
    for steps in (None, np.array([0.0, 0.0, 140.0, 140.0, 30.0, 30.0, 140.0, 140.0])):
        got = map_match(profile, x, y, expected_step=steps, max_distance_m=max_d)
        want = full_scan_map_match(
            profile, x, y, expected_step=steps, max_distance_m=max_d
        )
        assert np.array_equal(got, want, equal_nan=True)
    assert map_match(profile, x[:1], y[:1], max_distance_m=max_d)[0] == 10.0


def test_tie_across_a_cell_boundary_takes_the_lower_index():
    # x = 34.5 is equidistant from x = 34 and x = 35, which sit in
    # adjacent cells; westbound, the point in the later-visited cell
    # (x = 35) comes first on the route and must win, as in the scan.
    profile = ROUTES["revisit"]
    assert POINT_GRID_CELL_M == 17.5
    x, y = np.array([34.5]), np.array([6.0])
    s = map_match(profile, x, y)
    assert np.array_equal(s, full_scan_map_match(profile, x, y))
    assert s[0] == 300.0 - 35.0


def test_fix_exactly_on_the_gate_is_matched():
    profile = ROUTES["revisit"]
    s = map_match(profile, np.array([35.0]), np.array([-35.0]))
    assert s[0] == 300.0 - 35.0
    s = map_match(profile, np.array([35.0]), np.array([-35.0]), max_distance_m=34.999)
    assert np.isnan(s[0])


def test_red_route_trip_equals_full_scan():
    route = ROUTES["red"]
    trace = simulate_trip(route, DriverProfile(lane_changes_per_km=2.0), seed=21)
    rec = Smartphone().record(trace, np.random.default_rng(22))
    gps = rec.gps
    steps = np.diff(gps.t, prepend=gps.t[0]) * 12.0
    for expected_step in (None, steps):
        got = map_match(route, gps.x, gps.y, expected_step=expected_step)
        want = full_scan_map_match(route, gps.x, gps.y, expected_step=expected_step)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isfinite(got).any()


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 1.0, 17.5, POINT_GRID_CELL_M, 80.0, 1e4]),
)
@settings(max_examples=60, deadline=None)
def test_grid_pairs_cover_every_point_within_radius(seed, radius):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-500.0, 500.0, (300, 2))
    pts[:50] = np.round(pts[:50] / POINT_GRID_CELL_M) * POINT_GRID_CELL_M
    grid = PointGrid(pts, POINT_GRID_CELL_M)
    q = np.concatenate([rng.uniform(-700.0, 700.0, (40, 2)), pts[:10] + radius])
    q[3] = np.nan
    query, point = grid.pairs_near(q[:, 0], q[:, 1], radius)
    pair = query * len(pts) + point
    assert np.all(np.diff(pair) > 0)  # sorted by query, then point; no repeats
    d2 = ((pts[None, :, :] - q[:, None, :]) ** 2).sum(axis=2)
    want_q, want_p = np.nonzero(d2 <= radius * radius)
    assert set(zip(want_q.tolist(), want_p.tolist())) <= set(
        zip(query.tolist(), point.tolist())
    )
    assert 3 not in query.tolist()
