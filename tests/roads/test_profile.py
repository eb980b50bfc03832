"""RoadProfile construction and query tests."""

import math

import numpy as np
import pytest

from repro.errors import GeometryError, RouteError
from repro.roads import SectionSpec, build_profile
from repro.roads.elevation import ConstantSlopeField
from repro.roads.geometry import GeoPoint, LocalFrame, Polyline
from repro.roads.profile import RoadProfile, RoadSection


def straight_profile(length=500.0, slope=0.02, lanes=2, outages=None, frame=None):
    line = Polyline(np.array([[0.0, 0.0], [length, 0.0]]))
    terrain = ConstantSlopeField(slope_x=slope, base_elevation=100.0)
    return RoadProfile.from_polyline(
        line, terrain, spacing=1.0, lanes=lanes, gps_outages=outages, frame=frame
    )


class TestConstruction:
    def test_from_polyline_grade(self):
        prof = straight_profile(slope=0.03)
        assert prof.grade_at(250.0) == pytest.approx(math.atan(0.03), abs=1e-9)

    def test_elevation_rises_with_slope(self):
        prof = straight_profile(slope=0.02)
        assert prof.elevation_at(100.0) == pytest.approx(102.0, abs=1e-6)

    def test_length(self):
        assert straight_profile(length=500.0).length == pytest.approx(500.0)

    def test_needs_two_samples(self):
        with pytest.raises(GeometryError):
            RoadProfile(
                s=np.array([0.0]),
                xy=np.zeros((1, 2)),
                z=np.zeros(1),
                grade=np.zeros(1),
                heading=np.zeros(1),
                curvature=np.zeros(1),
            )

    def test_rejects_nonmonotonic_grid(self):
        with pytest.raises(GeometryError):
            RoadProfile(
                s=np.array([0.0, 2.0, 1.0]),
                xy=np.zeros((3, 2)),
                z=np.zeros(3),
                grade=np.zeros(3),
                heading=np.zeros(3),
                curvature=np.zeros(3),
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(GeometryError):
            RoadProfile(
                s=np.array([0.0, 1.0, 2.0]),
                xy=np.zeros((3, 2)),
                z=np.zeros(2),  # wrong length
                grade=np.zeros(3),
                heading=np.zeros(3),
                curvature=np.zeros(3),
            )

    def test_rejects_bad_outage(self):
        with pytest.raises(GeometryError):
            straight_profile(outages=[(50.0, 20.0)])


class TestQueries:
    def test_scalar_and_array_interp(self):
        prof = straight_profile()
        scalar = prof.grade_at(100.0)
        arr = prof.grade_at(np.array([100.0, 200.0]))
        assert isinstance(scalar, float)
        assert arr.shape == (2,)

    @pytest.mark.parametrize(
        "query", ["grade_at", "elevation_at", "heading_at", "curvature_at"]
    )
    def test_scalar_path_matches_array_path(self, query):
        # A Python float skips the array round trip; the clamp and the
        # interpolation must agree with the array path bit for bit.
        prof = build_profile(
            [
                SectionSpec.from_degrees(300.0, 2.0, 1, 30.0),
                SectionSpec.from_degrees(200.0, -1.5, 1, -45.0),
            ],
            name="curvy",
        )
        length = prof.length
        points = [
            math.nan, math.inf, -math.inf, -5.0, -0.0, 0.0, 123.456,
            length, length + 1.0, 1e300,
        ]
        lookup = getattr(prof, query)
        array = lookup(np.array(points))
        for s, want in zip(points, array):
            got = lookup(s)
            assert type(got) is float
            assert np.float64(got).tobytes() == want.tobytes(), s
            assert lookup(np.float64(s)) == got or math.isnan(got)

    def test_position_at(self):
        prof = straight_profile()
        assert prof.position_at(123.0) == pytest.approx([123.0, 0.0], abs=1e-9)

    def test_queries_clip_to_route(self):
        prof = straight_profile()
        assert prof.grade_at(-10.0) == prof.grade_at(0.0)
        assert prof.elevation_at(1e6) == prof.elevation_at(prof.length)

    def test_lane_count(self):
        prof = straight_profile(lanes=2)
        assert prof.lane_count_at(100.0) == 2

    def test_gps_availability(self):
        prof = straight_profile(outages=[(100.0, 200.0)])
        assert prof.gps_available_at(50.0)
        assert not prof.gps_available_at(150.0)
        arr = prof.gps_available_at(np.array([50.0, 150.0, 300.0]))
        assert arr.tolist() == [True, False, True]

    def test_road_turn_rate_zero_on_straight(self):
        prof = straight_profile()
        assert prof.road_turn_rate(100.0, 15.0) == pytest.approx(0.0, abs=1e-9)

    def test_geo_at_requires_frame(self):
        with pytest.raises(RouteError):
            straight_profile().geo_at(10.0)

    def test_geo_at_with_frame(self):
        frame = LocalFrame(GeoPoint(38.0, -78.0, 100.0))
        prof = straight_profile(frame=frame)
        point = prof.geo_at(0.0)
        assert point.lat == pytest.approx(38.0, abs=1e-6)

    def test_section_lookup(self):
        prof = straight_profile()
        prof.sections.append(RoadSection("a", 0.0, 250.0, 1, 0.02))
        assert prof.section_at(100.0).name == "a"
        assert prof.section_at(400.0) is None


class TestRoadSection:
    def test_grade_sign(self):
        assert RoadSection("x", 0, 10, 1, 0.01).grade_sign == "+"
        assert RoadSection("x", 0, 10, 1, -0.01).grade_sign == "-"

    def test_length(self):
        assert RoadSection("x", 5.0, 30.0, 1, 0.0).length == 25.0


class TestSubprofile:
    def test_subprofile_range(self):
        prof = straight_profile(outages=[(100.0, 200.0)])
        sub = prof.subprofile(50.0, 300.0)
        assert sub.length == pytest.approx(250.0)
        assert sub.s[0] == 0.0
        # The outage interval shifts with the new origin.
        assert sub.gps_outages[0] == pytest.approx((50.0, 150.0))

    def test_subprofile_grade_preserved(self):
        prof = straight_profile(slope=0.025)
        sub = prof.subprofile(100.0, 400.0)
        assert sub.grade_at(50.0) == pytest.approx(prof.grade_at(150.0))

    def test_subprofile_bad_range(self):
        prof = straight_profile()
        with pytest.raises(RouteError):
            prof.subprofile(300.0, 100.0)
