"""Cross-module property-based tests (hypothesis).

Invariants that must hold for *any* reasonable configuration, not just the
fixtures: road construction consistency, survey correctness bounds, fusion
algebra, fuel-model monotonicity, maneuver calibration.
"""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.track import GradientTrack
from repro.core.track_fusion import convex_combination, fuse_tracks
from repro.emissions.vsp import FuelModel
from repro.roads.builder import SectionSpec, build_profile
from repro.roads.reference import ReferenceSurveyConfig, survey_reference_profile
from repro.vehicle.lateral import plan_lane_change
from repro.vehicle.longitudinal import acceleration, required_traction_force

section_specs = st.lists(
    st.tuples(
        st.floats(120.0, 600.0),  # length
        st.floats(-5.0, 5.0),  # grade deg
        st.integers(1, 3),  # lanes
        st.floats(-25.0, 25.0),  # turn deg
    ),
    min_size=1,
    max_size=4,
)


def make_profile(spec_tuples, smooth_m=20.0):
    specs = [
        SectionSpec.from_degrees(length, grade, lanes, turn)
        for length, grade, lanes, turn in spec_tuples
    ]
    return build_profile(specs, spacing=2.0, smooth_m=smooth_m)


class TestRoadInvariants:
    @given(section_specs)
    @settings(max_examples=25, deadline=None)
    def test_elevation_is_integral_of_grade(self, spec_tuples):
        profile = make_profile(spec_tuples)
        dz = np.diff(profile.z)
        ds = np.diff(profile.s)
        # The builder integrates tan(grade) with the trapezoid rule.
        implied = 0.5 * (np.tan(profile.grade[1:]) + np.tan(profile.grade[:-1]))
        assert np.allclose(dz, implied * ds, atol=1e-9)

    @given(section_specs)
    @settings(max_examples=25, deadline=None)
    def test_heading_is_integral_of_curvature(self, spec_tuples):
        profile = make_profile(spec_tuples)
        dh = np.diff(profile.heading)
        ds = np.diff(profile.s)
        implied = 0.5 * (profile.curvature[1:] + profile.curvature[:-1])
        assert np.allclose(dh, implied * ds, atol=1e-6)

    @given(section_specs)
    @settings(max_examples=20, deadline=None)
    def test_survey_within_quantization_bound(self, spec_tuples):
        profile = make_profile(spec_tuples)
        ref = survey_reference_profile(
            profile, ReferenceSurveyConfig(segment_length=2.0)
        )
        truth = profile.grade_at(ref.s_mid)
        # 0.01 m quantization over 2 m segments -> <= 0.01 rad of error,
        # plus the arcsin/arctan second-order gap.
        assert np.max(np.abs(ref.gradient - truth)) < 0.012

    @given(section_specs, st.floats(0.1, 0.9))
    @settings(max_examples=20, deadline=None)
    def test_subprofile_preserves_grades(self, spec_tuples, frac):
        profile = make_profile(spec_tuples)
        hi = profile.length * max(frac, 0.2)
        sub = profile.subprofile(0.0, hi)
        probe = sub.length / 2.0
        assert sub.grade_at(probe) == pytest.approx(
            profile.grade_at(probe), abs=1e-9
        )


class TestDynamicsInvariants:
    @given(
        st.floats(1.0, 30.0),
        st.floats(-2.5, 2.5),
        st.floats(-0.1, 0.1),
        st.floats(500.0, 3000.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_force_balance_round_trip_any_vehicle(self, v, a, grade, mass):
        from repro.vehicle.params import VehicleParams

        vehicle = VehicleParams(mass=mass)
        force = required_traction_force(vehicle, a, v, grade)
        assert acceleration(vehicle, force, v, grade) == pytest.approx(a, abs=1e-9)

    @given(st.floats(3.0, 25.0), st.floats(2.5, 8.0), st.floats(0.5, 1.5))
    @settings(max_examples=30, deadline=None)
    def test_lane_change_calibration(self, v, duration, asymmetry):
        maneuver = plan_lane_change(v, +1, duration=duration, asymmetry=asymmetry)
        assert maneuver.lateral_displacement(v) == pytest.approx(3.65, rel=0.03)
        # Heading returns to (near) zero: equal-area doublet.
        assert abs(maneuver.heading(maneuver.duration)) < 0.01


class TestFusionAlgebra:
    @given(
        st.lists(
            st.tuples(st.floats(-0.15, 0.15), st.floats(1e-6, 0.5)),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=50)
    def test_fused_variance_never_worse_than_best(self, tracks):
        thetas = np.array([[t] for t, _ in tracks])
        variances = np.array([[v] for _, v in tracks])
        _, fused_var = convex_combination(thetas, variances)
        assert fused_var[0] <= min(v for _, v in tracks) + 1e-12

    @given(st.floats(-0.1, 0.1), st.integers(2, 5))
    @settings(max_examples=30, deadline=None)
    def test_fusing_identical_tracks_is_identity(self, theta, k):
        n = 50
        s = np.linspace(0.0, 500.0, n)
        track = GradientTrack(
            name="x",
            t=s / 10.0,
            s=s,
            theta=np.full(n, theta),
            variance=np.full(n, 1e-4),
            v=np.full(n, 10.0),
        )
        grid = np.arange(10.0, 490.0, 10.0)
        fused = fuse_tracks([track] * k, grid)
        assert np.allclose(fused.theta, theta, atol=1e-12)


class TestFuelModelInvariants:
    @given(st.floats(2.0, 30.0), st.floats(0.0, 0.12), st.floats(0.0, 0.12))
    @settings(max_examples=60)
    def test_monotone_in_uphill_grade(self, v, g1, g2):
        model = FuelModel()
        lo, hi = sorted([g1, g2])
        assert model.rate_gph(v, lo) <= model.rate_gph(v, hi) + 1e-12

    @given(st.floats(2.0, 30.0), st.floats(-0.15, 0.15))
    @settings(max_examples=60)
    def test_never_below_idle(self, v, grade):
        model = FuelModel()
        assert model.rate_gph(v, grade) >= model.idle_rate_gph

    @given(st.floats(2.0, 30.0), st.floats(0.0, 0.08))
    @settings(max_examples=40)
    def test_two_way_average_at_least_flat(self, v, grade):
        """The clamping asymmetry behind the +33.4 % headline, pointwise."""
        model = FuelModel()
        both = 0.5 * (model.rate_gph(v, grade) + model.rate_gph(v, -grade))
        assert both >= model.rate_gph(v, 0.0) - 1e-12
