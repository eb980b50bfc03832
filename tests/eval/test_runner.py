"""Experiment runner integration tests (kept small — benches do the heavy runs)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.eval.runner import (
    FUSION_SUBSETS,
    RunnerConfig,
    collect_recordings,
    evaluate_fusion_counts,
    evaluate_methods,
    make_system,
)
from repro.roads import SectionSpec, build_profile


@pytest.fixture(scope="module")
def short_route():
    specs = [
        SectionSpec.from_degrees(450.0, 2.2, 2),
        SectionSpec.from_degrees(450.0, -1.8, 2),
    ]
    return build_profile(specs, name="short")


@pytest.fixture(scope="module")
def comparison(short_route):
    cfg = RunnerConfig(n_trips=1, seed=5, trim_m=60.0)
    return evaluate_methods(short_route, methods=("ops", "ekf"), cfg=cfg)


class TestEvaluateMethods:
    def test_methods_present(self, comparison):
        assert set(comparison.methods) == {"ops", "ekf"}

    def test_scores_consistent(self, comparison):
        for m in comparison.methods.values():
            assert m.errors.shape == comparison.s_grid.shape
            assert m.mre > 0.0
            assert m.mean_error_deg > 0.0

    def test_ops_beats_ekf_baseline(self, comparison):
        assert comparison.methods["ops"].mre < comparison.methods["ekf"].mre

    def test_improvement_metric(self, comparison):
        imp = comparison.improvement_over("ekf")
        assert imp == pytest.approx(
            1.0 - comparison.methods["ops"].mre / comparison.methods["ekf"].mre
        )

    def test_detection_scored(self, comparison):
        assert comparison.detection is not None

    def test_truth_matches_profile(self, comparison, short_route):
        expected = short_route.grade_at(comparison.s_grid)
        assert np.allclose(comparison.truth, expected, atol=np.radians(0.25))

    @pytest.mark.parametrize("methods", [("ops", "ekff"), ("ops", "barometer")])
    def test_unknown_method_rejected(self, short_route, methods):
        with pytest.raises(ConfigurationError, match=r"choose from \('ops', 'ekf', 'ann'\)"):
            evaluate_methods(short_route, methods=methods)


class TestFusionCounts:
    def test_subset_definitions(self):
        assert FUSION_SUBSETS[1] == ("gps",)
        assert len(FUSION_SUBSETS[4]) == 4

    def test_errors_per_count(self, short_route):
        cfg = RunnerConfig(n_trips=1, seed=5, trim_m=60.0)
        out = evaluate_fusion_counts(
            short_route, cfg, subsets={1: ("gps",), 4: FUSION_SUBSETS[4]}
        )
        assert set(out) == {1, 4}
        assert np.mean(out[4]) <= np.mean(out[1]) * 1.2


class TestPlumbing:
    def test_collect_recordings_deterministic(self, short_route):
        cfg = RunnerConfig(n_trips=1, seed=9)
        a = collect_recordings(short_route, cfg)
        b = collect_recordings(short_route, cfg)
        assert np.array_equal(a[0][1].speedometer.values, b[0][1].speedometer.values)

    def test_make_system_uses_sources(self, short_route):
        cfg = RunnerConfig(n_trips=1, velocity_sources=("speedometer",))
        system = make_system(short_route, cfg)
        assert system.config.velocity_sources == ("speedometer",)

    def test_unknown_process_fails_when_system_built(self, short_route):
        cfg = RunnerConfig(n_trips=1, process="specfic_force")
        with pytest.raises(ConfigurationError, match="specfic_force"):
            make_system(short_route, cfg)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            RunnerConfig(n_trips=0)
        with pytest.raises(ConfigurationError):
            RunnerConfig(grid_spacing=0.0)

    def test_route_too_short_for_trim(self):
        prof = build_profile([SectionSpec(150.0)])
        with pytest.raises(ConfigurationError):
            evaluate_methods(prof, methods=("ops",), cfg=RunnerConfig(trim_m=70.0))
