"""Accuracy-grid behaviour: resilience equivalence and golden cells.

Two anchors keep the grid honest: its default × legacy column must
reproduce the resilience matrix exactly (the grid is a superset, not a
parallel implementation), and every driver style's clean cell must stay
within the golden RMSE bound on both EKF engines.
"""

import json

import numpy as np
import pytest

from repro.core.lane_change.detector import LaneChangeDetectorConfig
from repro.core.pipeline import GradientEstimationSystem, GradientSystemConfig
from repro.datasets.steering_study import calibrated_thresholds
from repro.eval.grid import ScenarioGridConfig, run_scenario_grid
from repro.eval.metrics import root_mean_square_error
from repro.eval.parallel import ParallelConfig
from repro.eval.resilience import ResilienceConfig, run_resilience_matrix
from repro.eval.runner import RunnerConfig, simulate_recording
from repro.scenarios import ScenarioConfig

KINDS = ("gps_dropout", "nan_burst")

#: Single-trip clean-accuracy ceiling per driver style on the red route.
GOLDEN_RMSE_DEG = 1.5


class TestGridReproducesResilience:
    def test_default_legacy_column_matches_the_matrix(self, red_profile):
        """Grid cells on the default scenario == resilience matrix cells.

        Same base config, same fault suites, same pipeline — the grid's
        scenario machinery must add exactly nothing on the no-op path.
        """
        base = RunnerConfig(n_trips=1, seed=3)
        serial = ParallelConfig(backend="serial")

        matrix = run_resilience_matrix(
            red_profile,
            base_cfg=base,
            config=ResilienceConfig(fault_kinds=KINDS, severities=(1.0,)),
            parallel=serial,
        )
        grid = run_scenario_grid(
            red_profile,
            base_cfg=base,
            config=ScenarioGridConfig(
                scenarios=("default",),
                drivers=("legacy",),
                fault_kinds=KINDS,
                severities=(1.0,),
            ),
            parallel=serial,
        )

        (baseline,) = grid["baselines"]
        assert baseline["ok"]
        assert baseline["rmse_deg"] == matrix["clean_rmse_deg"]
        assert baseline["health"] == matrix["clean_health"]

        by_cell = {(s["kind"], s["severity"]): s for s in matrix["scenarios"]}
        assert len(grid["cells"]) == len(by_cell)
        for cell in grid["cells"]:
            want = by_cell[(cell["kind"], cell["severity"])]
            assert cell["ok"] == want["ok"]
            assert cell["rmse_deg"] == want["rmse_deg"]
            assert cell["rmse_ratio"] == want["rmse_ratio"]

        json.dumps(grid)  # the artifact must stay strict JSON

    def test_grid_is_deterministic_in_seed(self, red_profile):
        cfg = ScenarioGridConfig(
            scenarios=("default",),
            drivers=("normal",),
            fault_kinds=("nan_burst",),
            severities=(1.0,),
        )
        base = RunnerConfig(n_trips=1, seed=3)
        serial = ParallelConfig(backend="serial")
        a = run_scenario_grid(red_profile, base, cfg, parallel=serial)
        b = run_scenario_grid(red_profile, base, cfg, parallel=serial)
        assert a == b


class TestGoldenCells:
    @pytest.mark.parametrize("style", ["safe", "normal", "aggressive"])
    def test_clean_rmse_per_style_on_both_engines(
        self, red_profile, style, force_kernel
    ):
        """Each driver style's clean cell holds on the vectorized AND the
        scalar EKF kernel."""
        runner = RunnerConfig(seed=3, scenario=ScenarioConfig().with_driver(style))
        _, rec = simulate_recording(red_profile, runner, 0)

        rmse = {}
        for engine in ("batch", "scalar"):
            force_kernel(engine)
            sys_cfg = GradientSystemConfig(
                detector=LaneChangeDetectorConfig(
                    thresholds=calibrated_thresholds()
                ),
            )
            res = GradientEstimationSystem(red_profile, config=sys_cfg).estimate(rec)
            # Score on the trimmed interior, like the evaluation runner.
            mask = (res.s_grid >= runner.trim_m) & (
                res.s_grid <= red_profile.length - runner.trim_m
            )
            truth = np.interp(res.s_grid[mask], red_profile.s, red_profile.grade)
            rmse[engine] = root_mean_square_error(
                res.fused.theta[mask], truth, degrees=True
            )
            assert rmse[engine] < GOLDEN_RMSE_DEG, (style, engine, rmse[engine])

        # The kernels are two bit-identical implementations of one filter.
        assert rmse["batch"] == rmse["scalar"]
