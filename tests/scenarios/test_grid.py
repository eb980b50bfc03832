"""Accuracy-grid behaviour: resilience equivalence, determinism, golden cells.

The grid's fault cells, and its default × legacy fault preset, are pinned
exactly by ``tests/eval/sweep_golden.json``. Here: the default × legacy
column of a wider grid reproduces the fault matrix exactly (extra axes add
nothing to it), the grid is deterministic in its seed, and every driver
style's clean cell stays within the golden RMSE bound on both EKF engines.
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
from repro.eval.runner import RunnerConfig, simulate_recording
from repro.scenarios import ScenarioConfig

from ..eval.gen_sweep_golden import CELL_FIELDS, GOLDEN_PATH

KINDS = ("gps_dropout", "nan_burst")

#: Single-trip clean-accuracy ceiling per driver style on the red route.
GOLDEN_RMSE_DEG = 1.5


class TestGridReproducesResilience:
    def test_default_legacy_column_matches_the_matrix(self, red_profile):
        """The default × legacy column of a wider grid == the fault matrix.

        The other driver's cells run first, so the column must come out
        exactly as the golden fault preset, which is the matrix as it was
        before it became the grid's preset.
        """
        golden = json.loads(GOLDEN_PATH.read_text())["fault_preset"]
        grid = run_scenario_grid(
            red_profile,
            base_cfg=RunnerConfig(n_trips=1, seed=3),
            config=ScenarioGridConfig(
                scenarios=("default",),
                drivers=("safe", "legacy"),
                fault_kinds=KINDS,
                severities=(0.5,),
            ),
            parallel=ParallelConfig(backend="serial"),
        )

        (baseline,) = [b for b in grid["baselines"] if b["driver"] == "legacy"]
        assert baseline["ok"]
        assert baseline["rmse_deg"] == golden["clean"]["rmse_deg"]
        assert baseline["health"] == golden["clean"]["health"]

        by_cell = {
            (c["kind"], c["severity"]): c
            for c in golden["cells"]
            if c["kind"] in KINDS and c["severity"] == 0.5
        }
        column = [c for c in grid["cells"] if c["driver"] == "legacy"]
        assert len(column) == len(by_cell) == len(KINDS)
        for cell in column:
            assert {k: cell[k] for k in CELL_FIELDS} == by_cell[
                (cell["kind"], cell["severity"])
            ]

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
