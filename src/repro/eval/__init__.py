"""Evaluation harness: metrics, tables, experiment runners."""

from .metrics import (
    DetectionScore,
    absolute_errors,
    cdf_value_at,
    error_cdf,
    mean_absolute_error,
    mean_relative_error,
    root_mean_square_error,
    score_lane_change_detection,
)
from .gps_denied import GPSDeniedMatrixConfig, run_gps_denied_matrix
from .grid import ScenarioGridConfig, run_scenario_grid, write_grid_artifact
from .parallel import EvalReport, ParallelConfig, TripOutcome, evaluate_trips
from .resilience import (
    ResilienceConfig,
    fault_suite_for,
    run_resilience_matrix,
    write_resilience_artifact,
)
from .runner import (
    FUSION_SUBSETS,
    ComparisonResult,
    MethodEstimate,
    RunnerConfig,
    collect_recordings,
    evaluate_fusion_counts,
    evaluate_methods,
    make_system,
    simulate_recording,
    simulate_recordings,
    system_config,
)
from .tables import format_value, render_series, render_table

__all__ = [
    "DetectionScore",
    "absolute_errors",
    "cdf_value_at",
    "error_cdf",
    "mean_absolute_error",
    "mean_relative_error",
    "root_mean_square_error",
    "score_lane_change_detection",
    "EvalReport",
    "ParallelConfig",
    "TripOutcome",
    "evaluate_trips",
    "GPSDeniedMatrixConfig",
    "run_gps_denied_matrix",
    "ScenarioGridConfig",
    "run_scenario_grid",
    "write_grid_artifact",
    "ResilienceConfig",
    "fault_suite_for",
    "run_resilience_matrix",
    "write_resilience_artifact",
    "FUSION_SUBSETS",
    "ComparisonResult",
    "MethodEstimate",
    "RunnerConfig",
    "collect_recordings",
    "evaluate_fusion_counts",
    "evaluate_methods",
    "make_system",
    "simulate_recording",
    "simulate_recordings",
    "system_config",
    "format_value",
    "render_series",
    "render_table",
]
