"""Telemetry metric-name registry (generated — do not edit).

Every counter/gauge/histogram name the library emits, collected statically
from the metric call sites. Regenerate after adding or renaming a metric::

    python -m repro.lint --write-metric-names src/repro

Rule RL004 (see :mod:`repro.lint.rules`) keeps this file honest: an emission
site using a name missing here — or a stale entry left behind by a rename —
fails the lint gate, so exporters and dashboards can key on these names
without drift.
"""

from __future__ import annotations

__all__ = ["METRIC_NAMES"]

#: Bare metric names (labels are appended at runtime by ``metric_key``).

METRIC_NAMES = frozenset(
    {
        "alignment.dropped_fixes",
        "alignment.gps_fixes",
        "alignment.matched_fixes",
        "alignment.outage_samples",
        "alignment.samples",
        "alignment.yaw_offset",
        "ekf.covariance_reset",
        "ekf.final_theta_variance",
        "ekf.map_updates",
        "ekf_innovation_abs",
        "ekf_ticks",
        "ekf_updates",
        "eval.gps_denied_cells",
        "eval.parallel_reports",
        "eval.trips_simulated",
        "eval.worker_failed",
        "eval.worker_retried",
        "fusion.grid_points",
        "fusion.uncovered_cells",
        "fusion_tracks_in",
        "grid.baseline_failed",
        "grid.cell_failed",
        "grid.runs",
        "health.flag",
        "health.track_flagged",
        "health.trips_flagged",
        "lane_change.bumps",
        "lane_change.displacement_abs",
        "lane_change.s_curve_rejections",
        "lane_changes_detected",
        "pipeline.batch.trip_failed",
        "pipeline.cloud_fusion_spacing_mismatch",
        "pipeline.cloud_fusions",
        "pipeline.estimates",
        "pipeline.gap_interpolated",
        "pipeline.gap_masked",
        "pipeline.gps_fixes_masked",
        "pipeline.track_rejected",
        "resilience.matrices",
        "resilience.scenario_failed",
        "samples_dropped",
        "stream.clamped_ticks",
        "stream.map_updates",
        "stream.mode.coasting",
        "stream.mode.dead_reckoning",
        "stream.mode.nominal",
        "stream.mode.reacquiring",
        "stream.mode.transitions",
        "stream.nonfinite_guard",
        "stream.ticks",
        "stream.updates",
    }
)
