"""Lane-change detection and correction (paper Sec III-B)."""

from ... import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "Bump": ".bumps",
        "find_bumps": ".bumps",
        "correct_velocity_array": ".correction",
        "correct_velocity_signal": ".correction",
        "heading_deviation": ".correction",
        "PAPER_THRESHOLDS": ".detector",
        "LaneChangeDetector": ".detector",
        "LaneChangeDetectorConfig": ".detector",
        "LaneChangeEvent": ".detector",
        "lateral_displacement": ".detector",
        "BumpFeatures": ".features",
        "LaneChangeThresholds": ".features",
        "ManeuverFeatures": ".features",
        "calibrate_thresholds": ".features",
        "maneuver_features": ".features",
        "measure_bump": ".features",
        "loess_smooth": ".smoothing",
        "loess_smooth_batch": ".smoothing",
        "tricube_kernel": ".smoothing",
    },
)
