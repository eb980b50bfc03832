"""Deterministic synthetic datasets: steering study, Charlottesville roads."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "RED_ROUTE_SECTIONS": ".charlottesville",
        "TABLE_III": ".charlottesville",
        "city_network": ".charlottesville",
        "red_route": ".charlottesville",
        "s_curve_route": ".charlottesville",
        "DriverManeuvers": ".steering_study",
        "SteeringStudyConfig": ".steering_study",
        "SteeringStudyResult": ".steering_study",
        "calibrated_thresholds": ".steering_study",
        "maneuver_profile": ".steering_study",
        "run_steering_study": ".steering_study",
    },
)
