"""Vehicle substrate: dynamics, driver behaviour, trip simulation."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "DriverModel": ".driver",
        "DriverProfile": ".driver",
        "make_driver_cohort": ".driver",
        "LaneChangeManeuver": ".lateral",
        "plan_lane_change": ".lateral",
        "acceleration": ".longitudinal",
        "aero_drag_force": ".longitudinal",
        "grade_resistance_force": ".longitudinal",
        "required_traction_force": ".longitudinal",
        "DEFAULT_VEHICLE": ".params",
        "SI_CALIBRATED": ".params",
        "TABLE_II": ".params",
        "VehicleParams": ".params",
        "VSPCoefficients": ".params",
        "SimulationConfig": ".simulator",
        "TripSimulator": ".simulator",
        "simulate_trip": ".simulator",
        "TruthTrace": ".trip",
    },
)
