"""Vehicle substrate: dynamics, driver behaviour, trip simulation."""

from .driver import DriverModel, DriverProfile, make_driver_cohort
from .lateral import LaneChangeManeuver, plan_lane_change
from .longitudinal import (
    acceleration,
    aero_drag_force,
    grade_resistance_force,
    required_traction_force,
)
from .params import DEFAULT_VEHICLE, SI_CALIBRATED, TABLE_II, VehicleParams, VSPCoefficients
from .simulator import SimulationConfig, TripSimulator, simulate_trip
from .trip import TruthTrace

__all__ = [
    "DriverModel",
    "DriverProfile",
    "make_driver_cohort",
    "LaneChangeManeuver",
    "plan_lane_change",
    "acceleration",
    "aero_drag_force",
    "grade_resistance_force",
    "required_traction_force",
    "DEFAULT_VEHICLE",
    "SI_CALIBRATED",
    "TABLE_II",
    "VehicleParams",
    "VSPCoefficients",
    "SimulationConfig",
    "TripSimulator",
    "simulate_trip",
    "TruthTrace",
]
