"""Scenario library: driver styles × trip plans × vehicle fleets as data.

The simulator's narrow scenario space (one driving style, one vehicle,
one route family) is widened here into a serializable subsystem that the
evaluation runner resolves deterministically per ``(seed, trip_index)``
and composes with the fault taxonomy — the scenario × fault × driver grid
(:mod:`repro.eval.grid`) is the repo's standing accuracy regression suite.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "SCENARIOS": ".config",
        "ResolvedTrip": ".config",
        "ScenarioConfig": ".config",
        "scenario_by_name": ".config",
        "scenario_names": ".config",
        "DRIVER_STYLES": ".driver",
        "DriverSpec": ".driver",
        "driver_spec": ".driver",
        "driver_style_names": ".driver",
        "TRIP_PLANS": ".trip_plans",
        "ZONE_KINDS": ".trip_plans",
        "TripPlanSpec": ".trip_plans",
        "ZoneKind": ".trip_plans",
        "trip_plan": ".trip_plans",
        "trip_plan_names": ".trip_plans",
        "VEHICLE_COHORTS": ".vehicle",
        "VehicleCohortSpec": ".vehicle",
        "vehicle_cohort": ".vehicle",
        "vehicle_cohort_names": ".vehicle",
    },
)
