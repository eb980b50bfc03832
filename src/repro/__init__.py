"""Road gradient estimation using smartphones — ICDCS 2019 reproduction.

A complete implementation of the paper's system (coordinate alignment,
lane-change detection, EKF gradient estimation, track fusion) together with
every substrate its evaluation needs: synthetic roads and terrain, vehicle
and driver simulation, a full smartphone sensor suite, the compared
baselines, and the VSP fuel / emission application layer.

Quickstart::

    from repro import red_route, simulate_trip, Smartphone, GradientEstimationSystem

    route = red_route()
    trace = simulate_trip(route, seed=1)
    recording = Smartphone().record(trace)
    result = GradientEstimationSystem(route).estimate(recording)
    print(result.fused.theta)          # estimated gradient [rad] along the route
"""

import importlib
from typing import Any, Callable


def _lazy_exports(
    namespace: dict[str, Any], exports: dict[str, str]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` of a package facade.

    ``exports`` maps each public name to the module, relative to the
    package whose globals are ``namespace``, that defines it. A name's
    module is imported on first access (PEP 562) and the value is stored
    in ``namespace``, so later lookups never reach ``__getattr__``. Every
    package ``__init__`` in ``repro`` is one such map: importing a package
    imports none of its modules.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | exports.keys())

    return list(exports), __getattr__, __dir__


__version__ = "1.0.0"

__all__, __getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "compare_routes": ".apps.routing",
        "least_fuel_route": ".apps.routing",
        "optimize_velocity_profile": ".apps.velocity_optimizer",
        "reconstruct_elevation": ".apps.elevation",
        "ANNBaselineConfig": ".baselines.ann",
        "ANNGradientEstimator": ".baselines.ann",
        "estimate_gradient_ekf_baseline": ".baselines.ekf_altitude",
        "SerializableConfig": ".config",
        "ROBUST_STAGES": ".core.stages",
        "EstimationResult": ".core.pipeline",
        "GradientEKFConfig": ".core.gradient_ekf",
        "GradientEstimationSystem": ".core.pipeline",
        "GradientFilterCore": ".core.gradient_ekf",
        "GradientSystemConfig": ".core.pipeline",
        "GradientTrack": ".core.track",
        "LaneChangeDetector": ".core.lane_change.detector",
        "LaneChangeDetectorConfig": ".core.lane_change.detector",
        "LaneChangeEvent": ".core.lane_change.detector",
        "LaneChangeThresholds": ".core.lane_change.features",
        "PipelineContext": ".core.stages",
        "SanitizeConfig": ".core.sanitize",
        "Stage": ".core.stages",
        "estimate_track": ".core.gradient_ekf",
        "fuse_estimates": ".core.pipeline",
        "fuse_tracks": ".core.track_fusion",
        "register_stage": ".core.stages",
        "calibrated_thresholds": ".datasets.steering_study",
        "city_network": ".datasets.charlottesville",
        "red_route": ".datasets.charlottesville",
        "run_steering_study": ".datasets.steering_study",
        "s_curve_route": ".datasets.charlottesville",
        "CO2": ".emissions.pollution",
        "PM25": ".emissions.pollution",
        "FuelModel": ".emissions.vsp",
        "gradient_fuel_uplift": ".emissions.fuel",
        "network_emission_map": ".emissions.traffic",
        "DegradedInputError": ".errors",
        "FaultInjectionError": ".errors",
        "ReproError": ".errors",
        "ComparisonResult": ".eval.runner",
        "RunnerConfig": ".eval.runner",
        "evaluate_fusion_counts": ".eval.runner",
        "evaluate_methods": ".eval.runner",
        "FAULT_KINDS": ".faults.suite",
        "FaultSpec": ".faults.suite",
        "FaultSuiteConfig": ".faults.suite",
        "apply_fault_suite": ".faults.suite",
        "NullTelemetry": ".obs.telemetry",
        "Telemetry": ".obs.telemetry",
        "export_run": ".obs.export",
        "telemetry_enabled": ".obs.logging",
        "SCENARIOS": ".scenarios.config",
        "DriverSpec": ".scenarios.driver",
        "ScenarioConfig": ".scenarios.config",
        "TripPlanSpec": ".scenarios.trip_plans",
        "VehicleCohortSpec": ".scenarios.vehicle",
        "scenario_by_name": ".scenarios.config",
        "RoadNetwork": ".roads.network",
        "RoadProfile": ".roads.profile",
        "SectionSpec": ".roads.builder",
        "build_profile": ".roads.builder",
        "generate_city_network": ".roads.generator",
        "survey_reference_profile": ".roads.reference",
        "PhoneRecording": ".sensors.phone",
        "Smartphone": ".sensors.phone",
        "DriverProfile": ".vehicle.driver",
        "TruthTrace": ".vehicle.trip",
        "VehicleParams": ".vehicle.params",
        "simulate_trip": ".vehicle.simulator",
    },
)
__all__.append("__version__")
