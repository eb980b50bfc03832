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

from .apps import (
    compare_routes,
    least_fuel_route,
    optimize_velocity_profile,
    reconstruct_elevation,
)
from .baselines import (
    ANNBaselineConfig,
    ANNGradientEstimator,
    estimate_gradient_ekf_baseline,
)
from .config import SerializableConfig
from .core import (
    ROBUST_STAGES,
    EstimationResult,
    GradientEKFConfig,
    GradientEstimationSystem,
    GradientFilterCore,
    GradientSystemConfig,
    GradientTrack,
    LaneChangeDetector,
    LaneChangeDetectorConfig,
    LaneChangeEvent,
    LaneChangeThresholds,
    PipelineContext,
    SanitizeConfig,
    Stage,
    estimate_track,
    fuse_estimates,
    fuse_tracks,
    register_stage,
)
from .datasets import (
    calibrated_thresholds,
    city_network,
    red_route,
    run_steering_study,
    s_curve_route,
)
from .emissions import CO2, PM25, FuelModel, gradient_fuel_uplift, network_emission_map
from .errors import DegradedInputError, FaultInjectionError, ReproError
from .eval import ComparisonResult, RunnerConfig, evaluate_fusion_counts, evaluate_methods
from .faults import FAULT_KINDS, FaultSpec, FaultSuiteConfig, apply_fault_suite
from .obs import NullTelemetry, Telemetry, export_run, telemetry_enabled
from .scenarios import (
    SCENARIOS,
    DriverSpec,
    ScenarioConfig,
    TripPlanSpec,
    VehicleCohortSpec,
    scenario_by_name,
)
from .roads import (
    RoadNetwork,
    RoadProfile,
    SectionSpec,
    build_profile,
    generate_city_network,
    survey_reference_profile,
)
from .sensors import PhoneRecording, Smartphone
from .vehicle import DriverProfile, TruthTrace, VehicleParams, simulate_trip

__version__ = "1.0.0"

__all__ = [
    "compare_routes",
    "least_fuel_route",
    "optimize_velocity_profile",
    "reconstruct_elevation",
    "ANNBaselineConfig",
    "ANNGradientEstimator",
    "estimate_gradient_ekf_baseline",
    "EstimationResult",
    "GradientEKFConfig",
    "GradientEstimationSystem",
    "GradientFilterCore",
    "GradientSystemConfig",
    "GradientTrack",
    "LaneChangeDetector",
    "LaneChangeDetectorConfig",
    "LaneChangeEvent",
    "LaneChangeThresholds",
    "PipelineContext",
    "ROBUST_STAGES",
    "SanitizeConfig",
    "SerializableConfig",
    "Stage",
    "estimate_track",
    "fuse_estimates",
    "fuse_tracks",
    "register_stage",
    "calibrated_thresholds",
    "city_network",
    "red_route",
    "run_steering_study",
    "s_curve_route",
    "CO2",
    "PM25",
    "FuelModel",
    "gradient_fuel_uplift",
    "network_emission_map",
    "ReproError",
    "DegradedInputError",
    "FaultInjectionError",
    "FAULT_KINDS",
    "FaultSpec",
    "FaultSuiteConfig",
    "SCENARIOS",
    "DriverSpec",
    "ScenarioConfig",
    "TripPlanSpec",
    "VehicleCohortSpec",
    "scenario_by_name",
    "apply_fault_suite",
    "NullTelemetry",
    "Telemetry",
    "export_run",
    "telemetry_enabled",
    "ComparisonResult",
    "RunnerConfig",
    "evaluate_fusion_counts",
    "evaluate_methods",
    "RoadNetwork",
    "RoadProfile",
    "SectionSpec",
    "build_profile",
    "generate_city_network",
    "survey_reference_profile",
    "PhoneRecording",
    "Smartphone",
    "DriverProfile",
    "TruthTrace",
    "VehicleParams",
    "simulate_trip",
    "__version__",
]
