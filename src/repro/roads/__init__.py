"""Road substrate: geometry, terrain, profiles, networks, reference survey."""

from .builder import SectionSpec, build_profile, s_curve_specs
from .cache import CachedRoadProfile, LRUCache
from .elevation import ConstantSlopeField, ElevationField, FlatField
from .generator import CityGeneratorConfig, generate_city_network
from .geometry import (
    GeoPoint,
    LocalFrame,
    Polyline,
    east_angle,
    haversine_m,
    unwrap_angles,
    wrap_angle,
)
from .network import RoadEdge, RoadNetwork, concatenate_profiles
from .prior_map import PriorGradeMap, PriorMapConfig
from .profile import RoadProfile, RoadSection
from .reference import ReferenceProfile, ReferenceSurveyConfig, survey_reference_profile

__all__ = [
    "SectionSpec",
    "build_profile",
    "s_curve_specs",
    "CachedRoadProfile",
    "LRUCache",
    "ConstantSlopeField",
    "ElevationField",
    "FlatField",
    "CityGeneratorConfig",
    "generate_city_network",
    "GeoPoint",
    "LocalFrame",
    "Polyline",
    "east_angle",
    "haversine_m",
    "unwrap_angles",
    "wrap_angle",
    "PriorGradeMap",
    "PriorMapConfig",
    "RoadEdge",
    "RoadNetwork",
    "concatenate_profiles",
    "RoadProfile",
    "RoadSection",
    "ReferenceProfile",
    "ReferenceSurveyConfig",
    "survey_reference_profile",
]
