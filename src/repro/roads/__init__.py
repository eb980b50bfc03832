"""Road substrate: geometry, terrain, profiles, networks, reference survey."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "SectionSpec": ".builder",
        "build_profile": ".builder",
        "s_curve_specs": ".builder",
        "CachedRoadProfile": ".cache",
        "LRUCache": ".cache",
        "ConstantSlopeField": ".elevation",
        "ElevationField": ".elevation",
        "FlatField": ".elevation",
        "CityGeneratorConfig": ".generator",
        "generate_city_network": ".generator",
        "GeoPoint": ".geometry",
        "LocalFrame": ".geometry",
        "Polyline": ".geometry",
        "east_angle": ".geometry",
        "haversine_m": ".geometry",
        "unwrap_angles": ".geometry",
        "wrap_angle": ".geometry",
        "RoadEdge": ".network",
        "RoadNetwork": ".network",
        "concatenate_profiles": ".network",
        "PriorGradeMap": ".prior_map",
        "PriorMapConfig": ".prior_map",
        "RoadProfile": ".profile",
        "RoadSection": ".profile",
        "ReferenceProfile": ".reference",
        "ReferenceSurveyConfig": ".reference",
        "survey_reference_profile": ".reference",
    },
)
