"""Application layer: VSP fuel model, pollution factors, traffic maps."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "RoadFuelSummary": ".fuel",
        "gradient_fuel_uplift": ".fuel",
        "network_fuel_map": ".fuel",
        "profile_fuel_rate": ".fuel",
        "route_fuel_gallons": ".fuel",
        "CO2": ".pollution",
        "PM25": ".pollution",
        "EmissionFactor": ".pollution",
        "emission_grams": ".pollution",
        "RoadEmissionSummary": ".traffic",
        "hourly_flow_from_aadt": ".traffic",
        "network_emission_map": ".traffic",
        "FuelModel": ".vsp",
        "fuel_rate_gph": ".vsp",
    },
)
