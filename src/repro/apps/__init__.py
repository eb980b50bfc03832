"""Applications built on the gradient estimates (paper Sec IV-C + intro).

* :mod:`velocity_optimizer` — fuel-optimal speed profiles over gradients;
* :mod:`elevation` — road elevation reconstruction from gradient tracks;
* :mod:`routing` — least-fuel route planning.

Cross-vehicle cloud fusion (Eq 6 over many trips' estimates) is
:func:`repro.core.fuse_estimates`.
"""

from .elevation import ElevationEstimate, climb_statistics, reconstruct_elevation
from .routing import RouteComparison, compare_routes, edge_fuel_cost, least_fuel_route
from .velocity_optimizer import (
    VelocityOptimizerConfig,
    VelocityPlan,
    optimize_velocity_profile,
)

__all__ = [
    "ElevationEstimate",
    "climb_statistics",
    "reconstruct_elevation",
    "RouteComparison",
    "compare_routes",
    "edge_fuel_cost",
    "least_fuel_route",
    "VelocityOptimizerConfig",
    "VelocityPlan",
    "optimize_velocity_profile",
]
