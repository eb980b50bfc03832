"""Applications built on the gradient estimates (paper Sec IV-C + intro).

* :mod:`velocity_optimizer` — fuel-optimal speed profiles over gradients;
* :mod:`elevation` — road elevation reconstruction from gradient tracks;
* :mod:`routing` — least-fuel route planning.

Cross-vehicle cloud fusion (Eq 6 over many trips' estimates) is
:func:`repro.core.fuse_estimates`.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "ElevationEstimate": ".elevation",
        "climb_statistics": ".elevation",
        "reconstruct_elevation": ".elevation",
        "RouteComparison": ".routing",
        "compare_routes": ".routing",
        "edge_fuel_cost": ".routing",
        "least_fuel_route": ".routing",
        "VelocityOptimizerConfig": ".velocity_optimizer",
        "VelocityPlan": ".velocity_optimizer",
        "optimize_velocity_profile": ".velocity_optimizer",
    },
)
