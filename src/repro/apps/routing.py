"""Fuel-aware routing over gradient-annotated road networks (Sec IV-C).

The paper's application claim: gradient-aware fuel maps "can be applied
into vehicle routing plan area to determine the best route to minimize the
fuel consumption". These helpers compute per-edge fuel costs — from true
profiles or from any ``gradient_lookup`` callable that returns an edge's
gradients (e.g. estimates fused across trips by
:func:`~repro.core.fuse_estimates`) — and run the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable

import numpy as np

from ..constants import KMH
from ..emissions.fuel import route_fuel_gallons
from ..emissions.vsp import FuelModel
from ..errors import RouteError
from ..roads.network import RoadEdge, RoadNetwork

__all__ = ["RouteComparison", "edge_fuel_cost", "least_fuel_route", "compare_routes"]


def edge_fuel_cost(
    edge: RoadEdge,
    speed: float = 40.0 * KMH,
    model: FuelModel | None = None,
    gradient_lookup: Callable[[RoadEdge], np.ndarray] | None = None,
) -> float:
    """Fuel [gallons] to drive one road edge at a constant speed.

    ``gradient_lookup(edge)`` substitutes estimated gradients sampled on
    ``edge.profile.s``; default uses the edge's true profile.
    """
    theta = (
        np.asarray(gradient_lookup(edge), dtype=float)
        if gradient_lookup is not None
        else edge.profile.grade
    )
    return route_fuel_gallons(theta, edge.profile.s, speed, model)


def least_fuel_route(
    network: RoadNetwork,
    origin: Hashable,
    destination: Hashable,
    speed: float = 40.0 * KMH,
    model: FuelModel | None = None,
    gradient_lookup: Callable[[RoadEdge], np.ndarray] | None = None,
) -> list[Hashable]:
    """The minimum-fuel node path between two intersections."""
    model = model or FuelModel()
    return network.shortest_route(
        origin,
        destination,
        weight=lambda e: edge_fuel_cost(e, speed, model, gradient_lookup),
    )


@dataclass(frozen=True)
class RouteComparison:
    """Shortest-distance vs least-fuel route figures."""

    shortest_nodes: tuple
    greenest_nodes: tuple
    shortest_km: float
    greenest_km: float
    shortest_fuel: float
    greenest_fuel: float

    @property
    def fuel_saving(self) -> float:
        """Relative fuel saved by the least-fuel route."""
        return 1.0 - self.greenest_fuel / self.shortest_fuel

    @property
    def extra_distance(self) -> float:
        """Relative extra distance the least-fuel route drives."""
        return self.greenest_km / self.shortest_km - 1.0

    @property
    def routes_differ(self) -> bool:
        """Whether the hills actually changed the route."""
        return self.shortest_nodes != self.greenest_nodes


def compare_routes(
    network: RoadNetwork,
    origin: Hashable,
    destination: Hashable,
    speed: float = 40.0 * KMH,
    model: FuelModel | None = None,
    gradient_lookup: Callable[[RoadEdge], np.ndarray] | None = None,
) -> RouteComparison:
    """Compare the shortest-distance and least-fuel routes."""
    model = model or FuelModel()
    shortest = network.shortest_route(origin, destination)
    greenest = least_fuel_route(
        network, origin, destination, speed, model, gradient_lookup
    )

    def stats(nodes):
        profile = network.route_profile(nodes)
        fuel = route_fuel_gallons(profile.grade, profile.s, speed, model)
        return profile.length / 1000.0, fuel

    km_s, fuel_s = stats(shortest)
    km_g, fuel_g = stats(greenest)
    if fuel_s <= 0.0:
        raise RouteError("shortest route burns no fuel — degenerate network")
    return RouteComparison(
        shortest_nodes=tuple(shortest),
        greenest_nodes=tuple(greenest),
        shortest_km=km_s,
        greenest_km=km_g,
        shortest_fuel=fuel_s,
        greenest_fuel=fuel_g,
    )
