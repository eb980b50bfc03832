"""Fuel-aware route planning on gradient-annotated roads.

The paper's motivating application (Sec IV-C): once per-road gradients are
known, route planners can minimize *fuel* instead of distance. This example
compares the shortest-distance route with the least-fuel route between two
corners of the synthetic city — hills make them diverge.

Run:  python examples/fuel_aware_routing.py
"""

import numpy as np

from repro.apps.routing import compare_routes
from repro.datasets.charlottesville import city_network


def describe(city, nodes, km, fuel, label):
    climb = float(np.sum(np.maximum(np.diff(city.route_profile(nodes).z), 0.0)))
    print(f"  {label}:")
    print(f"    {len(nodes) - 1} road segments, {km:.2f} km")
    print(f"    total climb {climb:.0f} m, fuel {fuel:.3f} gal "
          f"({fuel / km * 100:.2f} gal/100km)")


def main() -> None:
    city = city_network(target_length_km=60.0)
    nodes = sorted(city.graph.nodes)
    origin, destination = nodes[0], nodes[-1]
    print(f"Routing {origin} -> {destination} at 40 km/h\n")

    cmp = compare_routes(city, origin, destination)
    describe(city, cmp.shortest_nodes, cmp.shortest_km, cmp.shortest_fuel,
             "shortest-distance route")
    describe(city, cmp.greenest_nodes, cmp.greenest_km, cmp.greenest_fuel,
             "least-fuel route")

    print(f"\nLeast-fuel route saves {cmp.fuel_saving * 100.0:.1f}% fuel "
          f"for {cmp.extra_distance * 100.0:+.1f}% distance.")
    if not cmp.routes_differ:
        print("(Routes coincide here — flat terrain between these corners.)")


if __name__ == "__main__":
    main()
