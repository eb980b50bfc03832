"""Road networks: a graph of intersections joined by road profiles.

Wraps :mod:`networkx` so routes (node sequences) can be resolved into a
single concatenated :class:`~repro.roads.profile.RoadProfile` ready for
simulation, and so applications (fuel-aware routing, emission maps) can run
graph algorithms with physically meaningful edge weights. ``networkx`` is
imported by the methods that use it, so ``import repro`` and the per-trip
estimation path never load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterator

import numpy as np

from ..errors import RouteError
from .profile import RoadProfile

__all__ = ["RoadEdge", "RoadNetwork", "concatenate_profiles"]


@dataclass
class RoadEdge:
    """One directed road segment between two intersections."""

    u: Hashable
    v: Hashable
    profile: RoadProfile
    road_class: str = "residential"
    aadt: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def length(self) -> float:
        """Edge length in metres."""
        return self.profile.length


def concatenate_profiles(profiles: list[RoadProfile], name: str = "route") -> RoadProfile:
    """Stitch consecutive road profiles into one continuous profile.

    Elevation and position are taken as-is (the network generator guarantees
    they agree at shared intersections); headings of later pieces are shifted
    by multiples of 2*pi so the concatenated heading array stays unwrapped.
    GPS outage intervals are carried over with shifted arc lengths.
    """
    if not profiles:
        raise RouteError("cannot concatenate zero profiles")
    if len(profiles) == 1:
        return profiles[0]

    s_parts: list[np.ndarray] = []
    xy_parts: list[np.ndarray] = []
    z_parts: list[np.ndarray] = []
    grade_parts: list[np.ndarray] = []
    heading_parts: list[np.ndarray] = []
    curv_parts: list[np.ndarray] = []
    lane_parts: list[np.ndarray] = []
    outages: list[tuple[float, float]] = []
    sections = []

    offset = 0.0
    prev_heading_end: float | None = None
    for i, prof in enumerate(profiles):
        sl = slice(1, None) if i > 0 else slice(None)
        heading = prof.heading.copy()
        if prev_heading_end is not None:
            jump = heading[0] - prev_heading_end
            heading -= 2.0 * np.pi * np.round(jump / (2.0 * np.pi))
        prev_heading_end = heading[-1]

        s_parts.append(prof.s[sl] + offset)
        xy_parts.append(prof.xy[sl])
        z_parts.append(prof.z[sl])
        grade_parts.append(prof.grade[sl])
        heading_parts.append(heading[sl])
        curv_parts.append(prof.curvature[sl])
        lane_parts.append(prof.lanes[sl])
        outages.extend((a + offset, b + offset) for a, b in prof.gps_outages)
        for sec in prof.sections:
            sections.append(
                type(sec)(
                    name=sec.name,
                    s_start=sec.s_start + offset,
                    s_end=sec.s_end + offset,
                    lanes=sec.lanes,
                    mean_grade=sec.mean_grade,
                )
            )
        offset += prof.length

    return RoadProfile(
        s=np.concatenate(s_parts),
        xy=np.concatenate(xy_parts),
        z=np.concatenate(z_parts),
        grade=np.concatenate(grade_parts),
        heading=np.concatenate(heading_parts),
        curvature=np.concatenate(curv_parts),
        lanes=np.concatenate(lane_parts),
        name=name,
        sections=sections,
        gps_outages=outages,
        frame=profiles[0].frame,
    )


class RoadNetwork:
    """A directed road graph whose edges carry full road profiles."""

    def __init__(self, name: str = "network") -> None:
        import networkx as nx

        self.name = name
        self.graph = nx.DiGraph()

    # -- construction ------------------------------------------------------

    def add_intersection(self, node: Hashable, x: float, y: float, z: float = 0.0) -> None:
        """Register an intersection at planar position (x, y), elevation z."""
        self.graph.add_node(node, x=float(x), y=float(y), z=float(z))

    def add_road(self, edge: RoadEdge, bidirectional: bool = True) -> None:
        """Add a road segment; by default also adds the reverse direction.

        The reverse direction reuses the same profile object but is marked
        ``reversed=True``; :meth:`route_profile` flips it on demand.
        """
        self.graph.add_edge(edge.u, edge.v, edge=edge, reversed=False)
        if bidirectional:
            self.graph.add_edge(edge.v, edge.u, edge=edge, reversed=True)

    # -- queries -----------------------------------------------------------

    @property
    def total_length(self) -> float:
        """Sum of unique road lengths in metres (each road counted once)."""
        seen: set[int] = set()
        total = 0.0
        for _, _, data in self.graph.edges(data=True):
            key = id(data["edge"])
            if key not in seen:
                seen.add(key)
                total += data["edge"].length
        return total

    def edges(self) -> Iterator[RoadEdge]:
        """Iterate unique road edges (forward direction only)."""
        for _, _, data in self.graph.edges(data=True):
            if not data["reversed"]:
                yield data["edge"]

    def edge_between(self, u: Hashable, v: Hashable) -> RoadEdge:
        """The road edge from u to v (raises RouteError if absent)."""
        if not self.graph.has_edge(u, v):
            raise RouteError(f"no road from {u!r} to {v!r}")
        return self.graph.edges[u, v]["edge"]

    def route_profile(self, nodes: list[Hashable], name: str | None = None) -> RoadProfile:
        """Resolve a node sequence into one concatenated road profile."""
        if len(nodes) < 2:
            raise RouteError("a route needs at least two nodes")
        profiles = []
        for u, v in zip(nodes[:-1], nodes[1:]):
            if not self.graph.has_edge(u, v):
                raise RouteError(f"no road from {u!r} to {v!r}")
            data = self.graph.edges[u, v]
            prof = data["edge"].profile
            profiles.append(_reverse_profile(prof) if data["reversed"] else prof)
        return concatenate_profiles(profiles, name=name or "->".join(map(str, nodes)))

    def coverage_tour(
        self,
        start: Hashable | None = None,
        max_length_m: float | None = None,
    ) -> list[Hashable]:
        """A continuous route that covers as many distinct roads as possible.

        Greedy route inspection: take an unvisited incident road when one
        exists, otherwise hop (via shortest path) to the nearest node that
        still has unvisited roads. Used by the large-scale experiment
        (Fig 9), where the paper drives an entire city's road network.
        Stops once ``max_length_m`` of driving is accumulated.
        """
        if self.graph.number_of_edges() == 0:
            raise RouteError("network has no roads")
        if start is None:
            start = min(self.graph.nodes)
        unvisited: set[int] = {id(e) for e in self.edges()}
        tour: list[Hashable] = [start]
        total = 0.0
        current = start
        while unvisited:
            if max_length_m is not None and total >= max_length_m:
                break
            next_edge = None
            for _, v, data in self.graph.edges(current, data=True):
                if id(data["edge"]) in unvisited:
                    next_edge = (v, data["edge"])
                    break
            if next_edge is not None:
                v, edge = next_edge
                unvisited.discard(id(edge))
                tour.append(v)
                total += edge.length
                current = v
                continue
            # Hop to the closest node that still has unvisited roads.
            hop = self._nearest_with_unvisited(current, unvisited)
            if hop is None:
                break
            for u, v in zip(hop[:-1], hop[1:]):
                edge = self.graph.edges[u, v]["edge"]
                unvisited.discard(id(edge))
                total += edge.length
                tour.append(v)
            current = tour[-1]
        if len(tour) < 2:
            raise RouteError("coverage tour could not leave the start node")
        return tour

    def _nearest_with_unvisited(
        self, source: Hashable, unvisited: set[int]
    ) -> list[Hashable] | None:
        import networkx as nx

        lengths, paths = nx.single_source_dijkstra(
            self.graph, source, weight=lambda u, v, d: d["edge"].length
        )
        best = None
        best_len = float("inf")
        for node, dist in lengths.items():
            if node == source or dist >= best_len:
                continue
            if any(
                id(d["edge"]) in unvisited for _, _, d in self.graph.edges(node, data=True)
            ):
                best, best_len = node, dist
        return paths.get(best) if best is not None else None

    def shortest_route(
        self,
        source: Hashable,
        target: Hashable,
        weight: Callable[[RoadEdge], float] | None = None,
    ) -> list[Hashable]:
        """Shortest node path by road length, or by a custom edge cost."""
        import networkx as nx

        if weight is None:
            def cost(u, v, data):
                return data["edge"].length
        else:
            def cost(u, v, data):
                return weight(data["edge"])
        try:
            return nx.shortest_path(self.graph, source, target, weight=cost)
        except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
            raise RouteError(f"no route from {source!r} to {target!r}") from exc


def _reverse_profile(profile: RoadProfile) -> RoadProfile:
    """Travel a profile in the opposite direction.

    Arc length restarts at zero from the far end; grades flip sign, headings
    rotate by pi, and curvature flips sign.
    """
    s = profile.length - profile.s[::-1]
    outages = [
        (profile.length - b, profile.length - a) for a, b in profile.gps_outages
    ]
    sections = [
        type(sec)(
            name=sec.name,
            s_start=profile.length - sec.s_end,
            s_end=profile.length - sec.s_start,
            lanes=sec.lanes,
            mean_grade=-sec.mean_grade,
        )
        for sec in reversed(profile.sections)
    ]
    return RoadProfile(
        s=s,
        xy=profile.xy[::-1].copy(),
        z=profile.z[::-1].copy(),
        grade=-profile.grade[::-1],
        heading=np.unwrap(profile.heading[::-1] + np.pi),
        curvature=-profile.curvature[::-1],
        lanes=profile.lanes[::-1].copy(),
        name=f"{profile.name}(reversed)",
        sections=sections,
        gps_outages=outages,
        frame=profile.frame,
    )
