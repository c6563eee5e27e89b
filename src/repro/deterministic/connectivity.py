"""Vertex connectivity utilities for deterministic backbones.

Used by the network-reliability module (a possible world "counts" when it is
connected), by the experiment harness when it reports connected components of
decomposition outputs, and by tests.
"""

from __future__ import annotations

from repro.graph.probabilistic_graph import ProbabilisticGraph, Vertex

__all__ = ["connected_components", "is_connected", "largest_component"]


def connected_components(graph: ProbabilisticGraph) -> list[set[Vertex]]:
    """Return the vertex sets of the connected components of the backbone."""
    unvisited = set(graph.vertices())
    components: list[set[Vertex]] = []
    while unvisited:
        start = unvisited.pop()
        component = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for neighbor in graph.neighbors(current):
                if neighbor not in component:
                    component.add(neighbor)
                    frontier.append(neighbor)
        unvisited -= component
        components.append(component)
    return components


def is_connected(graph: ProbabilisticGraph) -> bool:
    """Return ``True`` if the backbone has exactly one connected component.

    The empty graph is considered disconnected; a single isolated vertex is
    connected.
    """
    if graph.num_vertices == 0:
        return False
    return len(connected_components(graph)) == 1


def largest_component(graph: ProbabilisticGraph) -> ProbabilisticGraph:
    """Return the induced subgraph of the largest connected component."""
    components = connected_components(graph)
    if not components:
        return ProbabilisticGraph()
    biggest = max(components, key=len)
    return graph.subgraph(biggest)
