"""Deterministic k-truss decomposition.

A *k-truss* is a maximal subgraph in which every edge is contained in at
least ``k`` triangles (this library uses the "support ≥ k" convention of the
paper rather than the ``k - 2`` convention; the two differ only by an offset).
In the nucleus framework the k-truss is the ``(2, 3)``-nucleus: r-cliques are
edges and s-cliques are triangles.

The decomposition assigns every edge its *truss number*: the largest ``k``
such that the edge belongs to a k-truss.  The implementation peels edges of
minimum triangle support, decrementing the support of the two other edges of
each destroyed triangle.
"""

from __future__ import annotations

from repro.exceptions import InvalidParameterError
from repro.graph.probabilistic_graph import Edge, ProbabilisticGraph, canonical_edge
from repro.peeling import LazyMinHeap, canonical_rank

__all__ = ["edge_supports", "truss_decomposition", "k_truss_subgraph", "max_truss_number"]


def edge_supports(graph: ProbabilisticGraph) -> dict[Edge, int]:
    """Return the triangle support of every edge of the deterministic backbone."""
    supports: dict[Edge, int] = {}
    for u, v, _ in graph.edges():
        supports[canonical_edge(u, v)] = len(graph.common_neighbors(u, v))
    return supports


def truss_decomposition(graph: ProbabilisticGraph) -> dict[Edge, int]:
    """Return the truss number of every edge.

    Peels edges in non-decreasing order of residual support using a lazy
    min-heap; the truss number of an edge is the peel level at which it is
    removed, clamped to be monotone non-decreasing over the peel sequence.
    """
    supports = edge_supports(graph)
    alive: set[Edge] = set(supports)
    adjacency: dict = {v: set(graph.neighbors(v)) for v in graph.vertices()}

    rank = canonical_rank(graph.vertices())
    heap = LazyMinHeap(((s, e) for e, s in supports.items()), rank=rank)

    def current(edge: Edge) -> int | None:
        return supports[edge] if edge in alive else None

    truss: dict[Edge, int] = {}
    current_level = 0

    while (entry := heap.pop(current)) is not None:
        _, edge = entry
        current_level = max(current_level, supports[edge])
        truss[edge] = current_level
        alive.remove(edge)
        u, v = edge
        adjacency[u].discard(v)
        adjacency[v].discard(u)
        for w in adjacency[u] & adjacency[v]:
            for other in (canonical_edge(u, w), canonical_edge(v, w)):
                if other in alive and supports[other] > current_level:
                    supports[other] -= 1
                    heap.push(supports[other], other)
    return truss


def k_truss_subgraph(graph: ProbabilisticGraph, k: int) -> ProbabilisticGraph:
    """Return the maximal subgraph whose edges all have truss number at least ``k``.

    Raises
    ------
    InvalidParameterError
        If ``k`` is negative.
    """
    if k < 0:
        raise InvalidParameterError(f"k must be non-negative, got {k}")
    truss = truss_decomposition(graph)
    keep = [edge for edge, t in truss.items() if t >= k]
    return graph.edge_subgraph(keep)


def max_truss_number(graph: ProbabilisticGraph) -> int:
    """Return the maximum truss number over all edges (0 for a triangle-free graph)."""
    truss = truss_decomposition(graph)
    return max(truss.values(), default=0)
