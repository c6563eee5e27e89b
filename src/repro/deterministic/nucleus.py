"""Deterministic (3, 4)-nucleus decomposition (Sarıyüce et al.).

A ``k-(3,4)``-nucleus is a maximal subgraph ``H`` such that

1. every edge of ``H`` belongs to a 4-clique of ``H`` (``H`` is a union of
   4-cliques),
2. every triangle of ``H`` is contained in at least ``k`` 4-cliques of ``H``,
3. every pair of triangles of ``H`` is 4-clique-connected within ``H``.

This module implements:

* :func:`nucleus_decomposition` — the peeling algorithm assigning each
  triangle its *nucleusness* (the largest ``k`` for which it belongs to a
  k-nucleus),
* :func:`k_nucleus_subgraphs` — the maximal k-nuclei as edge subgraphs,
* :func:`is_k_nucleus` — the predicate used by the global probabilistic
  algorithm, which must decide whether a sampled possible world is itself a
  deterministic k-nucleus,
* :func:`max_nucleus_number` — the largest non-trivial nucleusness.

The probabilistic algorithms of :mod:`repro.core` reuse the same peeling
skeleton with probabilistic support scores.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.deterministic.cliques import (
    Triangle,
    triangle_clique_index,
    triangle_connected_components,
)
from repro.exceptions import check_level
from repro.graph.probabilistic_graph import Edge, ProbabilisticGraph, canonical_edge
from repro.peeling import LazyMinHeap, canonical_rank

__all__ = [
    "nucleus_decomposition",
    "k_nucleus_subgraphs",
    "k_nucleus_triangle_groups",
    "is_k_nucleus",
    "max_nucleus_number",
    "triangles_to_edge_subgraph",
]


def nucleus_decomposition(graph: ProbabilisticGraph) -> dict[Triangle, int]:
    """Return the nucleusness of every triangle of the deterministic backbone.

    Peels triangles in non-decreasing order of residual 4-clique support.
    When a triangle is peeled every 4-clique containing it is destroyed and
    the supports of the clique's surviving triangles drop accordingly.  The
    nucleusness assigned to a triangle is the peel level at removal, which is
    monotone non-decreasing over the peel sequence.
    """
    by_triangle, by_clique = triangle_clique_index(graph)
    support = {t: len(cliques) for t, cliques in by_triangle.items()}
    alive_cliques = set(by_clique)
    processed: set[Triangle] = set()

    rank = canonical_rank(graph.vertices())
    heap = LazyMinHeap(((s, t) for t, s in support.items()), rank=rank)

    def current(triangle: Triangle) -> int | None:
        return None if triangle in processed else support[triangle]

    nucleusness: dict[Triangle, int] = {}
    current_level = 0

    while (entry := heap.pop(current)) is not None:
        _, triangle = entry
        current_level = max(current_level, support[triangle])
        nucleusness[triangle] = current_level
        processed.add(triangle)
        for clique in by_triangle[triangle]:
            if clique not in alive_cliques:
                continue
            alive_cliques.remove(clique)
            for other in by_clique[clique]:
                if other == triangle or other in processed:
                    continue
                if support[other] > current_level:
                    support[other] -= 1
                    heap.push(support[other], other)
    return nucleusness


def k_nucleus_triangle_groups(
    graph: ProbabilisticGraph,
    k: int,
    nucleusness: dict[Triangle, int] | None = None,
) -> list[set[Triangle]]:
    """Return the triangle sets of the maximal k-(3,4)-nuclei.

    Each returned set is one maximal group of triangles with nucleusness at
    least ``k`` that are mutually 4-clique-connected *through 4-cliques whose
    four triangles all qualify*.  Converting a group to an edge subgraph gives
    the corresponding k-nucleus (see :func:`triangles_to_edge_subgraph`).
    """
    check_level(k)
    if nucleusness is None:
        nucleusness = nucleus_decomposition(graph)
    qualifying = {t for t, value in nucleusness.items() if value >= k}
    if not qualifying:
        return []
    by_triangle, by_clique = triangle_clique_index(graph)
    allowed_cliques = {
        clique
        for clique, members in by_clique.items()
        if all(t in qualifying for t in members)
    }
    # Only triangles that still belong to at least one allowed 4-clique can be
    # part of a union-of-4-cliques subgraph (at k = 0 the only filter).
    covered = {
        t for t in qualifying
        if any(c in allowed_cliques for c in by_triangle.get(t, ()))
    }
    if not covered:
        return []
    return triangle_connected_components(covered, by_triangle, allowed_cliques)


def triangles_to_edge_subgraph(
    graph: ProbabilisticGraph, triangles: Iterable[Triangle]
) -> ProbabilisticGraph:
    """Return the subgraph of ``graph`` formed by the edges of the given triangles."""
    edges: set[Edge] = set()
    for u, v, w in triangles:
        edges.add(canonical_edge(u, v))
        edges.add(canonical_edge(u, w))
        edges.add(canonical_edge(v, w))
    return graph.edge_subgraph(edges)


def k_nucleus_subgraphs(
    graph: ProbabilisticGraph,
    k: int,
    nucleusness: dict[Triangle, int] | None = None,
) -> list[ProbabilisticGraph]:
    """Return the maximal k-(3,4)-nuclei of the graph as edge subgraphs."""
    groups = k_nucleus_triangle_groups(graph, k, nucleusness)
    return [triangles_to_edge_subgraph(graph, group) for group in groups]


def max_nucleus_number(graph: ProbabilisticGraph) -> int:
    """Return the maximum nucleusness over all triangles (0 if there are none)."""
    nucleusness = nucleus_decomposition(graph)
    return max(nucleusness.values(), default=0)


def is_k_nucleus(graph: ProbabilisticGraph, k: int) -> bool:
    """Check whether the graph itself satisfies the k-(3,4)-nucleus conditions.

    Used by the global probabilistic algorithm (indicator ``1_g`` of
    Definition 4): a sampled possible world counts only if the *entire world*
    is a deterministic k-nucleus.  The three conditions checked are exactly
    those of Definition 3: union of 4-cliques, per-triangle support at least
    ``k``, and 4-clique connectivity between all triangle pairs.  An edgeless
    graph is not considered a nucleus.
    """
    check_level(k)
    if graph.num_edges == 0:
        return False
    by_triangle, by_clique = triangle_clique_index(graph)
    if not by_clique:
        return False

    # Condition 1: every edge lies in some 4-clique.
    covered_edges: set[Edge] = set()
    for clique in by_clique:
        a, b, c, d = clique
        for x, y in ((a, b), (a, c), (a, d), (b, c), (b, d), (c, d)):
            covered_edges.add(canonical_edge(x, y))
    for u, v, _ in graph.edges():
        if canonical_edge(u, v) not in covered_edges:
            return False

    # Conditions 2 and 3 quantify over the triangles that belong to at least
    # one 4-clique.  A triangle contained in no 4-clique of the graph (an
    # *incidental* triangle whose edges are contributed by different
    # 4-cliques) is not part of the union-of-4-cliques structure, so it is
    # exempt from the support requirement, forms no component of its own,
    # and does not break connectivity; condition 1 already guarantees that
    # its edges are covered.
    in_some_clique = [t for t, cliques in by_triangle.items() if cliques]

    # Condition 2: every structural triangle has 4-clique support at least k.
    for triangle in in_some_clique:
        if len(by_triangle[triangle]) < k:
            return False

    # Condition 3: all structural triangles are mutually 4-clique-connected.
    components = triangle_connected_components(in_some_clique, by_triangle)
    return len(components) == 1
