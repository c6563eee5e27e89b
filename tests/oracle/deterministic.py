"""Dict-engine oracle of the deterministic (3, 4)-nucleus functions.

The seed-era label-space implementations that
:mod:`repro.deterministic.nucleus` replaced with the engine: the
:class:`~repro.peeling.LazyMinHeap` peel of :func:`nucleus_decomposition`,
the three-condition predicate :func:`is_k_nucleus`, and the clique helpers
only tests call (:func:`triangle_supports`,
:func:`four_cliques_containing_triangle`, :func:`enumerate_k_cliques`).
The library's functions keep these names and are pinned to them.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.deterministic.cliques import (
    FourClique,
    Triangle,
    canonical_four_clique,
    enumerate_triangles,
    triangle_clique_index,
    triangle_connected_components,
)
from repro.exceptions import check_level
from repro.graph.probabilistic_graph import (
    Edge,
    ProbabilisticGraph,
    Vertex,
    canonical_edge,
    label_sort_key,
)
from repro.peeling import LazyMinHeap, canonical_rank


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


def is_k_nucleus(graph: ProbabilisticGraph, k: int) -> bool:
    """Check whether the graph itself satisfies the k-(3,4)-nucleus conditions.

    The three conditions of Definition 3: union of 4-cliques, per-triangle
    support at least ``k``, and 4-clique connectivity between all triangle
    pairs.  An edgeless graph is not considered a nucleus.
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


def four_cliques_containing_triangle(
    graph: ProbabilisticGraph, triangle: Triangle
) -> list[FourClique]:
    """Return all 4-cliques of the graph that contain the given triangle.

    The completing vertices are exactly the common neighbors of the
    triangle's three vertices, so the 4-clique support of the triangle
    (Definition 1) is the length of the returned list.
    """
    u, v, w = triangle
    return [
        canonical_four_clique(u, v, w, z)
        for z in sorted(graph.common_neighbors(u, v, w), key=label_sort_key)
    ]


def triangle_supports(graph: ProbabilisticGraph) -> dict[Triangle, int]:
    """Return the 4-clique support of every triangle in the graph (0 included)."""
    supports: dict[Triangle, int] = {}
    for triangle in enumerate_triangles(graph):
        u, v, w = triangle
        supports[triangle] = len(graph.common_neighbors(u, v, w))
    return supports


def enumerate_k_cliques(graph: ProbabilisticGraph, k: int) -> Iterator[tuple[Vertex, ...]]:
    """Enumerate all cliques of exactly ``k`` vertices, as sorted tuples.

    A simple ordered backtracking enumeration, for the small ``k`` of the
    tests.
    """
    if k < 1:
        return
    order = sorted(graph.vertices(), key=label_sort_key)
    position = {v: i for i, v in enumerate(order)}

    def extend(clique: list[Vertex], candidates: list[Vertex]) -> Iterator[tuple[Vertex, ...]]:
        if len(clique) == k:
            yield tuple(clique)
            return
        for i, v in enumerate(candidates):
            new_candidates = [
                w for w in candidates[i + 1:] if graph.has_edge(v, w)
            ]
            if len(clique) + 1 + len(new_candidates) >= k:
                yield from extend(clique + [v], new_candidates)

    if k == 1:
        for v in order:
            yield (v,)
        return
    for i, v in enumerate(order):
        candidates = [w for w in graph.neighbors(v) if position[w] > i]
        candidates.sort(key=lambda w: position[w])
        yield from extend([v], candidates)
