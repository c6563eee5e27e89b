"""Deterministic (3, 4)-nucleus decomposition (Sarıyüce et al.).

A ``k-(3,4)``-nucleus is a maximal subgraph ``H`` such that

1. every edge of ``H`` belongs to a 4-clique of ``H`` (``H`` is a union of
   4-cliques),
2. every triangle of ``H`` is contained in at least ``k`` 4-cliques of ``H``,
3. every pair of triangles of ``H`` is 4-clique-connected within ``H``.

This module implements:

* :func:`nucleus_decomposition` — the nucleusness of every triangle (the
  largest ``k`` for which it belongs to a k-nucleus),
* :func:`k_nucleus_subgraphs` — the maximal k-nuclei as edge subgraphs,
* :func:`is_k_nucleus` — whether a graph is itself a k-nucleus, the
  predicate that the global probabilistic algorithm decides for every
  sampled possible world,
* :func:`max_nucleus_number` — the largest non-trivial nucleusness.

The deterministic case is the probabilistic one with every edge certain, so
both run on the engine of :mod:`repro.core`: :func:`nucleus_decomposition`
is the local peel of the backbone at θ = 1, and :func:`is_k_nucleus` the
world-matrix predicate of Algorithm 2 on the one world that holds every
edge.  The dict implementations they replaced are the test oracle
(``tests/oracle/deterministic.py``).
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.deterministic.cliques import (
    Triangle,
    label_triangles,
    triangle_clique_index,
    triangle_connected_components,
)
from repro.exceptions import check_level
from repro.graph.csr import CSRProbabilisticGraph
from repro.graph.probabilistic_graph import Edge, ProbabilisticGraph, canonical_edge

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

    The local peel of :mod:`repro.core` on the backbone, every edge present
    with probability 1, at θ = 1: a triangle's κ-score is then its residual
    4-clique support, and the level at which the peel removes it is its
    nucleusness.  Triangles come in the engine's row order.  In K5 each of
    the ten triangles lies in two 4-cliques:

    >>> from repro.graph.generators import clique_graph
    >>> scores = nucleus_decomposition(clique_graph(5))
    >>> len(scores), set(scores.values())
    (10, {2})
    """
    # repro.core imports this package at module level.
    from repro.core.approximations import DynamicProgrammingEstimator
    from repro.core.local import _csr_engine_arrays

    csr = graph.to_csr()
    backbone = CSRProbabilisticGraph(
        csr.indptr, csr.indices, np.ones_like(csr.probabilities), csr.vertex_labels
    )
    index, scores = _csr_engine_arrays(backbone, 1.0, DynamicProgrammingEstimator())
    return dict(zip(label_triangles(index.triangles, csr.vertex_labels), scores.tolist()))


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

    The indicator ``1_g`` of Definition 4 counts a sampled possible world
    only if the *entire world* is a deterministic k-nucleus; the global
    algorithm decides that for whole blocks of worlds at once.  The
    conditions are those of Definition 3:
    union of 4-cliques, per-triangle support at least ``k``, and 4-clique
    connectivity between all triangle pairs, where a triangle in no 4-clique
    is exempt from the last two.  They are decided by
    :func:`~repro.sampling.world_matrix.nucleus_world_mask` on the one world
    that holds every edge.  An edgeless graph is not considered a nucleus.

    >>> from repro.graph.generators import clique_graph
    >>> is_k_nucleus(clique_graph(5), 2), is_k_nucleus(clique_graph(5), 3)
    (True, False)
    """
    # repro.sampling imports this package at module level.
    from repro.sampling.world_matrix import CandidateWorldIndex, nucleus_world_mask

    check_level(k)
    index = CandidateWorldIndex.from_graph(graph)
    every_edge = np.ones((1, index.num_edges), dtype=bool)
    return bool(nucleus_world_mask(index, every_edge, k)[0])
