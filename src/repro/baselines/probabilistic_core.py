"""Probabilistic (k, η)-core decomposition (Bonchi et al., KDD 2014).

The (k, η)-core is the probabilistic generalisation of the k-core used by
the paper as a comparison baseline (Table 3): a maximal subgraph in which
every vertex has at least ``k`` neighbors *within the subgraph* with
probability at least ``η``.

For a vertex ``v`` with incident edge probabilities ``p_1, …, p_d``, the
number of materialised neighbors is a Poisson-binomial variable, so the
``η``-degree of ``v`` — the largest ``k`` with ``Pr[deg(v) ≥ k] ≥ η`` — is
computed with the same dynamic program used for triangle supports.  The
decomposition peels vertices of minimum η-degree, recomputing the η-degrees
of their neighbors from the surviving incident edges, exactly mirroring the
deterministic core peeling.
"""

from __future__ import annotations

from repro.core.approximations import DynamicProgrammingEstimator, SupportEstimator
from repro.exceptions import InvalidParameterError
from repro.graph.probabilistic_graph import ProbabilisticGraph, Vertex
from repro.peeling import LazyMinHeap, canonical_rank

__all__ = ["eta_degrees", "probabilistic_core_decomposition", "k_eta_core_subgraph",
           "max_core_score"]


def eta_degrees(
    graph: ProbabilisticGraph,
    eta: float,
    estimator: SupportEstimator | None = None,
) -> dict[Vertex, int]:
    """Return the η-degree of every vertex.

    The η-degree of ``v`` is the largest ``k`` such that at least ``k`` of the
    incident edges exist simultaneously with probability at least ``η``; it
    is 0 when even one neighbor cannot be guaranteed at level η.
    """
    if not 0.0 <= eta <= 1.0:
        raise InvalidParameterError(f"eta must be in [0, 1], got {eta}")
    estimator = estimator or DynamicProgrammingEstimator()
    degrees: dict[Vertex, int] = {}
    for v in graph.vertices():
        probabilities = list(graph.neighbor_probabilities(v).values())
        degrees[v] = max(0, estimator.max_k(1.0, probabilities, eta))
    return degrees


def probabilistic_core_decomposition(
    graph: ProbabilisticGraph,
    eta: float,
    estimator: SupportEstimator | None = None,
) -> dict[Vertex, int]:
    """Return the (k, η)-core number of every vertex.

    Vertices are peeled in non-decreasing order of residual η-degree; the
    core number of a vertex is the peel level at its removal (clamped to be
    monotone along the peel order).
    """
    if not 0.0 <= eta <= 1.0:
        raise InvalidParameterError(f"eta must be in [0, 1], got {eta}")
    estimator = estimator or DynamicProgrammingEstimator()

    alive_neighbors: dict[Vertex, dict[Vertex, float]] = {
        v: dict(graph.neighbor_probabilities(v)) for v in graph.vertices()
    }
    kappa = {
        v: max(0, estimator.max_k(1.0, list(nbrs.values()), eta))
        for v, nbrs in alive_neighbors.items()
    }
    rank = canonical_rank(graph.vertices())
    heap = LazyMinHeap(((score, v) for v, score in kappa.items()), rank=lambda v: rank((v,)))

    core: dict[Vertex, int] = {}
    processed: set[Vertex] = set()
    current_level = 0

    def current(v: Vertex) -> int | None:
        return None if v in processed else kappa[v]

    while (entry := heap.pop(current)) is not None:
        _, v = entry
        current_level = max(current_level, kappa[v])
        core[v] = current_level
        processed.add(v)
        for w in list(alive_neighbors[v]):
            if w in processed:
                continue
            alive_neighbors[w].pop(v, None)
            if kappa[w] > current_level:
                recomputed = max(
                    0, estimator.max_k(1.0, list(alive_neighbors[w].values()), eta)
                )
                kappa[w] = max(recomputed, current_level)
                heap.push(kappa[w], w)
    return core


def k_eta_core_subgraph(
    graph: ProbabilisticGraph,
    k: int,
    eta: float,
    core_numbers: dict[Vertex, int] | None = None,
) -> ProbabilisticGraph:
    """Return the subgraph induced by vertices with (k, η)-core number at least ``k``."""
    if k < 0:
        raise InvalidParameterError(f"k must be non-negative, got {k}")
    if core_numbers is None:
        core_numbers = probabilistic_core_decomposition(graph, eta)
    keep = [v for v, score in core_numbers.items() if score >= k]
    return graph.subgraph(keep)


def max_core_score(graph: ProbabilisticGraph, eta: float) -> int:
    """Return the maximum (k, η)-core number over all vertices."""
    core = probabilistic_core_decomposition(graph, eta)
    return max(core.values(), default=0)
