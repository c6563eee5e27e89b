"""Probabilistic local (k, γ)-truss decomposition (Huang, Lu, Lakshmanan, SIGMOD 2016).

The local (k, γ)-truss is the probabilistic generalisation of the k-truss
used by the paper as its second comparison baseline (Table 3): a maximal
subgraph in which every edge is contained in at least ``k`` triangles with
probability at least ``γ``.

For an edge ``e = (u, v)`` with common neighbors ``w_1, …, w_c``, the
``i``-th potential triangle materialises when the two edges ``(u, w_i)`` and
``(v, w_i)`` both exist — an event of probability
``p(u, w_i) · p(v, w_i)``, independent across distinct ``w_i`` because the
edge sets are disjoint.  Conditioning on the edge ``e`` itself existing, the
triangle count is again Poisson-binomial, so the same support machinery used
for triangles carries over with the edge probability playing the role of the
container probability.

The decomposition peels edges of minimum probabilistic support and updates
the affected edges, mirroring the deterministic truss peeling.
"""

from __future__ import annotations

from repro.core.approximations import DynamicProgrammingEstimator, SupportEstimator
from repro.core.support_dp import NO_VALID_K
from repro.exceptions import InvalidParameterError
from repro.graph.probabilistic_graph import Edge, ProbabilisticGraph, canonical_edge
from repro.peeling import LazyMinHeap, canonical_rank

__all__ = [
    "edge_triangle_probabilities",
    "probabilistic_truss_decomposition",
    "k_gamma_truss_subgraph",
    "max_truss_score",
]


def edge_triangle_probabilities(
    graph: ProbabilisticGraph, u, v
) -> tuple[float, list[float]]:
    """Return ``(p(u, v), [Pr(triangle via w) for each common neighbor w])``."""
    edge_probability = graph.edge_probability(u, v)
    wedge_probabilities = [
        graph.edge_probability(u, w) * graph.edge_probability(v, w)
        for w in graph.common_neighbors(u, v)
    ]
    return edge_probability, wedge_probabilities


def probabilistic_truss_decomposition(
    graph: ProbabilisticGraph,
    gamma: float,
    estimator: SupportEstimator | None = None,
) -> dict[Edge, int]:
    """Return the local (k, γ)-truss number of every edge.

    An edge whose own existence probability is below γ receives the sentinel
    ``-1`` (it cannot belong to any (k, γ)-truss, not even at ``k = 0``).
    """
    if not 0.0 <= gamma <= 1.0:
        raise InvalidParameterError(f"gamma must be in [0, 1], got {gamma}")
    estimator = estimator or DynamicProgrammingEstimator()

    edge_probability: dict[Edge, float] = {}
    # For each edge, map each common neighbor w to the wedge probability
    # p(u, w) * p(v, w); the dict is mutated as neighbors are peeled away.
    alive_wedges: dict[Edge, dict] = {}
    for u, v, p in graph.edges():
        edge = canonical_edge(u, v)
        edge_probability[edge] = p
        alive_wedges[edge] = {
            w: graph.edge_probability(u, w) * graph.edge_probability(v, w)
            for w in graph.common_neighbors(u, v)
        }

    kappa = {
        edge: estimator.max_k(edge_probability[edge], list(wedge.values()), gamma)
        for edge, wedge in alive_wedges.items()
    }
    rank = canonical_rank(graph.vertices())
    heap = LazyMinHeap(((score, edge) for edge, score in kappa.items()), rank=rank)

    adjacency: dict = {v: set(graph.neighbors(v)) for v in graph.vertices()}
    truss: dict[Edge, int] = {}
    processed: set[Edge] = set()
    current_level = NO_VALID_K

    def current(edge: Edge) -> int | None:
        return None if edge in processed else kappa[edge]

    while (entry := heap.pop(current)) is not None:
        _, edge = entry
        current_level = max(current_level, kappa[edge])
        truss[edge] = current_level
        processed.add(edge)

        u, v = edge
        adjacency[u].discard(v)
        adjacency[v].discard(u)
        for w in list(alive_wedges[edge]):
            for other in (canonical_edge(u, w), canonical_edge(v, w)):
                if other in processed or other not in alive_wedges:
                    continue
                removed_endpoint = v if other == canonical_edge(u, w) else u
                alive_wedges[other].pop(removed_endpoint, None)
                if kappa[other] > current_level:
                    recomputed = estimator.max_k(
                        edge_probability[other],
                        list(alive_wedges[other].values()),
                        gamma,
                    )
                    kappa[other] = max(recomputed, current_level)
                    heap.push(kappa[other], other)
    return truss


def k_gamma_truss_subgraph(
    graph: ProbabilisticGraph,
    k: int,
    gamma: float,
    truss_numbers: dict[Edge, int] | None = None,
) -> ProbabilisticGraph:
    """Return the subgraph of edges with (k, γ)-truss number at least ``k``."""
    if k < 0:
        raise InvalidParameterError(f"k must be non-negative, got {k}")
    if truss_numbers is None:
        truss_numbers = probabilistic_truss_decomposition(graph, gamma)
    keep = [edge for edge, score in truss_numbers.items() if score >= k]
    return graph.edge_subgraph(keep)


def max_truss_score(graph: ProbabilisticGraph, gamma: float) -> int:
    """Return the maximum (k, γ)-truss number over all edges (−1 for an edgeless graph)."""
    truss = probabilistic_truss_decomposition(graph, gamma)
    return max(truss.values(), default=NO_VALID_K)
