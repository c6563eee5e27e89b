"""Constructions used in the paper's hardness proofs (Section 4).

The hardness results of the paper are:

* **g-NuDecomp is #P-hard** (Theorem 4.1) — by reduction from the decision
  version of network reliability.  Given any probabilistic graph ``G`` and a
  chosen vertex ``v``, attach two fresh vertices ``u`` and ``w`` connected to
  ``v`` and to each other by probability-1 edges.  The resulting triangle
  ``(u, v, w)`` exists in every possible world, and the world is a 0-nucleus
  containing it exactly when the original world of ``G`` is connected
  (Lemma 2, checked as reliability: the augmented graph is connected
  exactly when ``G`` is).
* **w-NuDecomp is NP-hard** (Theorem 4.2) — by reduction from the k-clique
  problem.  Give every edge of a deterministic graph ``G`` probability
  ``1 / 2^(2m+1)`` (``m`` = number of edges) and choose
  ``θ = (1/2^(2m+1))^((k+3)(k+2)/2)``.  Then ``G`` has a (k+3)-clique iff the
  probabilistic graph has a w-(k, θ)-nucleus.
* **Lemma 3** — the only deterministic k-nucleus on ``k + 3`` vertices is the
  (k+3)-clique.

These constructions are included as executable code because (a) they make the
hardness results testable on small instances, and (b) they serve as worked
examples of the definitions for library users.  The indicator probabilities
and the Lemma 3 search are exact, over every possible world, through
:func:`repro.sampling.verification.exact_probabilities`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.deterministic.cliques import Triangle, canonical_triangle
from repro.exceptions import InvalidParameterError, VertexNotFoundError, check_level
from repro.graph.probabilistic_graph import ProbabilisticGraph, Vertex
from repro.sampling.verification import exact_probabilities
from repro.sampling.world_matrix import CandidateWorldIndex, global_membership, weak_membership

__all__ = [
    "ReliabilityReduction",
    "reduce_reliability_to_global_nucleus",
    "global_indicator_probability",
    "CliqueReduction",
    "reduce_clique_to_weak_nucleus",
    "weak_indicator_probability",
    "only_k_nucleus_on_k_plus_3_vertices_is_clique",
]


# --------------------------------------------------------------------------- #
# Lemma 2 / Theorem 4.1: reliability -> g-NuDecomp
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ReliabilityReduction:
    """Output of the Lemma 2 construction.

    Attributes
    ----------
    graph:
        The augmented probabilistic graph ``F`` (original graph plus the
        probability-1 triangle).
    triangle:
        The certain triangle ``(u, v, w)``: a world of ``graph`` contains it
        and is connected exactly when the original world is connected.
    anchor:
        The original vertex ``v`` the gadget was attached to.
    dummies:
        The two fresh vertices ``(u, w)``.
    """

    graph: ProbabilisticGraph
    triangle: Triangle
    anchor: Vertex
    dummies: tuple[Vertex, Vertex]


def reduce_reliability_to_global_nucleus(
    graph: ProbabilisticGraph, anchor: Vertex | None = None
) -> ReliabilityReduction:
    """Build the Lemma 2 gadget: attach a certain triangle to one vertex of ``graph``.

    Parameters
    ----------
    graph:
        The probabilistic graph whose reliability is being reduced.  Must
        have at least one vertex.
    anchor:
        The vertex to attach the gadget to; defaults to an arbitrary vertex.
    """
    if graph.num_vertices == 0:
        raise InvalidParameterError("the reduction needs a graph with at least one vertex")
    if anchor is None:
        anchor = next(iter(graph.vertices()))
    elif not graph.has_vertex(anchor):
        raise VertexNotFoundError(anchor)

    augmented = graph.copy()
    dummy_u = ("__reliability_dummy__", 0)
    dummy_w = ("__reliability_dummy__", 1)
    while augmented.has_vertex(dummy_u) or augmented.has_vertex(dummy_w):
        dummy_u = (dummy_u[0], dummy_u[1] + 2)
        dummy_w = (dummy_w[0], dummy_w[1] + 2)
    augmented.add_edge(dummy_u, anchor, 1.0)
    augmented.add_edge(dummy_u, dummy_w, 1.0)
    augmented.add_edge(anchor, dummy_w, 1.0)
    triangle = canonical_triangle(dummy_u, anchor, dummy_w)
    return ReliabilityReduction(
        graph=augmented, triangle=triangle, anchor=anchor, dummies=(dummy_u, dummy_w)
    )


def _indicator_probability(membership, graph, triangle, k, max_edges) -> float:
    """The exact probability of ``triangle`` (any vertex order; 0 if not in ``graph``)."""
    index = CandidateWorldIndex.from_graph(graph)
    probabilities = exact_probabilities(membership, index, k, max_edges)
    rows = dict(zip(index.triangle_labels(), probabilities.tolist()))
    return rows.get(canonical_triangle(*triangle), 0.0)


def global_indicator_probability(
    graph: ProbabilisticGraph, triangle: Triangle, k: int, max_edges: int = 20
) -> float:
    """Exactly evaluate ``Pr(X_{G,△,g} ≥ k)`` over every possible world.

    A world counts when it contains the triangle and the whole world is a
    deterministic k-nucleus (the predicate of Algorithm 2).

    >>> from repro.graph.generators import clique_graph
    >>> round(global_indicator_probability(clique_graph(5, probability=0.9), (0, 1, 2), 1), 2)
    0.62
    """
    return _indicator_probability(global_membership, graph, triangle, k, max_edges)


# --------------------------------------------------------------------------- #
# Theorem 4.2: k-clique -> w-NuDecomp
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class CliqueReduction:
    """Output of the Theorem 4.2 construction.

    Attributes
    ----------
    graph:
        The probabilistic graph with uniform edge probability
        ``1 / 2^(2m+1)``.
    k:
        The nucleus parameter of the target w-(k, θ)-nucleus question; the
        source question asks for a clique of size ``k + 3``.
    theta:
        The threshold ``(1/2^(2m+1))^((k+3)(k+2)/2)``.
    edge_probability:
        The uniform probability assigned to each edge.
    """

    graph: ProbabilisticGraph
    k: int
    theta: float
    edge_probability: float


def reduce_clique_to_weak_nucleus(
    deterministic_graph: ProbabilisticGraph, clique_size: int
) -> CliqueReduction:
    """Build the Theorem 4.2 instance for "does a clique of ``clique_size`` exist?".

    Parameters
    ----------
    deterministic_graph:
        The source graph (its edge probabilities are ignored; only the
        backbone matters).
    clique_size:
        The clique size being asked about; must be at least 4 so that the
        nucleus parameter ``k = clique_size − 3`` is at least 1.
    """
    if clique_size < 4:
        raise InvalidParameterError(
            f"clique_size must be at least 4 (so that k >= 1), got {clique_size}"
        )
    k = clique_size - 3
    m = deterministic_graph.num_edges
    edge_probability = 1.0 / (2 ** (2 * m + 1))
    theta = edge_probability ** ((clique_size * (clique_size - 1)) // 2)

    probabilistic = ProbabilisticGraph()
    for v in deterministic_graph.vertices():
        probabilistic.add_vertex(v)
    for u, v, _ in deterministic_graph.edges():
        probabilistic.add_edge(u, v, edge_probability)
    return CliqueReduction(
        graph=probabilistic, k=k, theta=theta, edge_probability=edge_probability
    )


def weak_indicator_probability(
    graph: ProbabilisticGraph, triangle: Triangle, k: int, max_edges: int = 20
) -> float:
    """Exactly evaluate ``Pr(X_{G,△,w} ≥ k)`` over every possible world.

    A world counts when some subgraph of it is a deterministic k-nucleus
    containing the triangle (the predicate of Algorithm 3).
    """
    return _indicator_probability(weak_membership, graph, triangle, k, max_edges)


# --------------------------------------------------------------------------- #
# Lemma 3
# --------------------------------------------------------------------------- #
def only_k_nucleus_on_k_plus_3_vertices_is_clique(
    k: int, num_vertices: int | None = None
) -> bool:
    """Verify Lemma 3 by exhaustive search for a given ``k``.

    Checks that among all graphs on ``k + 3`` labelled vertices, the only one
    that is a deterministic k-nucleus is the complete graph.  Those graphs are
    the worlds of the complete graph at edge probability ½, each of weight
    ``2^-m``: the lemma holds iff the complete world is a k-nucleus and its
    weight is every triangle's whole global indicator probability (sums of
    powers of two are exact).
    """
    k = check_level(k)
    n = num_vertices if num_vertices is not None else k + 3
    pairs = itertools.combinations(range(n), 2)
    complete = ProbabilisticGraph([(u, v, 0.5) for u, v in pairs])
    index = CandidateWorldIndex.from_graph(complete)
    full_world = np.ones((1, index.num_edges), dtype=bool)
    probabilities = exact_probabilities(global_membership, index, k)
    return bool(global_membership(index, full_world, k).any()) and bool(
        (probabilities == 0.5**index.num_edges).all()
    )
