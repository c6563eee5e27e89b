"""Dict-engine oracle of Algorithm 1 (local nucleus decomposition).

Canonical-tuple triangle states, scalar estimator calls and a
:class:`~repro.peeling.LazyMinHeap` peel: the reference loop the
array-native engine of :mod:`repro.core.peel` is pinned against.  Scores come
back in graph-traversal order, which the figure-8 golden report depends on.

The oracle's result (:class:`DictLocalNucleusDecomposition`) groups its
nuclei in dict space with
:func:`~repro.deterministic.nucleus.k_nucleus_triangle_groups` and presents
them canonically (:func:`canonical_nuclei`), the reference of the array
grouping behind ``LocalNucleusDecomposition.nuclei(k)``.
:func:`dict_snapshot` is the reference of the index snapshot: every level
grouped in dict space by the same function, against which the array
grouping of :meth:`~repro.index.NucleusIndex.from_local_result` and
:func:`~repro.index.builders.build_local_index` is pinned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.approximations import SupportEstimator
from repro.core.hybrid import HybridEstimator
from repro.core.local import resolve_local_options
from repro.core.result import LocalNucleusDecomposition, ProbabilisticNucleus
from repro.core.support_dp import NO_VALID_K
from repro.deterministic.cliques import FourClique, Triangle, triangle_clique_index
from repro.deterministic.nucleus import k_nucleus_triangle_groups
from repro.exceptions import InvalidParameterError, check_level
from repro.graph.probabilistic_graph import ProbabilisticGraph, sorted_labels
from repro.index.nucleus_index import NucleusIndex
from repro.peeling import LazyMinHeap, canonical_rank


def triangle_existence_probability(graph: ProbabilisticGraph, triangle: Triangle) -> float:
    """Return ``Pr(△)``: the product of the triangle's three edge probabilities."""
    u, v, w = triangle
    return (
        graph.edge_probability(u, v)
        * graph.edge_probability(u, w)
        * graph.edge_probability(v, w)
    )


def clique_extension_probability(
    graph: ProbabilisticGraph, triangle: Triangle, clique: FourClique
) -> float:
    """Return ``Pr(E_i)`` for the 4-clique ``clique`` containing ``triangle``.

    ``Pr(E_i)`` is the probability that the three edges connecting the
    completing vertex ``z`` (the vertex of the clique outside the triangle)
    to the triangle's vertices all exist.
    """
    extra = [vertex for vertex in clique if vertex not in triangle]
    if len(extra) != 1:
        raise InvalidParameterError(
            f"clique {clique!r} does not extend triangle {triangle!r}"
        )
    z = extra[0]
    u, v, w = triangle
    return (
        graph.edge_probability(u, z)
        * graph.edge_probability(v, z)
        * graph.edge_probability(w, z)
    )


@dataclass
class _TriangleState:
    """Mutable per-triangle bookkeeping used by the dict peeling loop."""

    probability: float
    kappa: int
    alive_cliques: dict[FourClique, float]
    processed: bool = False


def _build_states(
    graph: ProbabilisticGraph,
    theta: float,
    estimator: SupportEstimator,
) -> tuple[dict[Triangle, _TriangleState], dict[FourClique, list[Triangle]]]:
    """Index the graph and compute the initial κ-score of every triangle."""
    by_triangle, by_clique = triangle_clique_index(graph)
    states: dict[Triangle, _TriangleState] = {}
    for triangle, cliques in by_triangle.items():
        probability = triangle_existence_probability(graph, triangle)
        alive = {
            clique: clique_extension_probability(graph, triangle, clique)
            for clique in cliques
        }
        kappa = estimator.max_k(probability, list(alive.values()), theta)
        states[triangle] = _TriangleState(
            probability=probability, kappa=kappa, alive_cliques=alive
        )
    return states, by_clique


def _peel_states(
    states: dict[Triangle, _TriangleState],
    by_clique: dict[FourClique, list[Triangle]],
    estimator: SupportEstimator,
    theta: float,
    rank,
) -> dict[Triangle, int]:
    """Run Algorithm 1's peel over dict-backed triangle states.

    This is the reference loop — a :class:`~repro.peeling.LazyMinHeap` over
    ``(κ, triangle)`` entries with clamped level assignment — against which
    the array-native engine (:mod:`repro.core.peel`) is pinned.  Equal κ pop
    in ``rank`` order: :func:`~repro.peeling.canonical_rank` of the graph's
    vertices, which orders triangles of comparable labels as the triangles
    themselves and never compares labels of mixed types.
    """
    alive_cliques: set[FourClique] = set(by_clique)
    heap = LazyMinHeap(
        ((state.kappa, triangle) for triangle, state in states.items()), rank=rank
    )

    def current(triangle: Triangle) -> int | None:
        state = states[triangle]
        return None if state.processed else state.kappa

    scores: dict[Triangle, int] = {}
    current_level = NO_VALID_K

    while (entry := heap.pop(current)) is not None:
        _, triangle = entry
        state = states[triangle]
        current_level = max(current_level, state.kappa)
        scores[triangle] = current_level
        state.processed = True

        # Every 4-clique through the peeled triangle ceases to exist; update
        # the κ-scores of the surviving triangles it supported.
        for clique in list(state.alive_cliques):
            if clique not in alive_cliques:
                continue
            alive_cliques.remove(clique)
            for other in by_clique[clique]:
                if other == triangle:
                    continue
                other_state = states[other]
                if other_state.processed:
                    continue
                other_state.alive_cliques.pop(clique, None)
                if other_state.kappa > current_level:
                    recomputed = estimator.max_k(
                        other_state.probability,
                        list(other_state.alive_cliques.values()),
                        theta,
                    )
                    other_state.kappa = max(recomputed, current_level)
                    heap.push(other_state.kappa, other)
    return scores


def canonical_nuclei(
    graph: ProbabilisticGraph, k: int, scores: dict[Triangle, int]
) -> list[tuple[frozenset[Triangle], ProbabilisticGraph]]:
    """The dict grouping's level-``k`` groups, presented canonically.

    :func:`~repro.deterministic.nucleus.k_nucleus_triangle_groups` of
    ``scores``, ordered by smallest triangle row and each built as the edge
    subgraph of its triangles with the edges inserted in ascending CSR-id
    order.  Ids are positions in
    :func:`~repro.graph.probabilistic_graph.sorted_labels` of the graph's
    vertices, a row is a triangle's sorted id triple, and an edge is a
    sorted id pair; rows and edges order lexicographically.
    """
    labels = sorted_labels(graph.vertices())
    id_of = {label: i for i, label in enumerate(labels)}
    presented = []
    for group in k_nucleus_triangle_groups(graph, k, nucleusness=scores):
        rows = [tuple(sorted(id_of[v] for v in triangle)) for triangle in group]
        edges = sorted({pair for u, v, w in rows for pair in ((u, v), (u, w), (v, w))})
        subgraph = graph.edge_subgraph((labels[u], labels[v]) for u, v in edges)
        presented.append((min(rows), frozenset(group), subgraph))
    presented.sort(key=lambda entry: entry[0])
    return [(triangles, subgraph) for _, triangles, subgraph in presented]


class DictLocalNucleusDecomposition(LocalNucleusDecomposition):
    """The oracle's local result: ``nuclei(k)`` is the dict grouping.

    :func:`canonical_nuclei` of the scores, never the engine's array
    grouping, so the parity suites compare two groupings.  The candidate
    accessors of Algorithm 2 (``_dict_nuclei``) and Algorithm 3
    (``_candidate_rows``) are inherited.
    """

    def nuclei(self, k: int) -> list[ProbabilisticNucleus]:
        k = check_level(k)
        return [
            ProbabilisticNucleus(
                k=k, theta=self.theta, mode="local", subgraph=subgraph, triangles=triangles
            )
            for triangles, subgraph in canonical_nuclei(self.graph, k, self.scores)
        ]


def local_nucleus_decomposition(
    graph: ProbabilisticGraph,
    theta: float,
    estimator: SupportEstimator | None = None,
) -> LocalNucleusDecomposition:
    """Algorithm 1 on the dict engine: state index, κ-init, lazy-heap peel."""
    estimator = resolve_local_options(theta, estimator)
    states, by_clique = _build_states(graph, theta, estimator)
    scores = _peel_states(states, by_clique, estimator, theta, canonical_rank(graph.vertices()))
    selections = (
        dict(estimator.selection_counts)
        if isinstance(estimator, HybridEstimator)
        else None
    )
    return DictLocalNucleusDecomposition(
        graph=graph,
        theta=theta,
        scores=scores,
        estimator_name=estimator.name,
        estimator_selections=selections,
    )


def dict_snapshot(
    result: LocalNucleusDecomposition, params: dict | None = None
) -> NucleusIndex:
    """Snapshot ``result`` with every level grouped in dict space.

    The scores are keyed by sorted id triples of the result graph's CSR
    compilation, and each level's components are the triangle sets of
    :func:`~repro.deterministic.nucleus.k_nucleus_triangle_groups`, sorted
    by member positions.
    """
    csr = result.graph.to_csr()
    id_of = {label: i for i, label in enumerate(csr.vertex_labels)}
    items = [
        (tuple(sorted((id_of[u], id_of[v], id_of[w]))), score)
        for (u, v, w), score in result.scores.items()
    ]
    items.sort()
    rows = np.array([t for t, _ in items], dtype=np.int64).reshape(len(items), 3)
    scores = np.array([s for _, s in items], dtype=np.int64)
    position = {t: i for i, (t, _) in enumerate(items)}

    level_groups: dict[int, list[list[int]]] = {}
    for k in range(0, result.max_score + 1):
        groups = []
        for group in k_nucleus_triangle_groups(result.graph, k, nucleusness=result.scores):
            members = sorted(
                position[tuple(sorted((id_of[u], id_of[v], id_of[w])))]
                for u, v, w in group
            )
            groups.append(members)
        level_groups[k] = sorted(groups)

    merged = {"estimator": result.estimator_name}
    merged.update(params or {})
    return NucleusIndex.from_triangle_arrays(
        csr, rows, scores, level_groups, mode="local", theta=result.theta, params=merged
    )
