"""Dict-engine oracle of Algorithm 2 (global nucleus decomposition).

The seed-era candidate loop lives here in label space (:func:`verified_nuclei`):
the union of the local nuclei is indexed with
:func:`~repro.deterministic.cliques.triangle_clique_index`, every candidate is
grown with the reference :func:`~repro.core.global_nucleus.candidate_closure`,
deduplicated by its 4-clique set and built as a subgraph before it is
verified; only the maximality filter is shared with production.  Each
candidate is verified the seed-era way, one
:func:`~repro.graph.possible_worlds.sample_world` draw and one dict
:func:`~oracle.deterministic.is_k_nucleus` check per world, drawing
from a :class:`random.Random` stream.  The loop takes any ``verify``
callback, so the tests can also drive it with the production verifier and
pin the id-space loop of :mod:`repro.core.global_nucleus` to it.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence

import numpy as np

from oracle.deterministic import is_k_nucleus
from oracle.local import local_nucleus_decomposition
from repro.core.approximations import SupportEstimator
from repro.core.global_nucleus import _keep_maximal, candidate_closure, union_of_nuclei
from repro.core.result import LocalNucleusDecomposition, ProbabilisticNucleus
from repro.deterministic.cliques import (
    FourClique,
    Triangle,
    enumerate_triangles,
    triangle_clique_index,
)
from repro.graph.possible_worlds import sample_world
from repro.graph.probabilistic_graph import Edge, ProbabilisticGraph, canonical_edge
from repro.sampling.monte_carlo import hoeffding_sample_size


def dict_rng(
    rng: "random.Random | np.random.Generator | None", seed: int | None
) -> random.Random:
    """The dict engine's stream: ``random.Random(seed)``, or derived from ``rng``."""
    if rng is None:
        return random.Random(seed)
    if isinstance(rng, np.random.Generator):
        return random.Random(int(rng.integers(0, 2**63)))
    return rng


def _world_contains_triangle(world: ProbabilisticGraph, triangle: Triangle) -> bool:
    u, v, w = triangle
    return world.has_edge(u, v) and world.has_edge(u, w) and world.has_edge(v, w)


def _verify_candidate_dict(
    subgraph: ProbabilisticGraph,
    k: int,
    theta: float,
    n_samples: int,
    rng: random.Random,
) -> tuple[bool, list[Triangle]]:
    """Reference Monte-Carlo verification: one dict world at a time."""
    triangles = list(enumerate_triangles(subgraph))
    if not triangles:
        return False, triangles

    worlds = [sample_world(subgraph, rng=rng) for _ in range(n_samples)]
    nucleus_worlds = [world for world in worlds if is_k_nucleus(world, k)]

    for triangle in triangles:
        hits = sum(
            1 for world in nucleus_worlds
            if _world_contains_triangle(world, triangle)
        )
        if hits / n_samples < theta:
            return False, triangles
    return True, triangles


def _cliques_to_subgraph(
    graph: ProbabilisticGraph, cliques: set[FourClique]
) -> ProbabilisticGraph:
    edges: set[Edge] = set()
    for clique in cliques:
        a, b, c, d = clique
        for x, y in ((a, b), (a, c), (a, d), (b, c), (b, d), (c, d)):
            edges.add(canonical_edge(x, y))
    return graph.edge_subgraph(edges)


def verified_nuclei(
    graph: ProbabilisticGraph,
    local_nuclei: Sequence[ProbabilisticNucleus],
    k: int,
    theta: float,
    verify: Callable[[ProbabilisticGraph], tuple[bool, list[Triangle]]],
) -> list[ProbabilisticNucleus]:
    """Algorithm 2's candidate loop in label space: grow, deduplicate, verify, keep maximal.

    One candidate is grown per triangle of the union of ``local_nuclei``
    (:func:`~repro.core.global_nucleus.candidate_closure`); candidates with
    the same 4-clique set are verified once, ``verify(subgraph)`` returns
    ``(passes, triangles)``, and accepted subgraphs are deduplicated by
    edge set before :func:`~repro.core.global_nucleus._keep_maximal`.
    """
    candidate_graph = union_of_nuclei(local_nuclei)
    by_triangle, _ = triangle_clique_index(candidate_graph)

    solutions: list[ProbabilisticNucleus] = []
    seen_candidates: set[frozenset[FourClique]] = set()
    seen_solutions: set[frozenset[Edge]] = set()
    for seed_triangle in by_triangle:
        cliques = candidate_closure(candidate_graph, seed_triangle, k, by_triangle)
        if not cliques:
            continue
        candidate_key = frozenset(cliques)
        if candidate_key in seen_candidates:
            continue
        seen_candidates.add(candidate_key)

        subgraph = _cliques_to_subgraph(graph, cliques)
        all_pass, triangles = verify(subgraph)
        if not all_pass:
            continue

        edge_key = frozenset(canonical_edge(u, v) for u, v, _ in subgraph.edges())
        if edge_key in seen_solutions:
            continue
        seen_solutions.add(edge_key)
        solutions.append(
            ProbabilisticNucleus(
                k=k,
                theta=theta,
                mode="global",
                subgraph=subgraph,
                triangles=frozenset(triangles),
            )
        )
    return _keep_maximal(solutions)


def global_nucleus_decomposition(
    graph: ProbabilisticGraph,
    k: int,
    theta: float,
    epsilon: float = 0.1,
    delta: float = 0.1,
    n_samples: int | None = None,
    estimator: SupportEstimator | None = None,
    local_result: LocalNucleusDecomposition | None = None,
    rng: "random.Random | np.random.Generator | None" = None,
    seed: int | None = None,
) -> list[ProbabilisticNucleus]:
    """Algorithm 2 with the dict local oracle and per-world dict verification."""
    if n_samples is None:
        n_samples = hoeffding_sample_size(epsilon, delta)
    stream = dict_rng(rng, seed)
    if local_result is None:
        local_result = local_nucleus_decomposition(graph, theta, estimator)
    return verified_nuclei(
        graph,
        local_result._dict_nuclei(k),
        k,
        theta,
        lambda subgraph: _verify_candidate_dict(subgraph, k, theta, n_samples, stream),
    )
