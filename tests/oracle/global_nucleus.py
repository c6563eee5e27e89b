"""Dict-engine oracle of Algorithm 2 (global nucleus decomposition).

Candidates come from the production candidate loop
(:func:`repro.core.global_nucleus._verified_nuclei`: closure, deduplication,
maximality); each is verified here the seed-era way, one
:func:`~repro.graph.possible_worlds.sample_world` draw and one
:func:`~repro.deterministic.nucleus.is_k_nucleus` check per world, drawing
from a :class:`random.Random` stream.
"""

from __future__ import annotations

import random

import numpy as np

from oracle.local import local_nucleus_decomposition
from repro.core.approximations import SupportEstimator
from repro.core.global_nucleus import _verified_nuclei
from repro.core.result import LocalNucleusDecomposition, ProbabilisticNucleus
from repro.deterministic.cliques import Triangle, enumerate_triangles
from repro.deterministic.nucleus import is_k_nucleus
from repro.graph.possible_worlds import sample_world
from repro.graph.probabilistic_graph import ProbabilisticGraph
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
    return _verified_nuclei(
        graph,
        local_result.nuclei(k),
        k,
        theta,
        lambda subgraph: _verify_candidate_dict(subgraph, k, theta, n_samples, stream),
    )
