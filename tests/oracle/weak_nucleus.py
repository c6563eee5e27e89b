"""Dict-engine oracle of Algorithm 3 (weakly-global nucleus decomposition).

Each local nucleus is scored world by world: sample a dict world, peel it
with the dict :func:`oracle.deterministic.nucleus_decomposition`, and count
the triangles of the k-nuclei that its nucleusness gives
:func:`~repro.deterministic.nucleus.k_nucleus_triangle_groups`.  The
triangles reaching θ become a mask over the rows of the candidate's
:class:`~repro.sampling.world_matrix.CandidateWorldIndex`
(:meth:`~repro.sampling.world_matrix.CandidateWorldIndex.triangle_labels`),
which the production step (:func:`repro.core.weak_nucleus._weak_nuclei`)
groups into nuclei.
"""

from __future__ import annotations

import random

import numpy as np

from oracle.deterministic import nucleus_decomposition
from oracle.global_nucleus import dict_rng
from oracle.local import local_nucleus_decomposition
from repro.core.approximations import SupportEstimator
from repro.core.result import LocalNucleusDecomposition, ProbabilisticNucleus
from repro.core.weak_nucleus import _weak_nuclei
from repro.deterministic.cliques import Triangle, triangle_clique_index
from repro.deterministic.nucleus import k_nucleus_triangle_groups
from repro.exceptions import InvalidParameterError
from repro.graph.possible_worlds import sample_world
from repro.graph.probabilistic_graph import ProbabilisticGraph
from repro.sampling.monte_carlo import hoeffding_sample_size
from repro.sampling.world_matrix import CandidateWorldIndex


def triangle_weak_scores(
    candidate: ProbabilisticGraph,
    k: int,
    n_samples: int,
    rng: random.Random,
) -> dict[Triangle, float]:
    """Estimate ``Pr(X_{H,△,w} ≥ k)`` for every triangle of a candidate subgraph.

    Samples ``n_samples`` possible worlds of ``candidate``; in each world the
    deterministic nucleus decomposition identifies the triangles belonging to
    some k-nucleus, and each such triangle's counter is incremented
    (Algorithm 3, lines 5–9).  The returned dictionary maps every triangle of
    the candidate (not just the ones that ever scored) to its estimate.
    """
    if n_samples <= 0:
        raise InvalidParameterError(f"n_samples must be positive, got {n_samples}")
    by_triangle, _ = triangle_clique_index(candidate)
    counts: dict[Triangle, int] = {t: 0 for t in by_triangle}

    for _ in range(n_samples):
        world = sample_world(candidate, rng=rng)
        world_scores = nucleus_decomposition(world)
        groups = k_nucleus_triangle_groups(world, k, nucleusness=world_scores)
        for group in groups:
            for triangle in group:
                if triangle in counts:
                    counts[triangle] += 1
    return {t: c / n_samples for t, c in counts.items()}


def weak_nucleus_decomposition(
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
    """Algorithm 3 with the dict local oracle and per-world dict scoring."""
    if n_samples is None:
        n_samples = hoeffding_sample_size(epsilon, delta)
    stream = dict_rng(rng, seed)
    if local_result is None:
        local_result = local_nucleus_decomposition(graph, theta, estimator)

    def qualifying(nucleus: ProbabilisticNucleus) -> tuple[CandidateWorldIndex, np.ndarray]:
        scores = triangle_weak_scores(nucleus.subgraph, k, n_samples, stream)
        index = CandidateWorldIndex.from_graph(nucleus.subgraph)
        mask = [scores[t] >= theta for t in index.triangle_labels()]
        return index, np.array(mask, dtype=bool)

    return _weak_nuclei(graph, local_result._dict_nuclei(k), k, theta, qualifying)
