"""Weakly-global probabilistic nucleus decomposition (w-NuDecomp, Algorithm 3).

The weakly-global model relaxes the global one: a possible world counts for a
triangle when it merely *contains* a deterministic k-nucleus that includes
the triangle (rather than being one in its entirety).  Computing the
decomposition exactly is NP-hard (Theorem 4.2, reduction from k-clique), so
Algorithm 3 approximates it:

1. every w-(k, θ)-nucleus is an ℓ-(k, θ)-nucleus, so each local nucleus is
   used as a candidate;
2. ``n`` possible worlds of the candidate are sampled;
3. each world is decomposed with the *deterministic* nucleus algorithm; a
   triangle's global score counts the worlds in which it belongs to some
   deterministic k-nucleus.  Steps 2–3 run in the one sequential loop of
   :mod:`repro.sampling.adaptive`: ``sampling="fixed"`` is its one-chunk
   schedule of ``n`` worlds, ``sampling="adaptive"`` its geometric schedule
   with confidence-driven early stopping, and both draw the worlds in
   memory-bounded row blocks;
4. the triangles whose estimated probability reaches θ are grouped into
   4-clique-connected components, which are reported as the weakly-global
   nuclei.  The grouping runs on the arrays of the candidate's
   :class:`~repro.sampling.world_matrix.CandidateWorldIndex`, compiled once
   for step 2: a 4-clique is allowed when its four member triangles
   qualify, and the allowed 4-cliques join their triangles in a union-find
   forest (:mod:`repro.core.components`).
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence

import numpy as np

from repro.core.approximations import SupportEstimator
from repro.core.components import _root_groups, _union_batches
from repro.core.global_nucleus import (
    check_retired_knob,
    local_pruning,
    validate_sampling_options,
)
from repro.core.local import check_backend, resolve_local_options
from repro.core.result import LocalNucleusDecomposition, ProbabilisticNucleus
from repro.deterministic.cliques import Triangle
from repro.deterministic.nucleus import triangles_to_edge_subgraph
from repro.exceptions import check_level
from repro.graph.csr import CSRProbabilisticGraph
from repro.graph.probabilistic_graph import ProbabilisticGraph
from repro.kernels import resolve_kernel
from repro.sampling.adaptive import (
    DEFAULT_CHUNK_GROWTH,
    DEFAULT_CHUNK_INITIAL,
    DEFAULT_CONFIDENCE,
    AdaptiveSettings,
    adaptive_weak_scores,
    resolve_adaptive_settings,
)
from repro.sampling.monte_carlo import hoeffding_sample_size
from repro.sampling.world_matrix import CandidateWorldIndex, as_numpy_generator

__all__ = ["weak_nucleus_decomposition", "triangle_weak_scores_matrix"]


def triangle_weak_scores_matrix(
    candidate: ProbabilisticGraph,
    k: int,
    n_samples: int,
    rng: "np.random.Generator | random.Random | None" = None,
    seed: int | None = None,
) -> dict[Triangle, float]:
    """Estimate ``Pr(X_{H,△,w} ≥ k)`` for every triangle of a candidate subgraph.

    Runs the one-chunk fixed schedule of
    :func:`repro.sampling.adaptive.adaptive_weak_scores`: ``n_samples``
    worlds, counted per triangle over the worlds in which it belongs to some
    deterministic k-nucleus (Algorithm 3, lines 5–9).  The returned
    dictionary maps every triangle of the candidate (not just the ones that
    ever scored) to its estimate.
    """
    settings = resolve_adaptive_settings("fixed", n_samples=n_samples)
    index = CandidateWorldIndex.from_graph(candidate)
    # One chunk computes no confidence radius: θ only splits the estimates.
    estimates, _, _ = adaptive_weak_scores(index, k, 1.0, settings, rng=rng, seed=seed)
    return dict(zip(index.triangle_labels(), estimates.tolist()))


def _qualifying_triangles(
    candidate: ProbabilisticGraph,
    k: int,
    theta: float,
    settings: AdaptiveSettings,
    rng: np.random.Generator,
) -> tuple[CandidateWorldIndex, np.ndarray]:
    """The compiled candidate and the mask of its triangles whose weak score reaches θ.

    Decided by :func:`repro.sampling.adaptive.adaptive_weak_scores` under
    the run's ``settings``: the point estimates of one chunk of
    ``n_samples`` worlds in fixed mode, the anytime-valid confidence bounds
    of the geometric chunks in adaptive mode.
    """
    index = CandidateWorldIndex.from_graph(candidate)
    _, qualifying, _ = adaptive_weak_scores(index, k, theta, settings, rng=rng)
    return index, qualifying


def weak_nucleus_decomposition(
    graph: ProbabilisticGraph | CSRProbabilisticGraph,
    k: int,
    theta: float,
    epsilon: float = 0.1,
    delta: float = 0.1,
    n_samples: int | None = None,
    estimator: SupportEstimator | None = None,
    local_result: LocalNucleusDecomposition | None = None,
    rng: "random.Random | np.random.Generator | None" = None,
    seed: int | None = None,
    backend: str = "csr",
    n_jobs: int = 1,
    sampling: str = "fixed",
    confidence: float = DEFAULT_CONFIDENCE,
    n_worlds_max: int | None = None,
    chunk_initial: int = DEFAULT_CHUNK_INITIAL,
    chunk_growth: float = DEFAULT_CHUNK_GROWTH,
    kernel: str = "numpy",
    partitions: int = 1,
) -> list[ProbabilisticNucleus]:
    """Find (approximate) w-(k, θ)-nuclei of ``graph`` via Algorithm 3.

    Parameters mirror
    :func:`repro.core.global_nucleus.global_nucleus_decomposition`; the
    returned nuclei carry ``mode="weakly-global"``.  The candidate-producing
    local decomposition runs on the peel of
    :mod:`repro.core.peel` (see
    :func:`repro.core.local.local_nucleus_decomposition`) and each candidate
    is scored serially by the one verification loop of
    :mod:`repro.sampling.adaptive` in memory-bounded world blocks.
    ``sampling="fixed"`` scores one chunk of ``n_samples`` worlds;
    ``sampling="adaptive"`` keeps drawing geometric world chunks until every
    triangle's θ decision is settled at level ``confidence`` or
    ``n_worlds_max`` worlds are spent.  ``kernel`` selects the compiled peel
    of the local step; ``n_jobs`` and ``partitions`` are retired knobs
    (:func:`~repro.core.global_nucleus.check_retired_knob`).
    """
    check_backend(backend)
    check_retired_knob("partitions", partitions)
    check_retired_knob("n_jobs", n_jobs)
    if isinstance(graph, CSRProbabilisticGraph):
        graph = graph.to_probabilistic()
    check_level(k)
    estimator = resolve_local_options(theta, estimator)
    if n_samples is None:
        n_samples = hoeffding_sample_size(epsilon, delta)
    settings = validate_sampling_options(
        sampling=sampling,
        confidence=confidence,
        n_worlds_max=n_worlds_max,
        chunk_initial=chunk_initial,
        chunk_growth=chunk_growth,
        n_samples=n_samples,
        kernel=kernel,
    )
    engine_rng = as_numpy_generator(rng, seed)
    kernel = resolve_kernel(kernel)

    candidates = local_pruning(graph, theta, estimator, kernel, local_result).nuclei(k)

    def qualifying(subgraph: ProbabilisticGraph) -> tuple[CandidateWorldIndex, np.ndarray]:
        return _qualifying_triangles(subgraph, k, theta, settings, engine_rng)

    return _weak_nuclei(graph, candidates, k, theta, qualifying)


def _weak_nuclei(
    graph: ProbabilisticGraph,
    candidates: Sequence[ProbabilisticNucleus],
    k: int,
    theta: float,
    qualifying: Callable[[ProbabilisticGraph], tuple[CandidateWorldIndex, np.ndarray]],
) -> list[ProbabilisticNucleus]:
    """Group each candidate's qualifying triangles into w-nuclei (Algorithm 3).

    ``qualifying(subgraph)`` returns the compiled
    :class:`~repro.sampling.world_matrix.CandidateWorldIndex` of a
    local-nucleus candidate and the boolean mask of its triangle rows whose
    estimated weak score reaches θ.  A 4-clique is allowed when all four of
    its triangles qualify, a qualifying triangle is covered when some
    allowed clique contains it, and the allowed cliques join their
    triangles in one union-find forest; each component of covered
    triangles is one nucleus.  A candidate's nuclei come out ordered by
    their smallest triangle row.
    """
    solutions: list[ProbabilisticNucleus] = []
    for candidate in candidates:
        index, chosen = qualifying(candidate.subgraph)
        allowed = index.clique_triangles[chosen[index.clique_triangles].all(axis=1)]
        if not allowed.size:
            continue
        parent = _union_batches(
            np.arange(index.num_triangles), np.repeat(allowed[:, 0], 3), allowed[:, 1:].ravel()
        )
        labels = index.triangle_labels()
        for rows in _root_groups(parent, np.unique(allowed)):
            component = [labels[row] for row in rows.tolist()]
            solutions.append(
                ProbabilisticNucleus(
                    k=k,
                    theta=theta,
                    mode="weakly-global",
                    subgraph=triangles_to_edge_subgraph(graph, component),
                    triangles=frozenset(component),
                )
            )
    return solutions
